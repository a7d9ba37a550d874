"""Classical restrictions of a matrix product state.

A restriction context carries the Kraus family together with the left
environment sigma = E^{|A|}(|L><L|) and the right dressing F = sqrt(E*^{|C|}
(|R><R|)), from which it computes the normalization K^2 of each length.
The stationary context (sigma = rho, F = 1) describes the infinite chain; a
finite chain is the bare boundary context (sigma = |L><L|, F^dag F =
|R><R|).  String probabilities are

    p(x_1..x_N) = Tr[F A_{x_N} ... A_{x_1} sigma A^dag ... A^dag F^dag] / K^2,

the post-measurement state on the traced-out regions is isospectral to the
operator inside the trace (normalized), and the average of its von Neumann
entropy over all strings drives both the quantum CMI (= twice the average
entropy for a pure global state) and the average purity Q.

Every enumeration over the d^n strings, here and in ``purity`` and
``trajectories``, runs on one engine.  ``_products`` walks the tree of
string products level by level (site 1 is the most significant digit):
breadth-first while the next level fits under the stack cap, then in runs
of whole subtrees below consecutive prefixes, so its stacks come out in
lexicographic order with each product's global string index.  A level grows
with one BLAS call per prefix: the Kraus operators stacked as one (d*D x D)
matrix times the prefix's product form all d children at once, and each
child gets the bits of its own prefix's call, wherever the walk splits (at
D = 2, of its own two multiply-adds).  A product that is exactly zero is
dropped where it appears, with its subtree, and the cap counts only the
products kept.  The level-m nodes of a tree are the products of length m,
so one walk can report several depths, each node by the run that grows
it.  Only the walk knows how it splits; its readers see a stream of stacks
and read any set of depths from one walk.  ``_batches`` joins each depth's
stacks up to the stack cap, and ``_string_tables`` fills each depth's
table from those batches, placing each batch's rows by index and giving
the dropped strings zero rows.  ``_string_sum`` adds each depth's
per-string values in the order of a depth-first walk (each node sums its d
children in symbol order, starting from zero), each level holding its
nodes up to the stack cap, then summing its complete families into the
level above.  Since x + 0.0 == x, skipping the dropped strings changes no
sum.  Results do not depend on the splitting or the pruning and are
deterministic bit for bit.

There is one path of each kind.  ``_window_walk`` reads the outcomes of
any context for several window lengths from one walk: it streams the
Shannon entropy of each (``_StreamedEntropy``: ``math.fsum`` over fixed
blocks of d^k strings, one numpy sum each, with no table) and fills the
raw table of at most one, which ``window_distribution`` adopts
(``chain_distribution`` is that table for the bare boundary context); a
caller that wants several tables takes each from its own walk.  The
leaf, ``_capped_norm2``, is the one squared norm of a string product and
calls no BLAS, so each entry has the bits of its own product alone.
``_spectra`` is the one spectrum of a string product's Gram T T^dag and
its one nu1 nu2 besides the SVD that ``w_series`` reports (closed forms at
D = 2, with no LAPACK call; at D >= 3 ``_nu12``, also w's check route):
the scans (so f and ``f_series``), ``post_measurement_spectrum`` and w's s
at D = 2 take it.  ``_cmi_rows`` sets the classical CMI of each block
against the quantum CMI of its block, one way in every context: H(a+b) +
H(b+c) - H(b) - H(a+b+c), four streamed window entropies of the context
and of its three folds (``_absorb_windows``), each distinct context walked
once (the stationary context is its own fold, so it is walked once in
all), and every block scanned from one walk of the fold with both windows
(``_scans``).  The given context's walk also fills the Gibbs chain's
table, the one table the rows form.  ``cmi_report`` is its one-row call,
and ``analyze`` takes all its rows and its Gibbs chain's fit from one
call; the public ``classical_cmi``, from the entropies of a table's
marginals, is its oracle.

A family records the raw sums of w (at D >= 3) and of each context's scans
per length (``KrausFamily._sums``), and ``_recorded`` is that record's one
reader and writer, so the decay series, the scans and the CMI rows walk
only the lengths it lacks, from one tree, while every call still runs its
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, frexp, fsum, inf, ldexp
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .chain import (
    BoundaryPair,
    ChainGeometry,
    KrausFamily,
    _freeze,
    _powers,
    left_environment,
    right_environment,
    sqrt_env,
)
from .errors import (
    EnumerationTooLarge,
    FNotContractive,
    GeometryMismatch,
    InvalidDistribution,
    SymbolOutOfRange,
    ZeroProbabilityString,
)
from .gibbs import ChainDistribution, _window_cmi
from .linalg import (
    Spectrum,
    _check_density,
    _check_length,
    _check_square,
    _integral,
    _plogp_sums,
    exterior_square,
)

__all__ = [
    "RestrictionContext",
    "CmiReport",
    "RestrictionSummary",
    "DEFAULT_GUARD",
    "string_probability",
    "post_measurement_spectrum",
    "average_entropy",
    "quantum_cmi",
    "average_purity_q",
    "restriction_scan",
    "window_distribution",
    "chain_distribution",
    "classical_cmi",
    "cmi_report",
]

DEFAULT_GUARD = 2_000_000  # max d^n strings per enumeration; overridable everywhere
_CHUNK_STRINGS = 512  # most square products held at once; bounds peak memory
_GRAM_SWITCH = 1e-4  # least lambda2 / lambda1 whose Gram root _nu12 takes
_PRINTED_DIGITS = 40  # most digits of a d^n that a guard error writes in decimal
_ENTROPY_BLOCK = 2**15  # most strings in one block of a streamed entropy's partial sums


@dataclass(frozen=True)
class RestrictionContext:
    """Kraus family dressed with environments (sigma, F).

    The D x D density operator sigma and contraction F are stored as frozen
    copies, so a caller that changes its own arrays changes no context.
    Each operator derived from them is formed once, when first read: F^dag F,
    the walks' cap F, sqrt(sigma), the environments E^n(sigma), from which
    ``k2_for`` takes K^2(N), so probabilities sum to 1 exactly for every N,
    and the right powers E*^n(F^dag F) that the window folds read.
    """

    kraus: KrausFamily
    sigma: np.ndarray
    f_op: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", _freeze(_check_density(self.sigma, "sigma", self.kraus.D)))
        object.__setattr__(self, "f_op", _freeze(_check_square(self.f_op, "F", FNotContractive, self.kraus.D)))
        lam_max = float(np.linalg.eigvalsh(self._f2)[-1])
        if lam_max > 1.0 + 1e-10:
            raise FNotContractive(f"largest eigenvalue of F^dag F is {lam_max!r} > 1")

    @classmethod
    def stationary(cls, kraus: KrausFamily) -> "RestrictionContext":
        """Infinite-chain mode: sigma = the family's fixed point rho
        (``KrausFamily._fixed_point``, computed once), F = identity.  K^2(n)
        is still iterated: it is 1 only up to about n times the family's
        normalization residual, which the default atol lets reach 1e-10."""
        return cls(kraus=kraus, sigma=kraus._fixed_point.rho, f_op=np.eye(kraus.D, dtype=complex))

    @classmethod
    def from_boundaries(
        cls,
        kraus: KrausFamily,
        boundaries: BoundaryPair,
        geometry: ChainGeometry,
    ) -> "RestrictionContext":
        """Finite-chain mode: sigma = E^lenA(L), F = sqrt(E*^lenC(R)).
        Degenerate boundaries, K^2(lenB) < 1e-12, raise ValueError here."""
        sigma = left_environment(kraus, boundaries.L, geometry.len_a)
        f_op = sqrt_env(right_environment(kraus, boundaries.R, geometry.len_c))
        ctx = cls(kraus=kraus, sigma=sigma, f_op=f_op)
        ctx.k2_for(geometry.len_b)
        return ctx

    @cached_property
    def _f2(self) -> np.ndarray:
        """F^dag F, the right environment: the contraction check, K^2 and
        the folded and range-factored caps all read this one product."""
        return self.f_op.conj().T @ self.f_op

    @cached_property
    def _cap(self) -> np.ndarray | None:
        """F as the walks apply it, or None when F is exactly the identity,
        as in the stationary context: multiplying by it would change no bit."""
        return None if np.array_equal(self.f_op, np.eye(self.kraus.D)) else self.f_op

    @cached_property
    def _stationary(self) -> bool:
        """Whether this is exactly the stationary context: F exactly the
        identity and sigma exactly the family's fixed point rho.  Then every
        transfer step leaves the environments as they are, so the window
        sites fold into nothing (``_absorb_windows``): the context is its
        own fold, and ``_cmi_rows`` walks it once for all four windows.  F
        is read first, so a finite context with F != 1 never computes the
        fixed point."""
        return self._cap is None and np.array_equal(self.sigma, self.kraus._fixed_point.rho)

    @cached_property
    def sqrt_sigma(self) -> np.ndarray:
        """sqrt(sigma), the root of every string product of the context."""
        return sqrt_env(self.sigma)

    @cached_property
    def _envs(self) -> list[np.ndarray]:
        """[sigma, E(sigma), E^2(sigma), ...] as far as asked, extended by ``chain._powers``."""
        return [np.asarray(self.sigma)]

    @cached_property
    def _rights(self) -> list[np.ndarray]:
        """[F^dag F, E*(F^dag F), E*^2(F^dag F), ...] as far as asked, extended by ``chain._powers``."""
        return [self._f2]

    def k2_for(self, n: int) -> float:
        """K^2(n) = Tr(F^dag F E^n(sigma)) for n in [0, 10,000]; a bad n extends no environment.

        Raises ValueError unless K^2(n) >= 1e-12: the length-n strings then
        carry no probability to normalize.
        """
        k2 = float(np.trace(self._f2 @ _powers(self.kraus, self._envs, n, "block length")).real)
        if not k2 >= 1e-12:  # NaN fails every comparison
            raise ValueError(f"degenerate context: K^2({n}) = {k2!r} < 1e-12")
        return k2


@dataclass(frozen=True)
class RestrictionSummary:
    """All per-length aggregates from one pass over the d^n strings."""

    n: int
    p_sum: float
    avg_entropy: float
    avg_purity_q: float
    lam2_sum_over_k2: float  # sum of second eigenvalues / K^2 (sandwich bounds)
    f_value: float  # sum over strings of nu1*nu2 of F A..A sqrt(sigma)


@dataclass(frozen=True)
class CmiReport:
    """Classical and quantum CMI for a block of n sites, plus entropy and Q.

    ``cmi_report`` also fills the block's probability mass ``p_sum`` and its
    decay value ``f``; a report built by hand may leave them unset.
    """

    n: int
    classical_cmi: float
    quantum_cmi: float
    avg_entropy: float
    avg_purity_q: float
    p_sum: float | None = None
    f: float | None = None

    def __post_init__(self) -> None:
        if not (self.classical_cmi <= self.quantum_cmi + 1e-9):
            raise ValueError(
                f"classical CMI {self.classical_cmi!r} exceeds quantum "
                f"{self.quantum_cmi!r} beyond tolerance"
            )
        if abs(self.quantum_cmi - 2.0 * self.avg_entropy) > 1e-10:
            raise ValueError("quantum CMI must equal twice the average entropy")
        if not (-1e-9 <= self.avg_purity_q <= 1.0 + 1e-9):
            raise ValueError(f"average purity {self.avg_purity_q!r} outside [0, 1]")


def _check_guard(d: int, n: int, guard: float) -> None:
    # A NaN guard bounds nothing, so it fails; an infinite one means no limit.
    # Any other guard is below 2^b, b the bit length of its integer part, and
    # d^n >= 2^n for d >= 2, so d^n is compared only while n < b: a long n
    # fails without forming it, and a d^n too long to print is written as
    # the power, such as 3^10000.
    if guard == inf:
        return
    bits = int(guard).bit_length() if abs(guard) < inf else 0
    if (d == 1 or n < bits) and d**n <= guard:
        return
    size = d**n if n * len(str(d)) <= _PRINTED_DIGITS else f"{d}^{n}"
    raise EnumerationTooLarge(f"d^n = {size} exceeds the guard {guard}")


def _zero_threshold(d: int, n: int) -> tuple[float, int]:
    # strings below probability 1e-14 d^-n are left out of entropy/purity sums;
    # it is t 2^s with t near 1e-14 (b the bit length of d^n), so no n underflows
    b = (d**n).bit_length()
    return 1e-14 * ((1 << b) / d**n), -b


def _string_product(
    ops: np.ndarray, root: np.ndarray, x: Sequence[int]
) -> tuple[tuple[int, ...], np.ndarray, int]:
    """The string x as ints (SymbolOutOfRange unless a non-empty sequence of
    integers in [0, len(ops))) and its product A_{x_N} ... A_{x_1} root as P 2^e:
    after each symbol P is divided by the power of two that brings its largest
    |entry| into [1/2, 1), which changes no bit while nothing is subnormal."""
    try:
        xs = tuple(x)
    except TypeError:
        raise SymbolOutOfRange(f"measurement string {x!r} is not a sequence of symbols") from None
    if len(xs) < 1:
        raise SymbolOutOfRange("measurement string must have length >= 1")
    for s in xs:
        if not (_integral(s) and 0 <= s < len(ops)):
            raise SymbolOutOfRange(f"symbol {s!r} is not an integer in [0, {len(ops)})")
    xs = tuple(int(s) for s in xs)
    P, e = root, 0
    for s in xs:
        P = ops[s] @ P
        shift = frexp(float(np.abs(P).max()))[1]
        P.real, P.imag = np.ldexp(P.real, -shift), np.ldexp(P.imag, -shift)
        e += shift
    return xs, P, e


def _adjoint(T: np.ndarray) -> np.ndarray:
    return np.swapaxes(T.conj(), -1, -2)


def _grow(
    stacked: np.ndarray, stack: np.ndarray, index: range | np.ndarray, prune: bool
) -> tuple[np.ndarray, range | np.ndarray]:
    """Extend every product of a lexicographic stack (k, D, r) by one symbol.

    ``stacked`` is the (d*D, D) column of the Kraus operators, A_s in row
    block s, so one BLAS call per prefix forms all d of its children: entry
    i*d + s of the new stack is A_s @ stack[i], and the stack stays in
    lexicographic order with the first symbol most significant.  Each entry
    is a length-D dot product from the call of its own prefix, so its bits
    do not depend on the other prefixes of the stack.  At D = 2 each child
    is instead the two multiply-adds A_s[:, 0] P[0] + A_s[:, 1] P[1] of its
    prefix P, elementwise over the whole stack with one temporary of its
    size and no BLAS call, so its bits depend neither on the stack nor on
    the BLAS core.  ``index`` holds each
    product's global index among the d^depth strings of its length: a range
    on a walk that does not prune, so that such a walk does no index
    arithmetic, and an array on one that does.  With ``prune``, a product
    whose entries are all exactly zero is dropped, so its subtree, whose
    products are all zero too, is never formed.
    """
    k, D, r = stack.shape
    d = stacked.shape[0] // D
    if D == 2:  # A_s[:, 0] P[0] + A_s[:, 1] P[1]: one temporary, no BLAS call
        cols = stacked.reshape(d, 2, 2, 1)
        grown = cols[:, :, 0] * stack[:, None, 0:1]
        grown += cols[:, :, 1] * stack[:, None, 1:2]
        stack = grown.reshape(k * d, 2, r)
    else:
        stack = np.matmul(stacked, stack).reshape(k * d, D, r)
    if not prune:
        return stack, range(index.start * d, index.stop * d)
    index = (index[:, None] * d + np.arange(d)).ravel()
    live = stack.any(axis=(1, 2))
    if not live.all():
        stack, index = stack[live], index[live]
    return stack, index


@dataclass(frozen=True)
class _Tree:
    """The d^m string products A_{x_m}..A_{x_1} root of one enumeration,
    for every m up to the tree's depth n.

    The walk is a lazy stream: nothing is formed until ``levels`` is
    iterated, each call walks afresh, and each stack goes out as soon as it
    is grown.  ``levels`` yields the stacks of any set of depths from one
    walk, each depth in lexicographic order.  ``stack`` holds non-zero
    products and ``index`` (a range on a dense walk, an index array on a
    pruned one) their positions among the d^m strings of their length.
    Every product left out is exactly zero.  Only ``levels``, which sets
    each depth's budget of products, and ``_run`` know how the walk splits.
    """

    stacked: np.ndarray  # (d*D, D): the Kraus operators, A_s in row block s
    root: np.ndarray
    n: int
    cap: int  # most products formed at once
    prune: bool

    @property
    def d(self) -> int:
        return self.stacked.shape[0] // self.root.shape[0]

    @property
    def empty(self) -> np.ndarray:
        """A stack of no products, with the products' shape."""
        return self.root[None][:0]

    def _run(
        self,
        stack: np.ndarray,
        index: range | np.ndarray,
        top: int,
        depths: frozenset[int],
        budget: tuple[int, ...],
    ) -> Iterator[tuple[int, range | np.ndarray, np.ndarray]]:
        """(depth, index, stack) for each non-empty level of ``depths`` below
        the prefixes ``stack`` of length ``top``: the levels this run grows,
        as it grows them, then those of its sub-runs, in order.

        The run grows one level, then each next level that fits that
        depth's ``budget``.  Where one does not, a dense run, whose subtree
        sizes are known, splits its stack into sub-runs of as many whole
        subtrees as fill the budget of the next listed depth t (or n), step
        = budget[t] // d^(t - depth) prefixes each, and a pruned run into
        sub-runs of as many prefixes as can all grow one more level.  So
        each stack this run grows holds at most its depth's budget, or the d
        children of one prefix."""
        d, n = self.d, self.n
        depth = top
        while depth < n and len(stack) and (depth == top or len(stack) * d <= budget[depth + 1]):
            stack, index = _grow(self.stacked, stack, index, self.prune)
            depth += 1
            if depth in depths and len(stack):
                yield depth, index, stack
        if depth < n:
            t = depth + 1 if self.prune else min((m for m in depths if m > depth), default=n)
            step = max(1, budget[t] // d ** (t - depth))
            for i in range(0, len(stack), step):
                yield from self._run(stack[i : i + step], index[i : i + step], depth, depths, budget)

    def levels(self, depths: Iterable[int]) -> Iterator[tuple[int, range | np.ndarray, np.ndarray]]:
        """(depth, index, stack) for the stacks of each of ``depths`` (in
        1..n), all from one walk.

        Each node of a listed depth is yielded once, by the run that grows
        it, never by the runs below it.  A run yields its own levels as it
        grows them, then its sub-runs' levels, so the stacks of each depth
        come in lexicographic order.

        Each depth has a budget of products, and the runs are sized by the
        budget of the next listed depth (``_run``), so a listed depth's
        stacks come near its budget.  Every depth's budget is the cap,
        except on a dense walk that lists more than three depths: there the
        three deepest listed depths keep the cap, and each shallower listed
        depth has half the budget of the listed depth below it, at least 1.
        A walk of one depth, and a pruned walk, keep the cap at every depth
        and split by it alone.  The pending runs hold one stack per depth,
        each of at most max(d, budget) products, so the stacks alive at once
        hold at most the sum of max(d, budget) over the depths 1..n.  The
        halving keeps the budgets of the shallower listed depths within one
        cap in sum, but for the floor of 1.
        """
        depths = frozenset(depths)
        budget = [self.cap] * (self.n + 1)
        if not self.prune:  # the three deepest listed depths keep the cap
            listed = sorted(depths, reverse=True)
            for deeper, m in zip(listed[2:], listed[3:]):
                budget[m] = max(1, budget[deeper] // 2)
        index = np.zeros(1, dtype=np.int64) if self.prune else range(1)
        return self._run(self.root[None], index, 0, depths, tuple(budget))


def _products(K: KrausFamily, root: np.ndarray, n: int, guard: int) -> _Tree:
    """All d^n products A_{x_n}..A_{x_1} root, as a lazy walk of stacks.

    The length n (an integer >= 1), then the guard, which counts all d^n
    strings, are checked when this is called, before any product is formed.
    The walk grows the products breadth-first while the next level fits
    its depth's budget, at most the cap of _CHUNK_STRINGS * D / r products
    of a D x r root, so every stack fits in as much memory as
    _CHUNK_STRINGS square products, and a vector walk (r = 1) takes D times
    as many strings at once.  When the next level does not fit, the walk
    splits its stack into runs of consecutive prefixes, each as many whole
    subtrees as fill the budget of the next depth the caller lists
    (``_Tree.levels``), and continues each run in turn, so the stacks come
    out in lexicographic order and each run is a set of whole subtrees.

    Exact-zero subtrees are skipped: a zero product has only zero
    descendants, so it is dropped where it appears, and the cap counts only
    the products that are kept.  Only a rank-deficient Kraus operator can
    turn a non-zero product into zero, so a family whose operators all have
    full rank (``KrausFamily._singular``) is walked without looking for
    zeros, and without index arithmetic.  That choice changes only the
    speed: a zero product that is kept gives zero rows all the same, and
    one that is skipped changes no tree-order sum, since x + 0.0 == x.
    """
    n = _check_length(n, "string length")
    _check_guard(K.d, n, guard)
    D, r = root.shape
    stacked = K.ops.reshape(K.d * D, D)
    return _Tree(stacked=stacked, root=root, n=n, cap=_CHUNK_STRINGS * D // r, prune=K._singular)


def _tree_reduce(
    rows: np.ndarray, index: range | np.ndarray, d: int
) -> tuple[np.ndarray, range | np.ndarray]:
    """Tree-order sums one level up of the rows of the nodes ``index``
    (increasing, whole families), with the indices of their parents.

    The parent of node i is i // d, and each parent adds its children in
    symbol order starting from +0.0.  A child that is not listed is exactly
    zero, and x + 0.0 == x for an accumulator that starts at +0.0, so the
    sums are those of the full tree bit for bit.  A range of nodes is whole
    families and is summed without index arithmetic.
    """
    if isinstance(index, range):
        rows = rows.reshape(-1, d, *rows.shape[1:])
        index = range(index.start // d, index.stop // d)
    else:
        parent = index // d
        first = np.ones(len(parent), dtype=bool)
        np.not_equal(parent[1:], parent[:-1], out=first[1:])
        slot = np.cumsum(first) - 1
        full = np.zeros((slot[-1] + 1, d) + rows.shape[1:], dtype=rows.dtype)
        full[slot, index - parent * d] = rows
        rows, index = full, parent[first]
    acc = np.zeros_like(rows[:, 0])
    for s in range(d):
        acc += rows[:, s]
    return acc, index


def _string_sum(
    tree: _Tree, depths: Iterable[int], leaf: Callable[[int, np.ndarray], np.ndarray]
) -> dict[int, np.ndarray]:
    """For each of ``depths``, the tree-order sum over all strings of that
    length of the per-string rows leaf(depth, stack), from one walk.

    Each level of each depth's tree holds its nodes up to the tree's cap, as
    ``_batches`` joins a depth's stacks, then sums every complete
    family into its parent (``_tree_reduce``), a node of the level above;
    the last family waits for the rest of its children unless its last
    symbol has come.  When the walk ends, the levels close bottom-up.  So
    each parent adds all its children in symbol order starting from +0.0,
    as the depth-first walk does, bit for bit, however the walk splits.
    The row shape is that of leaf(depth, tree.empty).
    """
    d = tree.d
    # per (depth, level): the (index, rows) not yet summed, and their count
    held = {(m, level): [] for m in depths for level in range(m + 1)}
    count = dict.fromkeys(held, 0)

    def add(key: tuple[int, int], index: range | np.ndarray, rows: np.ndarray) -> None:
        if count[key] and count[key] + len(rows) > tree.cap:
            close(key, final=False)
        held[key].append((index, rows))
        count[key] += len(rows)

    def close(key: tuple[int, int], final: bool) -> None:
        index, rows = _joined(held[key])
        cut = len(index)
        last = index[-1]
        if not (final or last % d == d - 1):
            start = last - last % d  # the last family's first child
            cut = start - index.start if isinstance(index, range) else int(index.searchsorted(start))
        held[key] = [(index[cut:], rows[cut:])] if cut < len(index) else []
        count[key] = len(index) - cut
        if cut:
            rows, index = _tree_reduce(rows[:cut], index[:cut], d)
            add((key[0], key[1] - 1), index, rows)

    for m, index, stack in tree.levels(depths):
        add((m, m), index, leaf(m, stack))
    for m in depths:
        for level in range(m, 0, -1):
            if held[m, level]:
                close((m, level), final=True)
    # held[m, 0] is [(root index, root row)], or empty when every product is zero
    return {m: held[m, 0][0][1][0] if held[m, 0] else leaf(m, tree.empty).sum(axis=0) for m in depths}


def _joined(
    parts: list[tuple[range | np.ndarray, np.ndarray]],
) -> tuple[range | np.ndarray, np.ndarray]:
    """Consecutive stacks of one depth as one stack.  A dense walk's stacks
    tile their depth in order, so their ranges join into one."""
    if len(parts) == 1:
        return parts[0]
    first, last = parts[0][0], parts[-1][0]
    if isinstance(first, range):
        index = range(first.start, last.stop)
    else:
        index = np.concatenate([i for i, _ in parts])
    return index, np.concatenate([s for _, s in parts])


def _batches(
    tree: _Tree, depths: Iterable[int]
) -> Iterator[tuple[int, range | np.ndarray, np.ndarray]]:
    """(depth, index, stack) for the stacks of each of ``depths``, from one
    walk, each depth's consecutive stacks joined up to the tree's cap.

    The walk sizes its runs by the next listed depth's budget, so a
    shallower listed depth of a dense walk, whose budget is below the cap,
    and the last run of a split come in stacks short of the cap.  A depth's
    stacks are held until the next would pass the cap, then go out as one:
    products are per string, so joining changes no bit.  Each depth's
    batches come in lexicographic order."""
    held: dict[int, list] = {m: [] for m in depths}
    count = dict.fromkeys(held, 0)
    for m, index, stack in tree.levels(held):
        if count[m] and count[m] + len(stack) > tree.cap:
            yield (m, *_joined(held[m]))
            held[m], count[m] = [], 0
        held[m].append((index, stack))
        count[m] += len(stack)
    for m in held:
        if held[m]:
            yield (m, *_joined(held[m]))


def _at(index: range | np.ndarray) -> slice | np.ndarray:
    """The positions of a batch's strings in their depth's table."""
    return slice(index.start, index.stop) if isinstance(index, range) else index


def _string_tables(
    tree: _Tree, depths: Iterable[int], leaf: Callable[[int, np.ndarray], np.ndarray]
) -> dict[int, np.ndarray]:
    """For each of ``depths``, the per-string rows leaf(depth, stack) of all
    strings of that length in one lexicographic table, from one walk.

    The leaf sees each depth's joined batches (``_batches``), whose rows are
    placed by global index; the rows of the zero products left out of the
    walk are zero.  The row shape is that of leaf(depth, tree.empty), as for
    ``_string_sum``.
    """
    tables = {}
    for m in set(depths):
        empty = leaf(m, tree.empty)
        tables[m] = np.zeros((tree.d**m,) + empty.shape[1:], dtype=empty.dtype)
    for m, index, stack in _batches(tree, tables):
        tables[m][_at(index)] = leaf(m, stack)
    return tables


def _capped_norm2(cap: np.ndarray | None, P: np.ndarray) -> np.ndarray:
    """||cap @ P[i]||_F^2 for every product of a stack (||P[i]||_F^2 with no
    cap), in plain einsum loops that call no BLAS: the window walks,
    ``string_probability``, the sampler's weights and
    ``martingale_step_check`` all take it.  The loops reduce each row
    over its own entries alone, so a row's bits depend only on its product
    and the cap: not on the stack, the split or the BLAS kernel.
    """
    T = P if cap is None else np.einsum("cd,kdr->kcr", cap, P)
    x = T.reshape(len(T), T.shape[1] * T.shape[2])
    return np.einsum("ki,ki->k", x.real, x.real) + np.einsum("ki,ki->k", x.imag, x.imag)


def _nu12(W: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """nu1 * nu2 of each product of a stack (k, D, D), D >= 2, given the
    ascending eigenvalues ``lam`` of its Gram matrices (W^dag W or W W^dag).

    Where lambda2 >= 1e-4 lambda1 (nu2 >= nu1 / 100) it is sqrt(lambda1
    lambda2): eigvalsh of a formed Gram moves lambda2 by about D eps lambda1,
    so the root keeps nu1 nu2 to about 1e-11 relative.  Below the switch,
    and at NaN, the root would keep half the digits, so it is the spectral
    norm of the exterior square (the matrix of 2x2 minors), which keeps
    about eps nu1^2 however small nu2 is, and exactly 0 for zero minors.
    The squares are formed in slices of max(1, _CHUNK_STRINGS D^2 //
    C(D,2)^2) products, each no larger than a stack of D x D products.
    """
    top, second = lam[:, -1], lam[:, -2]
    gram = second >= _GRAM_SWITCH * top
    norms = np.sqrt(np.where(gram, top * second, 0.0))
    rest = np.flatnonzero(~gram)
    D = W.shape[-1]
    per_slice = max(1, _CHUNK_STRINGS * D**2 // comb(D, 2) ** 2)
    for i in range(0, len(rest), per_slice):
        take = rest[i : i + per_slice]
        wedges = exterior_square(W[take])
        top = np.linalg.eigvalsh(_adjoint(wedges) @ wedges)[:, -1]
        norms[take] = np.sqrt(np.maximum(top, 0.0))
        del wedges  # before the next slice's squares are formed
    return norms


def _spectra(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending eigenvalues of T T^dag and nu1 nu2 of each product of
    a stack (k, D, D).

    At D = 2 both are closed forms, with no LAPACK call.  With a, c the
    diagonal and b the off-diagonal entry of the Gram, lambda1 = m + r for
    m = (a + c) / 2 and r = hypot((a - c) / 2, |b|), and lambda2 = |det T|
    (|det T| / lambda1), 0 where lambda1 = 0, never m - r: that cancels to
    an error of about eps lambda1, where this one errs by about eps
    sqrt(lambda1 lambda2), and no square of |det T| underflows.  lambda2 is
    capped at lambda1, which it can pass by rounding where the two are
    equal.  nu1 nu2 = |det T| is T's one 2x2 minor.  At D >= 3 the
    eigenvalues are one batched eigvalsh, from which ``_nu12`` takes nu1
    nu2; a 1 x 1 product has no nu2, and its nu1 nu2 is 0.
    """
    if T.shape[-1] != 2:
        lam = np.linalg.eigvalsh(T @ _adjoint(T))
        return lam, _nu12(T, lam) if lam.shape[1] > 1 else np.zeros(len(T))
    sq = T.real**2 + T.imag**2
    a, c = sq[:, 0, 0] + sq[:, 0, 1], sq[:, 1, 0] + sq[:, 1, 1]
    b = T[:, 0, 0] * T[:, 1, 0].conj() + T[:, 0, 1] * T[:, 1, 1].conj()
    lam1 = (a + c) / 2.0 + np.hypot((a - c) / 2.0, np.abs(b))
    det = np.abs(T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0])
    lam2 = det * np.divide(det, lam1, out=np.zeros_like(lam1), where=lam1 > 0.0)
    return np.stack([np.minimum(lam2, lam1), lam1], axis=1), det


def string_probability(ctx: RestrictionContext, x: Sequence[int]) -> float:
    """p(x) = ||F A_{x_N}..A_{x_1} sqrt(sigma)||_F^2 / K^2(N), non-negative;
    it rounds to zero only where it leaves the floats."""
    xs, P, e = _string_product(ctx.kraus.ops, ctx.sqrt_sigma, x)
    return ldexp(float(_capped_norm2(ctx._cap, P[None])[0]) / ctx.k2_for(len(xs)), 2 * e)


def post_measurement_spectrum(ctx: RestrictionContext, x: Sequence[int]) -> Spectrum:
    """Spectrum of the normalized post-measurement state for outcome string x.
    Raises ValueError if K^2(N) < 1e-12 and ZeroProbabilityString if p(x) is
    below ``_zero_threshold``, compared by exponent so neither side underflows."""
    xs, P, e = _string_product(ctx.kraus.ops, ctx.sqrt_sigma, x)
    k2 = ctx.k2_for(len(xs))
    T = P if ctx._cap is None else ctx._cap @ P
    lam = _spectra(T[None])[0][0]
    tr = float(lam.sum())
    t, s = _zero_threshold(ctx.kraus.d, len(xs))
    (mp, ep), (mt, et) = frexp(tr / k2), frexp(t)
    if tr <= 0.0 or (ep + 2 * e, mp) < (et + s, mt):
        raise ZeroProbabilityString(f"string {xs} has probability below threshold")
    vals = np.clip(lam[::-1] / tr, 0.0, None)
    return Spectrum(values=vals)


def _recorded(
    K: KrausFamily, key: tuple, root: np.ndarray, ns: list[int], guard: int,
    leaf: Callable[[int, np.ndarray], np.ndarray],
) -> dict[int, np.ndarray]:
    """The tree-order sums of leaf's rows over the strings of each checked
    length of ``ns``, for the reduction and context named by ``key``.

    The one reader and writer of ``KrausFamily._sums``: the lengths missing
    there are summed from one walk of ``root``'s tree to the longest of
    them and recorded.  A sum does not depend on which lengths share its
    walk, so a recorded one is a walked one bit for bit."""
    record = K._sums.setdefault(key, {})
    missing = [n for n in dict.fromkeys(ns) if n not in record]
    if missing:
        record.update(_string_sum(_products(K, root, max(missing), guard), missing, leaf))
    return {n: record[n] for n in ns}


def _scans(ctx: RestrictionContext, ns: Iterable[int], guard: int) -> dict[int, RestrictionSummary]:
    """The RestrictionSummary of each length of ``ns``, after the length
    checks, the guard on the longest and K^2 of each length, which run on
    every call.

    The sums come from the family's record of its context's scans
    (``_recorded``), keyed by the exact bytes of the context's (sigma, F).
    Zero-probability strings (p < 1e-14 d^-n) contribute only to the raw
    probability sum.  ``_spectra`` gives the eigenvalues of T T^dag of each
    product, whence the entropy and the two eigenvalue sums, and f's nu1
    nu2: closed forms at D = 2, with no LAPACK call, and one eigvalsh per
    product at D >= 3."""
    ns = [_check_length(n, "string length") for n in ns]
    _check_guard(ctx.kraus.d, max(ns), guard)
    k2 = {n: ctx.k2_for(n) for n in ns}
    cap = ctx._cap

    def leaf(n: int, P: np.ndarray) -> np.ndarray:
        # rows [tr, tr*S, lam1, lam2, nu1*nu2], un-normalized
        T = P if cap is None else cap @ P
        lam, nu12 = _spectra(T)
        tr = lam.sum(axis=-1)
        rows = np.zeros((len(T), 5))
        rows[:, 0] = tr
        live = tr >= ldexp(*_zero_threshold(ctx.kraus.d, n)) * k2[n]
        rows[live, 4] = nu12[live]
        lam, tr = lam[live], tr[live]
        lam1 = lam[:, -1]
        lam2 = lam[:, -2] if lam.shape[1] > 1 else np.zeros_like(lam1)
        q = np.clip(lam / tr[:, None], 0.0, 1.0)
        plogp = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
        rows[live, 1] = tr * -np.sum(plogp, axis=-1)
        rows[live, 2] = lam1
        rows[live, 3] = np.maximum(lam2, 0.0)
        return rows

    key = ("scan", ctx.sigma.tobytes(), ctx.f_op.tobytes())
    summaries = {}
    for n, acc in _recorded(ctx.kraus, key, ctx.sqrt_sigma, ns, guard, leaf).items():
        p_sum, entropy, lam1, lam2 = (float(x) for x in acc[:4] / k2[n])
        summaries[n] = RestrictionSummary(n, p_sum, entropy, 1.0 - lam1, lam2, f_value=float(acc[4]))
    return summaries


def restriction_scan(
    ctx: RestrictionContext,
    n: int,
    guard: int = DEFAULT_GUARD,
    threads: int = 1,
) -> RestrictionSummary:
    """One lexicographic pass over all d^n strings, aggregating everything:
    the one-length call of ``_scans``, so a length the family has recorded
    for this context (``_recorded``) is read, not walked, after the same
    checks.  ``threads`` is accepted for compatibility and selects
    nothing: the pass runs in the calling thread, with the same result for
    every value.  Raises ValueError if K^2(n) < 1e-12."""
    return _scans(ctx, [n], guard)[n]


def average_entropy(ctx: RestrictionContext, n: int, guard: int = DEFAULT_GUARD) -> float:
    """<S> = sum_x p(x) S[post-measurement state(x)] over all d^n strings."""
    return restriction_scan(ctx, n, guard=guard).avg_entropy


def quantum_cmi(ctx: RestrictionContext, n: int, guard: int = DEFAULT_GUARD) -> float:
    """I(A:C|B) of the block-dephased pure state: exactly twice <S>."""
    return 2.0 * average_entropy(ctx, n, guard=guard)


def average_purity_q(ctx: RestrictionContext, n: int, guard: int = DEFAULT_GUARD) -> float:
    """Q = 1 - sum_x p(x) ||post-measurement state(x)||, in [0, 1]."""
    return restriction_scan(ctx, n, guard=guard).avg_purity_q


def _range_factor(M: np.ndarray) -> np.ndarray | None:
    """X (D x rank) with X X^dag = M for a PSD M, or None if M has full rank.

    The rank counts the eigenvalues above 1e-14 lambda_max, so the part
    dropped is rounding noise, such as that of a pure |L><L|.
    """
    lam, U = np.linalg.eigh(M)
    keep = lam > 1e-14 * lam[-1]
    return None if keep.all() else U[:, keep] * np.sqrt(lam[keep])


class _StreamedEntropy:
    """H = -sum p ln p of one window length, from its entries p as a walk
    yields them, with no table.

    The reduction order is fixed: the d^m strings are cut into blocks of d^k
    consecutive strings in lexicographic order, k the largest with d^k <=
    _ENTROPY_BLOCK; each block's kept entries (p > 0), in order, give sum p
    and sum p ln p as one numpy sum each (``linalg._plogp_sums``), and
    ``math.fsum`` adds the blocks' partials.  A block is summed once the
    walk has passed it, so the entropy depends neither on how the walk
    splits, nor on its depth, nor on which other lengths share it, nor on
    whether it prunes (a pruned string's p is 0, and is not kept).  The
    checks of ``shannon_entropy`` run on the streamed entries: each p finite
    and >= -1e-10 (``_plogp_sums``), and |sum p - 1| <= 1e-10, each raising
    InvalidDistribution.
    """

    def __init__(self, d: int) -> None:
        self.size = 1  # d^k
        while self.size * d <= _ENTROPY_BLOCK:
            self.size *= d
        self.block, self.held = 0, []  # the open block and its entries so far
        self.mass, self.plogp = [], []  # the partials of the blocks summed

    def add(self, index: range | np.ndarray, p: np.ndarray) -> None:
        """The entries p of the strings ``index``, increasing and after every
        string added before."""
        first, last = index[0] // self.size, index[-1] // self.size
        pieces = [p]
        if first < last:
            starts = np.arange(first + 1, last + 1) * self.size
            cuts = starts - index.start if isinstance(index, range) else np.searchsorted(index, starts)
            pieces = np.split(p, cuts)
        for block, piece in zip(range(first, last + 1), pieces):
            if len(piece):
                if block != self.block:
                    self._close()
                    self.block = block
                self.held.append(piece)

    def _close(self) -> None:
        if not self.held:
            return
        p = np.concatenate(self.held)
        self.held = []  # the pieces go before the log's buffer is formed
        mass, plogp = _plogp_sums(p)
        self.mass.append(mass)
        self.plogp.append(plogp)

    def entropy(self) -> float:
        self._close()
        mass = fsum(self.mass)
        if abs(mass - 1.0) > 1e-10:
            raise InvalidDistribution(f"weights sum to {mass!r}, not 1")
        return -fsum(self.plogp)


def _window_walk(
    ctx: RestrictionContext, entropies: Iterable[int], table: int | None, guard: int
) -> tuple[dict[int, float], np.ndarray | None]:
    """The entropy of each length of ``entropies`` (``_StreamedEntropy``),
    keyed by length, and the raw window table of the length ``table`` (None
    with no table), from one walk of the product tree to the longest, whose
    level-m nodes are the products of the m-site window.  The walk runs from
    the root X to the cap Y of ``window_distribution``, and each entry is
    ||Y P||_F^2 / K^2(m) of its string's product P (``_capped_norm2``); only
    ``table`` forms a d^m table.  The lengths, then the guard (on the
    longest) and K^2 of each length are checked before the walk.  The one
    window path: ``window_distribution`` adopts its table, and ``_cmi_rows``
    reads its entropies and the Gibbs chain's table."""
    entropies = [_check_length(m, "string length") for m in entropies]
    if table is not None:
        table = _check_length(table, "string length")
    lengths = entropies if table is None else entropies + [table]
    root = _range_factor(ctx.sigma)
    root = ctx.sqrt_sigma if root is None else root
    cap = ctx._cap
    if cap is not None:
        Y = _range_factor(ctx._f2)
        cap = cap if Y is None else _adjoint(Y)
    tree = _products(ctx.kraus, root, max(lengths), guard)
    k2 = {m: ctx.k2_for(m) for m in lengths}
    streams = {m: _StreamedEntropy(tree.d) for m in entropies}
    raw = None if table is None else np.zeros(tree.d**table)
    for m, index, stack in _batches(tree, k2):
        p = _capped_norm2(cap, stack) / k2[m]
        if m == table:
            raw[_at(index)] = p
        if m in streams:
            streams[m].add(index, p)
    return {m: s.entropy() for m, s in streams.items()}, raw


def window_distribution(
    ctx: RestrictionContext, m: int, guard: int = DEFAULT_GUARD
) -> ChainDistribution:
    """Joint distribution of m consecutive outcomes under the context.

    Flat table in lexicographic order (site 1 most significant digit).  Each
    environment enters through a range factor: the walk starts from a root
    X (D x rank sigma) with X X^dag = sigma and ends on a cap Y (rank F^dag F
    x D) with Y^dag Y = F^dag F.  At full rank these are sqrt(sigma) and F
    themselves (an identity F is skipped); for the pure boundaries of a
    finite chain the walk runs on vectors.  Each entry is ||Y P||_F^2 /
    K^2(m) of its string's product P, with no BLAS call.  Raises ValueError
    if K^2(m) < 1e-12.  The table is the raw one of its own walk
    (``_window_walk``), adopted in place, so no table is held twice.
    """
    m = _check_length(m, "string length")
    return ChainDistribution._adopt(m, ctx.kraus.d, _window_walk(ctx, [], m, guard)[1])


def chain_distribution(
    K: KrausFamily,
    boundaries: BoundaryPair,
    geometry: ChainGeometry | int,
    guard: int = DEFAULT_GUARD,
) -> ChainDistribution:
    """Full-chain restriction p(x) = |<R| A_{x_n}..A_{x_1} |L>|^2 / K^2.

    The window table of the bare boundary context, as ``window_distribution``
    adopts it from one walk that forms this table alone; raises ValueError
    for degenerate boundaries (K^2 < 1e-12).
    """
    n = geometry.total if isinstance(geometry, ChainGeometry) else geometry
    n = _check_length(n, "chain length")
    _check_guard(K.d, n, guard)  # before the n-site environment is iterated
    bare = RestrictionContext.from_boundaries(K, boundaries, ChainGeometry(0, n, 0))
    return window_distribution(bare, n, guard=guard)


def classical_cmi(p: ChainDistribution, geometry: ChainGeometry) -> float:
    """I(A:C|B) = H(AB) + H(BC) - H(B) - H(ABC) from the entropies of the
    marginals of p, for any table: a stationary window table, a finite
    chain's table or a smoothed one.  ``_cmi_rows`` forms no table: it
    streams the entropies of those marginals as window entropies of folded
    contexts, and this is their oracle."""
    if geometry.total != p.length:
        raise GeometryMismatch(
            f"geometry covers {geometry.total} sites but distribution has {p.length}"
        )
    a, b = geometry.len_a, geometry.len_b
    return _window_cmi(p, a + 1, a + b, p.length)


def _absorb_windows(
    ctx: RestrictionContext, window_a: int, window_c: int
) -> RestrictionContext:
    """Fold unmeasured window sites into the environments.

    The block of a (window_a, n, window_c) geometry is separated from the
    context's environments by the flanking window sites, so the conditional
    state given a block outcome sees sigma' = E^{window_a}(sigma) on the left
    and F'^dag F' = E*^{window_c}(F^dag F) on the right.  The chain is the
    same, so each K^2(n) of the folded context is that of the n + window_a +
    window_c sites of the given one.  Both maps leave the stationary context
    (``RestrictionContext._stationary``) invariant, so it is returned as it
    is rather than folded into itself, which would only add rounding.
    sigma' and F'^dag F' are the context's own powers of sigma (``_envs``)
    and of F^dag F (``_rights``), each formed once however many folds read
    it, and the folded context starts its environments from a copy of the
    given one's from sigma' on: E^n(sigma') is the given context's
    E^{window_a + n}(sigma) bit for bit, so no power is formed twice.
    """
    if (window_a == 0 and window_c == 0) or ctx._stationary:
        return ctx
    sigma = _powers(ctx.kraus, ctx._envs, window_a, "window_a")
    f2 = _powers(ctx.kraus, ctx._rights, window_c, "window_c", adjoint=True)
    folded = RestrictionContext(kraus=ctx.kraus, sigma=sigma, f_op=sqrt_env(f2))
    folded.__dict__["_envs"] = ctx._envs[window_a:]  # sets the cached property
    return folded


def _cmi_rows(
    ctx: RestrictionContext,
    geoms: Sequence[ChainGeometry],
    guard: int,
    gibbs: int | None = None,
    fit: Callable[[ChainDistribution], object] = lambda p: p,
) -> tuple[list[CmiReport], object]:
    """The CmiReport of each block of ``geoms``, and ``fit`` of the
    distribution of the Gibbs chain of ``gibbs`` sites (None without
    ``gibbs``).  The geometries share their window sites a and c and have
    distinct blocks.

    Each row's classical CMI is H(a+b) + H(b+c) - H(b) - H(a+b+c), four
    streamed window entropies (``_window_walk``).  A marginal of the
    context's a+b+c table is the window table of a folded context: with
    sigma_a = E^a(sigma) and F_c = sqrt(E*^c(F^dag F)), H(a+b) is the
    (a+b)-site entropy of (sigma, F_c), H(b+c) the (b+c)-site one of
    (sigma_a, F), H(b) the b-site one of (sigma_a, F_c), and H(a+b+c) the
    context's own, each K^2 being the context's K^2(a+b+c).
    ``_absorb_windows`` forms each fold once, and each distinct context is
    walked once for all the lengths it gives, the given context first: in
    the stationary context every fold is the context itself, so there is
    one walk.  The given context's walk also fills the one table the rows
    form, the Gibbs chain's raw table, which is adopted in place and fitted
    before the other walks.  (sigma_a, F_c) is also the quantum side's
    context, and one walk scans every block (``_scans``)."""
    a, c = geoms[0].len_a, geoms[0].len_c
    longest = max([g.total for g in geoms] + ([] if gibbs is None else [gibbs]))
    _check_guard(ctx.kraus.d, longest, guard)
    ctx.k2_for(longest)  # the environments the folds start from, formed once
    folds = {(0, 0): ctx} | {w: _absorb_windows(ctx, *w) for w in ((0, c), (a, 0), (a, c))}
    walks: dict[int, tuple[RestrictionContext, set[int]]] = {}  # each distinct context, with its lengths
    for (wa, wc), fold in folds.items():
        walks.setdefault(id(fold), (fold, set()))[1].update(g.total - wa - wc for g in geoms)
    h, fitted = {}, None
    for fold, lengths in walks.values():
        h[id(fold)], raw = _window_walk(fold, sorted(lengths), gibbs if fold is ctx else None, guard)
        if raw is not None:  # adopted in place and dropped once fitted
            fitted = fit(ChainDistribution._adopt(gibbs, ctx.kraus.d, raw))
            del raw

    def entropy(g: ChainGeometry, wa: int, wc: int) -> float:
        return h[id(folds[wa, wc])][g.total - wa - wc]

    classical = [entropy(g, 0, c) + entropy(g, a, 0) - entropy(g, a, c) - entropy(g, 0, 0) for g in geoms]
    scans = _scans(folds[a, c], [g.len_b for g in geoms], guard)
    return [
        CmiReport(
            n=geom.len_b,
            classical_cmi=max(0.0, cmi),
            quantum_cmi=2.0 * scan.avg_entropy,
            avg_entropy=scan.avg_entropy,
            avg_purity_q=scan.avg_purity_q,
            p_sum=scan.p_sum,
            f=scan.f_value,
        )
        for geom, cmi, scan in zip(geoms, classical, [scans[g.len_b] for g in geoms])
    ], fitted


def cmi_report(
    ctx: RestrictionContext,
    n: int,
    window_a: int = 2,
    window_c: int = 2,
    guard: int = DEFAULT_GUARD,
) -> CmiReport:
    """Assemble the per-block CMI report, with the block's p_sum and f.

    The one-row call of ``_cmi_rows``, whose four streamed window entropies
    give the classical CMI of the window_a + n + window_c sites with no
    table: one walk in the stationary context, one per distinct folded
    context elsewhere.  The quantum side conditions on
    everything outside the block, i.e. the window sites folded into the
    environments; the classical side probes only the ``window_a`` and
    ``window_c`` visible sites (discarding the environments), which can only
    lower the classical CMI, so the ordering classical <= quantum is
    preserved.  For the bare boundary context of a finite chain the window
    is the whole chain, so the classical side is that of the whole chain.
    """
    geom = ChainGeometry(len_a=window_a, len_b=n, len_c=window_c)
    return _cmi_rows(ctx, [geom], guard)[0][0]
