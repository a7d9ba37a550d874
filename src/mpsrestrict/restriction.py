"""Classical restrictions of a matrix product state.

A restriction context carries the Kraus family together with the left
environment sigma = E^{|A|}(|L><L|), the right dressing F = sqrt(E*^{|C|}
(|R><R|)) and the normalization K^2.  The stationary context (sigma = rho,
F = 1) describes the infinite chain; a finite chain is the bare boundary
context (sigma = |L><L|, F^dag F = |R><R|).  String probabilities are

    p(x_1..x_N) = Tr[F A_{x_N} ... A_{x_1} sigma A^dag ... A^dag F^dag] / K^2,

the post-measurement state on the traced-out regions is isospectral to the
operator inside the trace (normalized), and the average of its von Neumann
entropy over all strings drives both the quantum CMI (= twice the average
entropy for a pure global state) and the average purity Q.

Every enumeration over the d^n strings, here and in ``purity`` and
``trajectories``, runs on one engine: ``_products`` builds the string
products level by level as lexicographic stacks (site 1 is the most
significant digit), in chunks that are whole subtrees below a prefix, and
``_tree_sum`` adds per-string values in the order of a depth-first walk
(each node sums its d children in symbol order, starting from zero).  A
product that is exactly zero is dropped where it appears, with its subtree,
and ``_string_sum``/``_string_table`` give its strings zero rows; since
x + 0.0 == x, results equal those of the full walk.  Results do not depend
on the chunking or the pruning and are deterministic bit for bit.

There is one path of each kind.  ``window_distribution`` tabulates the
outcomes of any context (``chain_distribution`` is that table for the bare
boundary context), and ``cmi_report`` sets the classical CMI of a window
table against the quantum CMI of the block, with the window sites folded
into the environments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .chain import (
    BoundaryPair,
    ChainGeometry,
    KrausFamily,
    _iterate,
    fixed_point,
    left_environment,
    normalization_k2,
    right_environment,
    sqrt_env,
    transfer_apply,
)
from .errors import (
    EnumerationTooLarge,
    FNotContractive,
    GeometryMismatch,
    SymbolOutOfRange,
    ZeroProbabilityString,
)
from .gibbs import ChainDistribution, _window_cmi
from .linalg import Spectrum, _check_density, _check_length

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


def _check_contraction(F: np.ndarray) -> np.ndarray:
    """F as a complex array, unchanged, if it is finite with F^dag F <= 1."""
    F = np.asarray(F, dtype=complex)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise FNotContractive(f"F must be square, got {F.shape}")
    if not np.all(np.isfinite(F)):
        raise FNotContractive("F contains NaN or Inf")
    lam_max = float(np.linalg.eigvalsh(F.conj().T @ F)[-1])
    if lam_max > 1.0 + 1e-10:
        raise FNotContractive(f"largest eigenvalue of F^dag F is {lam_max!r} > 1")
    return F


@dataclass(frozen=True)
class RestrictionContext:
    """Kraus family dressed with environments (sigma, F) and normalization.

    ``k2`` records the construction-geometry normalization; the per-length
    values K^2(N) = Tr(F^dag F E^N(sigma)) are computed lazily and cached, so
    probabilities sum to 1 exactly for every N.  The finite density operator
    sigma and contraction F are stored as given.
    """

    kraus: KrausFamily
    sigma: np.ndarray
    f_op: np.ndarray
    k2: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        sigma = _check_density(self.sigma, "sigma")
        f_op = _check_contraction(self.f_op)
        D = self.kraus.D
        if sigma.shape != (D, D) or f_op.shape != (D, D):
            raise FNotContractive(f"environments must be {D}x{D}")
        if self.k2 < 1e-12:
            raise ValueError(f"context rejected: K^2 = {self.k2!r} < 1e-12")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "f_op", f_op)

    @classmethod
    def stationary(cls, kraus: KrausFamily) -> "RestrictionContext":
        """Infinite-chain mode: sigma = fixed point rho, F = identity, K^2 = 1."""
        rho = fixed_point(kraus).rho
        eye = np.eye(kraus.D, dtype=complex)
        return cls(kraus=kraus, sigma=rho, f_op=eye, k2=1.0, _cache={"rho": rho})

    @classmethod
    def from_boundaries(
        cls,
        kraus: KrausFamily,
        boundaries: BoundaryPair,
        geometry: ChainGeometry,
    ) -> "RestrictionContext":
        """Finite-chain mode: sigma = E^lenA(L), F = sqrt(E*^lenC(R))."""
        sigma = left_environment(kraus, boundaries.L, geometry.len_a)
        f2 = right_environment(kraus, boundaries.R, geometry.len_c)
        f_op = sqrt_env(f2)
        k2 = normalization_k2(kraus, boundaries, geometry)
        return cls(kraus=kraus, sigma=sigma, f_op=f_op, k2=k2)

    @property
    def _rho(self) -> np.ndarray:
        """The family's stationary state, recorded by ``stationary``."""
        if "rho" not in self._cache:
            self._cache["rho"] = fixed_point(self.kraus).rho
        return self._cache["rho"]

    @property
    def sqrt_sigma(self) -> np.ndarray:
        if "sqrt_sigma" not in self._cache:
            self._cache["sqrt_sigma"] = sqrt_env(self.sigma)
        return self._cache["sqrt_sigma"]

    def k2_for(self, n: int) -> float:
        """K^2(n) = Tr(F^dag F E^n(sigma)), cached per n >= 0.

        Raises ValueError if K^2(n) < 1e-12: the length-n strings then carry
        no probability to normalize.
        """
        n = _check_length(n, "block length", least=0)
        key = ("k2", n)
        if key not in self._cache:
            envs = self._cache.setdefault("envs", [np.asarray(self.sigma)])
            while len(envs) <= n:
                envs.append(transfer_apply(self.kraus, envs[-1]))
            f2 = self.f_op.conj().T @ self.f_op
            self._cache[key] = float(np.trace(f2 @ envs[n]).real)
        k2 = self._cache[key]
        if k2 < 1e-12:
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


def _validate_string(x: Sequence[int], d: int) -> tuple[int, ...]:
    xs = tuple(int(s) for s in x)
    if len(xs) < 1:
        raise SymbolOutOfRange("measurement string must have length >= 1")
    for s in xs:
        if not (0 <= s < d):
            raise SymbolOutOfRange(f"symbol {s} outside [0, {d})")
    return xs


def _check_guard(d: int, n: int, guard: float) -> None:
    # a NaN guard bounds nothing, so it fails; an infinite one means no limit
    if not d**n <= guard:
        raise EnumerationTooLarge(f"d^n = {d**n} exceeds the guard {guard}")


def _zero_threshold(d: int, n: int) -> float:
    # strings below this probability are excluded from entropy/purity sums
    return 1e-14 * d ** (-n)


def _string_product(ops: np.ndarray, root: np.ndarray, xs: Sequence[int]) -> np.ndarray:
    """A_{x_N} ... A_{x_1} root for one string."""
    P = root
    for s in xs:
        P = ops[s] @ P
    return P


def _adjoint(T: np.ndarray) -> np.ndarray:
    return np.swapaxes(T.conj(), -1, -2)


def _grow(
    ops: np.ndarray, stack: np.ndarray, levels: int, prune: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Extend every product of a stack (k, D, D') by ``levels`` more symbols.

    Entry i*d + s of each new level is ops[s] @ stack[i], so the stack stays
    in lexicographic order with the first symbol most significant.  With
    ``prune``, a product whose entries are all exactly zero is dropped at the
    level where it appears, so its subtree, whose products are all zero too,
    is never formed.  Returns the grown stack and the lexicographic index of
    each of its products among the k d^levels.
    """
    d = ops.shape[0]
    index = np.arange(len(stack))
    for _ in range(levels):
        stack = np.matmul(ops[None], stack[:, None]).reshape(-1, *stack.shape[1:])
        if prune:
            index = (index[:, None] * d + np.arange(d)).ravel()
            live = stack.any(axis=(1, 2))
            if not live.all():
                stack, index = stack[live], index[live]
    return stack, index if prune else np.arange(len(stack))


@dataclass(frozen=True)
class _Tree:
    """The d^n string products of one enumeration, in ``count`` chunks of
    ``size`` strings: chunk c holds strings c*size .. (c+1)*size - 1.

    Iterating (once) yields (c, live, stack) for each chunk c that holds a
    non-zero product, in order: ``stack`` holds the chunk's products that are not
    exactly zero and ``live`` their in-chunk indices, both lexicographic.
    Every product left out is exactly zero.
    """

    d: int
    count: int
    size: int
    empty: np.ndarray  # a stack of no products, with the products' shape
    chunks: Iterator[tuple[int, np.ndarray, np.ndarray]]

    def __iter__(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        return self.chunks


def _products(ops: np.ndarray, root: np.ndarray, n: int, guard: int) -> _Tree:
    """All d^n products A_{x_n}..A_{x_1} root, as lexicographic chunks.

    The length n (an integer >= 1), then the guard, which counts all d^n
    strings, are checked when this is called, before any product is formed.
    Each chunk is the subtree below one prefix: there are d^split chunks of
    d^(n-split) strings.  A chunk holds at most _CHUNK_STRINGS * D / r
    products of a D x r root, so every chunk fits in as much memory as
    _CHUNK_STRINGS square products, and a vector walk (r = 1) takes D times
    as many strings at once.

    Exact-zero subtrees are skipped: a zero product has only zero
    descendants, so it is dropped where it appears and a chunk left with no
    product is not yielded.  Only a rank-deficient Kraus operator can turn a
    non-zero product into zero, so a family whose operators all have full
    rank is walked without looking for zeros.  That choice changes only the
    speed: a zero product that is kept gives zero rows all the same.
    """
    d = ops.shape[0]
    n = _check_length(n, "string length")
    _check_guard(d, n, guard)
    D, r = root.shape
    split = 0
    while d ** (n - split) * r > _CHUNK_STRINGS * D:
        split += 1
    # rank-deficient at the tolerance of np.linalg.matrix_rank
    nu = np.linalg.svd(ops, compute_uv=False)
    prune = bool(np.any(nu[:, -1] <= nu[:, 0] * D * np.finfo(float).eps))
    prefixes, numbers = _grow(ops, root[None], split, prune)

    def chunks() -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        for c, P in zip(numbers, prefixes):
            stack, live = _grow(ops, P[None], n - split, prune)
            if len(stack):
                yield int(c), live, stack

    return _Tree(d=d, count=d**split, size=d ** (n - split), empty=prefixes[:0], chunks=chunks())


def _tree_sum(values: np.ndarray, d: int) -> np.ndarray:
    """Sum the d^k rows of a lexicographic table in depth-first tree order.

    Each node adds its d children in symbol order starting from zero, as a
    recursive ``acc += child`` walk does, so that walk's sum is reproduced
    bit for bit, and chunk partials combine to the one-pass total.
    """
    while len(values) > 1:
        values = values.reshape(-1, d, *values.shape[1:])
        acc = np.zeros_like(values[:, 0])
        for s in range(d):
            acc += values[:, s]
        values = acc
    return values[0]


def _string_sum(tree: _Tree, leaf: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Tree-order sum over all strings of the per-string rows leaf(stack).

    Each live chunk's rows are placed in a zero-filled chunk and tree-summed,
    and a chunk with no live product contributes a zero partial.  The leaves
    map a zero product to zero rows, and x + 0.0 == x for the accumulator,
    which starts at +0.0, so the sum equals the one over every string bit
    for bit.  The row shape is that of leaf(tree.empty), so a leaf must take
    a stack of no products.
    """
    empty = leaf(tree.empty)
    partials = np.zeros((tree.count,) + empty.shape[1:], dtype=empty.dtype)
    for c, live, stack in tree:
        rows = leaf(stack)
        if len(rows) < tree.size:
            full = np.zeros((tree.size,) + rows.shape[1:], dtype=rows.dtype)
            full[live] = rows
            rows = full
        partials[c] = _tree_sum(rows, tree.d)
    return _tree_sum(partials, tree.d)


def _string_table(tree: _Tree, leaf: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The per-string rows leaf(stack) of all strings in one lexicographic
    table; the rows of the zero products left out of the walk are zero.  The
    row shape is that of leaf(tree.empty), as for ``_string_sum``."""
    empty = leaf(tree.empty)
    table = np.zeros((tree.count * tree.size,) + empty.shape[1:], dtype=empty.dtype)
    for c, live, stack in tree:
        table[c * tree.size + live] = leaf(stack)
    return table


def _norm2(T: np.ndarray) -> np.ndarray:
    """np.linalg.norm(T[i]) ** 2 for every matrix of a stack, bit for bit.

    Like np.linalg.norm it adds the dot products of the real and imaginary
    parts and takes the square root; the square goes through pow, as ``**``
    on a scalar does, which can differ from x * x in the last bit.
    """
    x = T.reshape(len(T), 1, T.shape[1] * T.shape[2])
    sq = x.real @ np.swapaxes(x.real, 1, 2) + x.imag @ np.swapaxes(x.imag, 1, 2)
    return np.float_power(np.sqrt(sq[:, 0, 0]), 2)


def string_probability(ctx: RestrictionContext, x: Sequence[int]) -> float:
    """p(x) = ||F A_{x_N}..A_{x_1} sqrt(sigma)||_F^2 / K^2(N), non-negative."""
    xs = _validate_string(x, ctx.kraus.d)
    T = ctx.f_op @ _string_product(ctx.kraus.ops, ctx.sqrt_sigma, xs)
    return float(np.linalg.norm(T) ** 2 / ctx.k2_for(len(xs)))


def post_measurement_spectrum(ctx: RestrictionContext, x: Sequence[int]) -> Spectrum:
    """Spectrum of the normalized post-measurement state for outcome string x."""
    xs = _validate_string(x, ctx.kraus.d)
    T = ctx.f_op @ _string_product(ctx.kraus.ops, ctx.sqrt_sigma, xs)
    lam = np.linalg.eigvalsh(T @ T.conj().T)
    tr = float(lam.sum())
    if tr / ctx.k2_for(len(xs)) < _zero_threshold(ctx.kraus.d, len(xs)):
        raise ZeroProbabilityString(f"string {xs} has probability below threshold")
    vals = np.clip(lam[::-1] / tr, 0.0, None)
    return Spectrum(values=vals)


def restriction_scan(
    ctx: RestrictionContext,
    n: int,
    guard: int = DEFAULT_GUARD,
    threads: int = 1,
) -> RestrictionSummary:
    """One lexicographic pass over all d^n strings, aggregating everything.

    Zero-probability strings (p < 1e-14 d^-n) contribute only to the raw
    probability sum.  ``threads`` is accepted for compatibility and selects
    nothing: the pass runs in the calling thread, with the same result for
    every value.  Raises ValueError if K^2(n) < 1e-12.
    """
    d = ctx.kraus.d
    tree = _products(ctx.kraus.ops, ctx.sqrt_sigma, n, guard)
    k2 = ctx.k2_for(n)
    tr_floor = _zero_threshold(d, n) * k2
    eye = np.eye(ctx.kraus.D, dtype=complex)
    f_op = None if np.allclose(ctx.f_op, eye, atol=0.0, rtol=0.0) else ctx.f_op

    def leaf(P: np.ndarray) -> np.ndarray:
        # rows [tr, tr*S, lam1, lam2, sqrt(lam1*lam2)], un-normalized
        T = P if f_op is None else f_op @ P
        lam = np.linalg.eigvalsh(T @ _adjoint(T))
        tr = lam.sum(axis=-1)
        rows = np.zeros((len(T), 5))
        rows[:, 0] = tr
        live = tr >= tr_floor
        lam, tr = lam[live], tr[live]
        lam1 = lam[:, -1]
        lam2 = lam[:, -2] if lam.shape[1] > 1 else np.zeros_like(lam1)
        q = np.clip(lam / tr[:, None], 0.0, 1.0)
        plogp = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
        rows[live, 1] = tr * -np.sum(plogp, axis=-1)
        rows[live, 2] = lam1
        rows[live, 3] = np.maximum(lam2, 0.0)
        rows[live, 4] = np.sqrt(np.maximum(lam1, 0.0) * np.maximum(lam2, 0.0))
        return rows

    acc = _string_sum(tree, leaf)
    return RestrictionSummary(
        n=int(n),
        p_sum=float(acc[0] / k2),
        avg_entropy=float(acc[1] / k2),
        avg_purity_q=float(1.0 - acc[2] / k2),
        lam2_sum_over_k2=float(acc[3] / k2),
        f_value=float(acc[4]),
    )


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


def window_distribution(
    ctx: RestrictionContext, m: int, guard: int = DEFAULT_GUARD
) -> ChainDistribution:
    """Joint distribution of m consecutive outcomes under the context.

    Flat table in lexicographic order (site 1 most significant digit).  Each
    environment enters through a range factor: the walk starts from a root
    X (D x rank sigma) with X X^dag = sigma and ends on a cap Y (rank F^dag F
    x D) with Y^dag Y = F^dag F.  At full rank these are sqrt(sigma) and F
    themselves; for the pure boundaries of a finite chain the walk runs on
    vectors.  Raises ValueError if K^2(m) < 1e-12.
    """
    d = ctx.kraus.d
    root = _range_factor(ctx.sigma)
    cap = _range_factor(ctx.f_op.conj().T @ ctx.f_op)
    root = ctx.sqrt_sigma if root is None else root
    cap = ctx.f_op if cap is None else _adjoint(cap)
    tree = _products(ctx.kraus.ops, root, m, guard)
    k2 = ctx.k2_for(m)
    table = _string_table(tree, lambda P: _norm2(cap @ P) / k2)
    return ChainDistribution(length=m, d=d, table=table)


def chain_distribution(
    K: KrausFamily,
    boundaries: BoundaryPair,
    geometry: ChainGeometry | int,
    guard: int = DEFAULT_GUARD,
) -> ChainDistribution:
    """Full-chain restriction p(x) = |<R| A_{x_n}..A_{x_1} |L>|^2 / K^2.

    The window table of the bare boundary context; raises ValueError for
    degenerate boundaries (K^2 < 1e-12).
    """
    n = geometry.total if isinstance(geometry, ChainGeometry) else geometry
    n = _check_length(n, "chain length")
    _check_guard(K.d, n, guard)  # before the n-site environment is iterated
    bare = RestrictionContext.from_boundaries(K, boundaries, ChainGeometry(0, n, 0))
    return window_distribution(bare, n, guard=guard)


def classical_cmi(p: ChainDistribution, geometry: ChainGeometry) -> float:
    """I(A:C|B) = H(AB) + H(BC) - H(B) - H(ABC) from marginal entropies."""
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
    same, so K^2 carries over.  Both maps leave the stationary context
    invariant, so it is returned as it is rather than folded into itself,
    which would only add rounding.
    """
    if window_a == 0 and window_c == 0:
        return ctx
    eye = np.eye(ctx.kraus.D, dtype=complex)
    if np.array_equal(ctx.f_op, eye) and np.array_equal(ctx.sigma, ctx._rho):
        return ctx
    sigma = _iterate(ctx.kraus, ctx.sigma, window_a, adjoint=False)
    f2 = _iterate(ctx.kraus, ctx.f_op.conj().T @ ctx.f_op, window_c, adjoint=True)
    return RestrictionContext(kraus=ctx.kraus, sigma=sigma, f_op=sqrt_env(f2), k2=ctx.k2)


def cmi_report(
    ctx: RestrictionContext,
    n: int,
    window_a: int = 2,
    window_c: int = 2,
    guard: int = DEFAULT_GUARD,
) -> CmiReport:
    """Assemble the per-block CMI report, with the block's p_sum and f.

    The quantum side conditions on everything outside the block, i.e. the
    window sites folded into the environments; the classical side probes
    only the ``window_a`` and ``window_c`` visible sites (discarding the
    environments), which can only lower the classical CMI, so the ordering
    classical <= quantum is preserved.  For the bare boundary context of a
    finite chain the window table is the chain's full table, so the
    classical side is that of the whole chain.
    """
    summary = restriction_scan(_absorb_windows(ctx, window_a, window_c), n, guard=guard)
    geom = ChainGeometry(len_a=window_a, len_b=n, len_c=window_c)
    dist = window_distribution(ctx, geom.total, guard=guard)
    cls = max(0.0, classical_cmi(dist, geom))
    return CmiReport(
        n=int(n),
        classical_cmi=cls,
        quantum_cmi=2.0 * summary.avg_entropy,
        avg_entropy=summary.avg_entropy,
        avg_purity_q=summary.avg_purity_q,
        p_sum=summary.p_sum,
        f=summary.f_value,
    )
