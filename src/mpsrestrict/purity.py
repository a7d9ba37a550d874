"""Purity-condition certification and decay-series diagnostics.

A Kraus family satisfies the purity condition when no projector of rank >= 2
keeps all compressions P A^dag...A^dag A...A P proportional to P across all
product lengths.  ``purity_verdict`` decides it by the first answer of an
ordered list of certificates, ``_CERTIFICATES``, built on:

* the one-sided span certificate (products spanning the operator space at
  some length certifies purity), computed by a linear recursion on the
  D^2 x D^2 operator space without forming any string product;
* a branch-and-prune search for the largest scalar-compression subspace per
  length (the correctable-subspace staircase);
* the decay series w(N) (sum over strings of the two largest singular values
  of the bare products, recorded per family by ``restriction._recorded``;
  at D = 2 the closed form s^N, s = sum_x |det A_x|, which walks nothing),
  which a rank-2 scalar subspace keeps >= 1.

It also gives f(N) (the f column of ``restriction``'s scans: the same for the
products F A..A sqrt(sigma)) and the typicality constructions: Haar-random
families, the full-overlap operator R on odd dimensions, and the explicit
five-block family whose length-(2D-1) products certifiably span.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .chain import KrausFamily, _check_steps, sqrt_env
from .errors import (
    CompletionFailed,
    DimensionTooSmall,
    EvenDimension,
    NumericalInconsistency,
)
from .linalg import _check_length, _check_tol, _psd_rank, clock_shift_basis
from .restriction import (
    DEFAULT_GUARD,
    RestrictionContext,
    _adjoint,
    _check_guard,
    _nu12,
    _products,
    _recorded,
    _scans,
    _spectra,
    _string_tables,
)

__all__ = [
    "CorrectableReport",
    "DecaySeries",
    "PurityVerdict",
    "product_set",
    "span_purity_test",
    "correctable_subspace",
    "purity_verdict",
    "w_series",
    "f_series",
    "estimate_rate",
    "haar_kraus",
    "build_r_operator",
    "constructive_purity_family",
]

_STATUSES = ("SatisfiedCertified", "SatisfiedUpToN", "ViolatedUpToN", "Undetermined")
_INVARIANT_TOL = 1e-12  # largest ||(1 - P) A_x P|| of an invariant range(P)
_W_MARGIN = 1e-9  # how far below 1 a w(m) must fall to rule out a dark subspace


@dataclass(frozen=True)
class CorrectableReport:
    """Largest scalar-compression subspace found per product length.

    ``max_ranks[k]`` is the rank the search found at length n = k+1: a lower
    bound on the true maximum (exact at D <= 2 and on eigenspace-aligned
    families), which a longer length's search can exceed.  Every length
    after the first rank-1 one repeats its projector.
    """

    n_max: int
    max_ranks: tuple[int, ...]
    projectors: tuple[np.ndarray, ...]
    residuals: tuple[float, ...]


def _slope(xs: list[float], ys: list[float]) -> float:
    """The least-squares slope of ys against xs in closed form,
    sum (x - mx)(y - my) / sum (x - mx)^2, with the means and both sums
    taken by ``math.fsum``; NaN when the xs are all equal, as for one point.
    It calls no BLAS or LAPACK kernel, so its bits are the same on every
    CPU core."""
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return float("nan")
    return math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


@dataclass(frozen=True)
class DecaySeries:
    """(n, value) pairs with fitted and Fekete rate estimates.

    ``fitted_rate`` is the least-squares slope of ln v against n over the
    strictly positive entries (``_slope``: NaN for one entry);
    ``fekete_rate`` is min_n ln v(n) / n, an upper bound on the asymptotic
    rate for submultiplicative series.  A series with no positive entry
    carries rate -inf and the ``all_zero`` flag.
    """

    values: tuple[tuple[int, float], ...]
    fitted_rate: float
    fekete_rate: float
    all_zero: bool

    @classmethod
    def from_values(cls, pairs: Iterable[tuple[int, float]]) -> "DecaySeries":
        vals = tuple((_check_length(n, "series length"), float(v)) for n, v in pairs)
        pos = [(n, v) for n, v in vals if v > 0.0]
        fitted = fekete = float("-inf")
        if pos:
            ns = np.array([n for n, _ in pos], dtype=float)
            logs = np.log([v for _, v in pos])
            fekete = float(np.min(logs / ns))
            fitted = _slope(ns.tolist(), logs.tolist())
        all_zero = all(v <= 0.0 for _, v in vals)
        return cls(values=vals, fitted_rate=fitted, fekete_rate=fekete, all_zero=all_zero)

    def value_at(self, n: int) -> float:
        for m, v in self.values:
            if m == n:
                return v
        raise KeyError(f"no entry for n = {n}")


@dataclass(frozen=True)
class PurityVerdict:
    """The first answer of the ordered certificates, plus decay evidence.

    SatisfiedCertified: products span the operator space at some length
    (sufficient condition; failure refutes nothing).
    SatisfiedUpToN: the scalar-subspace staircase reached rank 1 — no rank-2
    subspace survives, and the staircase is non-increasing.  At D >= 3, where
    the search is not exhaustive, also some w(m) < 1 - 1e-9, m <= min(n_max, 6).
    ViolatedUpToN: a rank >= 2 subspace survived through n_max *and* is
    exactly invariant under every A_x, which extends the violation to all N,
    and no w(m) < 1 - 1e-9, m <= min(n_max, 6), refutes it.
    Undetermined: anything else within the explored horizon.
    """

    status: str
    evidence: str
    n_max: int
    span_passed_at: int | None
    span_ranks: tuple[int, ...]
    correctable_ranks: tuple[int, ...] | None
    w_fitted_rate: float | None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "SatisfiedCertified" and self.span_passed_at is None:
            raise ValueError("SatisfiedCertified requires a span pass")


# --------------------------------------------------------------------- products


def product_set(K: KrausFamily, n: int, guard: int = DEFAULT_GUARD) -> list[np.ndarray]:
    """All d^n operators A^dag_{x_1}..A^dag_{x_n} A_{x_n}..A_{x_1}, lexicographic.

    Each is PSD and the set sums to the identity (POVM completeness).
    """
    tree = _products(K, np.eye(K.D, dtype=complex), n, guard)
    return list(_string_tables(tree, [tree.n], lambda _, W: _adjoint(W) @ W)[tree.n])


def span_purity_test(K: KrausFamily, n_max: int) -> tuple[int | None, list[int]]:
    """Span ranks of the product sets for n = 1..n_max, without enumeration.

    Returns (passed_at, rank_series): passed_at is the least n at which the
    d^n products M_s = A_s^dag A_s span the full D^2-dimensional operator
    space (then purity is certified), or None.  The rank at length n is that
    of S_n = sum_s vec(M_s) vec(M_s)^dag, which shares the Gram matrix's
    nonzero spectrum (eigenvalues above 1e-10 lambda_max, as in
    ``gram_rank``).  Since M_{x.s} = A_x^dag M_s A_x, and with row-major
    vec, vec(A^dag M A) = T_x vec(M) for T_x = kron(A_x^dag, A_x^T), it
    follows the recursion S_{n+1} = sum_x T_x S_n T_x^dag from S_1.  So no
    string product is formed: the cost is O(n d D^6) time and O(d D^4)
    memory, with no enumeration guard; n_max has the cap of every transfer
    iteration, 10,000 (``chain._check_steps``), checked before the first step.
    """
    n_max = _check_steps(n_max, "n_max", least=1)
    D = K.D
    V = (_adjoint(K.ops) @ K.ops).reshape(K.d, D * D)
    S = V.T @ V.conj()
    T = np.stack([np.kron(_adjoint(A), A.T) for A in K.ops])
    ranks = [_psd_rank(S)]
    for _ in range(1, n_max):
        # one batched matmul per step: O(d D^6), where a plain einsum is O(d D^8)
        S = (T @ S @ _adjoint(T)).sum(axis=0)
        # Tr S_n can decay geometrically until it underflows at long lengths;
        # scaling by a power of two is exact, so the ranks are those of S_n
        S *= 2.0 ** -np.frexp(np.trace(S).real)[1]
        ranks.append(_psd_rank(S))
    passed_at = next((n for n, r in enumerate(ranks, start=1) if r == D * D), None)
    return passed_at, ranks


# -------------------------------------------------------- correctable subspaces


def _eig_clusters(lam: np.ndarray, reltol: float) -> list[slice]:
    """Group sorted eigenvalues into clusters separated by relative gaps.

    If no gap exceeds the threshold (possible when the spread sits between
    the scalar tolerance and the cluster tolerance), force a split at the
    largest gap so the refinement always makes progress.
    """
    n = lam.size
    scale = max(float(np.max(np.abs(lam))), 1e-300)
    gaps = np.diff(lam)
    cuts = [i + 1 for i in range(n - 1) if gaps[i] > reltol * scale]
    if not cuts and n > 1:
        cuts = [int(np.argmax(gaps)) + 1]
    bounds = [0] + cuts + [n]
    return [slice(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def _max_scalar_subspace(
    K: KrausFamily, n: int, tol: float, guard: int
) -> tuple[int, np.ndarray, float]:
    """Depth-first eigenspace refinement for the largest scalar subspace.

    Starts from the full space; whenever a compression B^dag M B of a
    length-n product M fails the scalar test (residual > tol * ||M||),
    branches over its eigenvalue clusters intersected with the current
    subspace, pruning branches that cannot beat the best rank found.  Each
    node streams the products stack by stack, with one batched norm,
    compression and eigh per stack, and branches on the first failing
    product in lexicographic order, so at most one stack is held.  The
    engine leaves out exact-zero products, which pass the test with residual
    0, so the first failing product is the same.  A node passes, has rank 1,
    or splits into eigen-clusters that partition it, so the visited
    subspaces are nested or orthogonal: at most 2D - 1 of them, and at most
    D - 1 of rank >= 2, the only ones that walk the products.  Returns
    (rank, projector, residual).
    """
    eye = np.eye(K.D, dtype=complex)
    best_rank, best_basis, best_resid = 0, eye, 0.0

    def dfs(B: np.ndarray) -> None:
        nonlocal best_rank, best_basis, best_resid
        r = B.shape[1]
        if r == 1:  # every compression is 1x1, so scalar with residual exactly 0
            best_rank, best_basis, best_resid = 1, B, 0.0
            return
        worst = 0.0
        for _, _, W in _products(K, eye, n, guard).levels([n]):
            M = _adjoint(W) @ W
            scales = np.maximum(np.linalg.norm(M, 2, axis=(1, 2)), 1e-300)
            C = _adjoint(B) @ M @ B
            lam, V = np.linalg.eigh((C + _adjoint(C)) / 2.0)
            resids = np.max(np.abs(lam - lam.mean(axis=1, keepdims=True)), axis=1)
            failed = np.flatnonzero(resids > tol * scales)
            if failed.size:
                i = failed[0]
                for sl in _eig_clusters(lam[i], 1e-8):
                    if sl.stop - sl.start > best_rank:
                        dfs(B @ V[i][:, sl])
                return
            worst = max(worst, float(np.max(resids / scales)))
        best_rank, best_basis, best_resid = r, B, worst

    dfs(eye)
    P = best_basis @ best_basis.conj().T
    return best_rank, (P + P.conj().T) / 2.0, best_resid


def correctable_subspace(
    K: KrausFamily, n_max: int, tol: float = 1e-8, guard: int = DEFAULT_GUARD
) -> CorrectableReport:
    """Scalar-compression staircase for n = 1..n_max: one
    ``_max_scalar_subspace`` search per length, up to the first length whose
    search finds rank 1.

    Each rank is a lower bound on that length's true maximum, and a longer
    length's search can find more than a shorter one's (at D >= 3 and a
    loose tol it does).  Every 1x1 compression is exactly scalar, so rank 1
    is a lower bound at every length: each length after the first rank-1
    one gets rank 1, that length's projector and residual 0.0 without a
    search.  Any rank-1 projector is correct there; an exhaustive search
    could report another.

    Raises OutOfRange unless n_max is an integer >= 1 and tol a finite
    number >= 0, and EnumerationTooLarge when d^n_max exceeds the guard.
    """
    n_max = _check_length(n_max, "n_max")
    _check_guard(K.d, n_max, guard)
    _check_tol(tol)
    steps = []
    for n in range(1, n_max + 1):
        if not steps or steps[-1][0] > 1:  # rank 1 is a lower bound at every length
            step = _max_scalar_subspace(K, n, tol, guard)
        steps.append(step)
    return CorrectableReport(
        n_max=n_max,
        max_ranks=tuple(r for r, _, _ in steps),
        projectors=tuple(P for _, P, _ in steps),
        residuals=tuple(resid for _, _, resid in steps),
    )


def _below_one(w: DecaySeries) -> tuple[int, float] | None:
    """The first (m, w(m)) below 1 - _W_MARGIN, or None.  A rank-2 scalar
    subspace at length m, P W^dag W P = c P, forces w(m) >= sum c = 1."""
    return next(((m, v) for m, v in w.values if v < 1.0 - _W_MARGIN), None)


# The certificates, tried in the order of _CERTIFICATES.  Each maps (K, n_max,
# span, w, stair) to (status, evidence) or None, for the pair span_purity_test
# gives, w(1..min(n_max, 6)) and the staircase report stair(), formed once.
def _span_certificate(K, n_max, span, w, stair):
    if span[0] is not None:
        return "SatisfiedCertified", (
            f"length-{span[0]} products span the full operator space "
            f"(rank series {span[1]}, target {K.D**2})"
        )


def _exhaustive_staircase(K, n_max, span, w, stair):
    ranks = list(stair().max_ranks) if K.D <= 2 else []  # the search is exact at D <= 2
    if 1 in ranks:
        return "SatisfiedUpToN", (
            f"no rank-2 scalar subspace survives length {ranks.index(1) + 1} (staircase "
            f"{ranks}); non-increasing ranks extend this to all longer products"
        )


def _w_certificate(K, n_max, span, w, stair):
    below, ranks = _below_one(w), list(stair().max_ranks)
    if below and 1 in ranks:
        return "SatisfiedUpToN", (
            f"w({below[0]}) = {below[1]:.6g} < 1 rules out a rank-2 scalar "
            f"subspace at length {below[0]} and beyond (staircase {ranks})"
        )


def _invariant_witness(K, n_max, span, w, stair):
    # an invariant range(P) stays scalar at every length, so w(m) < 1 refutes it
    rank, P = stair().max_ranks[-1], stair().projectors[-1]
    comp = np.eye(K.D) - P
    if rank >= 2 and not _below_one(w) and all(
        float(np.linalg.norm(comp @ A @ P, 2)) <= _INVARIANT_TOL for A in K.ops
    ):
        return "ViolatedUpToN", (
            f"a rank-{rank} subspace stays scalar through n = {n_max} and is exactly "
            f"invariant under every Kraus operator, extending the violation to all lengths"
        )


def _undetermined(K, n_max, span, w, stair):
    ranks, below, stalled = list(stair().max_ranks), _below_one(w), f"{max(span[1])} < {K.D**2}"
    if 1 in ranks:  # so D >= 3, and w >= 1 throughout
        return "Undetermined", (
            f"span rank {stalled} by n = {n_max}; the staircase {ranks} reached rank 1, "
            f"but it is exhaustive only at D = 2, and w >= 1 through n = {len(w.values)}"
        )
    return "Undetermined", f"span rank stalled at {stalled} and the scalar staircase {ranks} " + (
        f"kept rank {ranks[-1]} through n = {n_max}, but w({below[0]}) = {below[1]:.6g} < 1 "
        "rules out a rank-2 scalar subspace, so tol admits non-scalar compressions"
        if below
        else f"neither reached 1 nor stabilized on an invariant subspace by n = {n_max}"
    )


_CERTIFICATES = (  # the last entry always answers
    _span_certificate, _exhaustive_staircase, _w_certificate, _invariant_witness, _undetermined
)


def purity_verdict(
    K: KrausFamily, n_max: int, tol: float = 1e-8, guard: int = DEFAULT_GUARD
) -> PurityVerdict:
    """The first answer of ``_CERTIFICATES``, its evidence followed by the
    fitted rate of w(1..min(n_max, 6)), and by a note that the staircase is
    vacuous when it was read at tol >= 1.

    w is read from the family's record, so after a longer ``w_series`` (as
    ``analyze`` runs) it forms no product.  The staircase runs at most once,
    and only if an entry reads it: a span pass runs none.  The guard is
    checked against d^n_max first.  Raises OutOfRange unless n_max is an
    integer >= 1 and tol a finite number >= 0.
    """
    n_max = _check_length(n_max, "n_max")
    _check_guard(K.d, n_max, guard)
    _check_tol(tol)
    span = span_purity_test(K, n_max)
    w = w_series(K, min(n_max, 6), guard=guard)
    w_rate = None if w.all_zero else w.fitted_rate
    stair = functools.cache(lambda: correctable_subspace(K, n_max, tol=tol, guard=guard))
    status, evidence = next(filter(None, (c(K, n_max, span, w, stair) for c in _CERTIFICATES)))
    if w_rate is not None:
        evidence += f"; w-series fitted rate {w_rate:.6f}"
    if tol >= 1.0 and stair.cache_info().currsize:
        # a compression of a PSD M has its eigenvalues in [0, ||M||]
        evidence += (
            f"; at tol {tol:g} >= 1 every compression passes the scalar test, "
            f"so the staircase keeps rank {K.D} at every length and shows nothing"
        )
    return PurityVerdict(
        status=status,
        evidence=evidence,
        n_max=n_max,
        span_passed_at=span[0],
        span_ranks=tuple(span[1]),
        correctable_ranks=stair().max_ranks if stair.cache_info().currsize else None,
        w_fitted_rate=w_rate,
    )


# ----------------------------------------------------------------- decay series


def _w_leaf(_: int, W: np.ndarray) -> np.ndarray:
    """nu1 nu2 of each product of a stack (k, D, D), D >= 3, by the SVD and by
    the check route: ``_nu12`` of one batched eigvalsh of the Grams W^dag W."""
    s = np.linalg.svd(W, compute_uv=False)
    return np.stack([s[:, 0] * s[:, 1], _nu12(W, np.linalg.eigvalsh(_adjoint(W) @ W))], axis=1)


def _w_pair(K: KrausFamily, n: int, guard: int) -> tuple[float, float]:
    """The tree-order sums of ``_w_leaf``'s two nu1 nu2 over the d^n bare
    products, after the length and guard checks (both 0 at D < 2).

    At D = 2, nu1 nu2 = |det W| and the determinant is multiplicative, so
    both are s^n, s = sum_x |det A_x| (``_spectra`` of the d operators,
    added by ``math.fsum``): no product is formed and nothing is
    recorded.  At D >= 3 the sums are read from the family's record
    (``_recorded``), where a missing length is walked once, and the routes
    must agree to 1e-9 max(1, svd) on every call, recorded or not.
    """
    n = _check_length(n, "string length")
    _check_guard(K.d, n, guard)
    if K.D < 2:  # a 1 x 1 product has no nu2: nothing to walk
        return 0.0, 0.0
    if K.D == 2:
        w = math.fsum(_spectra(K.ops)[1].tolist()) ** n
        return w, w
    eye = np.eye(K.D, dtype=complex)
    svd, check = (float(x) for x in _recorded(K, ("w",), eye, [n], guard, _w_leaf)[n])
    if abs(svd - check) > 1e-9 * max(1.0, svd):
        raise NumericalInconsistency(
            f"w({n}) routes disagree: svd {svd!r} vs check route {check!r}"
        )
    return svd, check


def w_series(K: KrausFamily, n_max: int, guard: int = DEFAULT_GUARD) -> DecaySeries:
    """w(n) = sum over all d^n strings of nu1 * nu2 of A_{x_n}..A_{x_1}.

    At D = 2 it is s^n in closed form (``_w_pair``), whose oracle is the
    enumeration of the tests.  At D >= 3 it is computed by two independent
    routes from the same products, which must agree to 1e-9 max(1, w(n)):
    the per-string SVD, whose values are reported, and the check route of
    ``_w_leaf``, which keeps each product's nu1 nu2 to about 1e-11
    relative, or O(eps) nu1^2 below its switch to the exterior square.  The
    submultiplicative law w(n+m) <= w(n) w(m) is checked for all pairs.

    At D >= 3 each length is one walk, recorded on the family
    (``_recorded``), so a later call walks only the lengths the record
    lacks.  The guard is checked on n_max before any walk, and both checks
    run over every returned length, recorded or not.
    """
    n_max = _check_length(n_max, "n_max")
    _check_guard(K.d, n_max, guard)
    svd_sums = [0.0] + [_w_pair(K, n, guard)[0] for n in range(1, n_max + 1)]
    for n in range(1, n_max + 1):
        for m in range(1, n_max + 1 - n):
            if svd_sums[n + m] > svd_sums[n] * svd_sums[m] + 1e-12:
                raise NumericalInconsistency(
                    f"submultiplicativity violated: w({n + m}) > w({n}) w({m})"
                )
    return DecaySeries.from_values((n, svd_sums[n]) for n in range(1, n_max + 1))


def f_series(
    K: KrausFamily, sigma: np.ndarray, F: np.ndarray, n_max: int, guard: int = DEFAULT_GUARD
) -> DecaySeries:
    """f(n) = sum over strings of nu1 * nu2 of F A_{x_n}..A_{x_1} sqrt(sigma).

    The ``f_value`` column of the scans of ``RestrictionContext(K, sigma,
    F)`` for n = 1..n_max, bit for bit, read from the family's record of
    that context's scans (``restriction._recorded``), so after
    ``restriction_scan`` of every length it forms no product.  The length,
    guard and K^2 checks run on every call.  sigma must be a D x D density
    operator (NotDensityOperator) and F^dag F <= 1 (FNotContractive), so
    f(n) <= w(n) termwise.  As in ``restriction_scan``, strings below the
    zero threshold 1e-14 d^-n K^2(n) add nothing, and K^2(n) < 1e-12 raises
    ValueError.
    """
    n_max = _check_length(n_max, "n_max")
    ctx = RestrictionContext(kraus=K, sigma=sigma, f_op=F)
    _check_guard(K.d, n_max, guard)  # before the lengths 1..n_max are listed
    if K.D < 2:  # a 1 x 1 product has no nu2: nothing to walk
        return DecaySeries.from_values((n, 0.0) for n in range(1, n_max + 1))
    scans = _scans(ctx, range(1, n_max + 1), guard)
    return DecaySeries.from_values((n, scans[n].f_value) for n in range(1, n_max + 1))


def estimate_rate(series: DecaySeries | Iterable[tuple[int, float]]) -> tuple[float, float]:
    """(fitted_rate, fekete_rate) of a decay series.

    Zero entries are dropped from the log fit; a series with no positive
    entry yields (-inf, -inf).  With a single positive point the fit is
    undefined (nan) but the Fekete bound is still reported.
    """
    series = series if isinstance(series, DecaySeries) else DecaySeries.from_values(series)
    return series.fitted_rate, series.fekete_rate


# ------------------------------------------------------ typicality constructions


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    R-diagonal phase correction conj(r_ii)/|r_ii| applied to Q's columns."""
    Z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    diag = np.diagonal(R).copy()
    diag = np.where(np.abs(diag) < 1e-300, 1.0, diag)
    return Q * (diag.conj() / np.abs(diag))[None, :]


def haar_kraus(D: int, d: int, seed: int) -> KrausFamily:
    """Kraus family from the first block column of a Haar unitary on C^(D d).

    A_x = <a_x| U |a_0>, i.e. rows x*D..(x+1)*D-1 and columns 0..D-1 of U;
    left normalization is the isometry property of that block column.
    Deterministic per seed (PCG64 seeded via SeedSequence(seed)).
    """
    D, d = _check_length(D, "D"), _check_length(d, "d")
    if D < 2 or d < 2:
        raise DimensionTooSmall(f"need D >= 2 and d >= 2, got D={D}, d={d}")
    seed = _check_length(seed, "seed", least=0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    U = _haar_unitary(D * d, rng)
    ops = np.stack([U[x * D : (x + 1) * D, 0:D] for x in range(d)])
    return KrausFamily(ops=ops)


def build_r_operator(D: int) -> np.ndarray:
    """Hermitian R with 0 <= R <= 1 overlapping every clock/shift basis element.

    Expansion over U_{jk} with all free coefficients equal to a common
    positive c: the conjugate-paired terms c (U_{n,m} + w^{nm} U_{D-n,D-m})
    are Hermitian and bounded by 2c, so with r := 2 * (sum of moduli) = 1/2
    the operator r*1 + (pairs) stays in [0, 1] while every overlap
    Tr(U_{jk}^dag R) equals D*c (or D*r on the identity) — all nonzero.
    Odd D only.
    """
    D = _check_length(D, "D")
    if D % 2 == 0:
        raise EvenDimension(f"R construction requires odd D, got {D}")
    if D < 3:
        raise DimensionTooSmall(f"R construction requires D >= 3, got {D}")
    half = (D - 1) // 2
    count = 2 * half + 2 * half * half
    c = 1.0 / (4.0 * count)  # makes r = 2 * count * c = 1/2 exactly
    basis = clock_shift_basis(D)
    omega = np.exp(2j * np.pi / D)

    def u(j: int, k: int) -> np.ndarray:
        return basis[(j % D) * D + (k % D)]

    R = 0.5 * u(0, 0).astype(complex)
    for n in range(1, half + 1):
        R = R + c * (u(n, 0) + u(D - n, 0))
        R = R + c * (u(0, n) + u(0, D - n))
        for m in range(1, D):
            R = R + c * (u(n, m) + omega ** (n * m) * u(D - n, D - m))
    R = (R + R.conj().T) / 2.0

    lam = np.linalg.eigvalsh(R)
    if lam[0] < -1e-12 or lam[-1] > 1.0 + 1e-12:
        raise NumericalInconsistency(f"R spectrum outside [0, 1]: {lam[0]}, {lam[-1]}")
    overlaps = np.array([abs(np.trace(b.conj().T @ R)) for b in basis])
    if overlaps.min() <= 1e-10:
        raise NumericalInconsistency(f"R overlap vanished: min |Tr(U^dag R)| = {overlaps.min()}")
    return R


def constructive_purity_family(D: int, d: int = 5) -> KrausFamily:
    """Explicit family certifying purity: the blocks (sqrt(R)/2, L1/2,
    sqrt(1-R)/2, L3/2, 1/2, then zeros up to d), whose column is an
    isometry C^D -> C^(D d) (the first D columns of a unitary on C^(D d)).

    The length-(2D-1) strings (3 repeated k, 1 repeated j, 0, then 4 padding)
    produce products proportional to U_{jk}^dag R U_{jk}, which span the
    operator space; ``span_purity_test`` at length 2D-1 checks this before
    returning (NumericalInconsistency if it fails).
    """
    D, d = _check_length(D, "D"), _check_length(d, "d")
    if D % 2 == 0:
        raise EvenDimension(f"constructive family requires odd D, got {D}")
    if D < 3:
        raise DimensionTooSmall(f"constructive family requires D >= 3, got {D}")
    if d < 5:
        raise DimensionTooSmall(f"constructive family requires d >= 5, got {d}")

    R = build_r_operator(D)
    basis = clock_shift_basis(D)
    eye = np.eye(D, dtype=complex)
    # basis[D] and basis[1] are the clock/shift elements U_{1,0} and U_{0,1}
    blocks = [sqrt_env(R) / 2, basis[D] / 2, sqrt_env(eye - R) / 2, basis[1] / 2, eye / 2]

    col0 = np.zeros((d * D, D), dtype=complex)
    for x, b in enumerate(blocks):
        col0[x * D : (x + 1) * D, :] = b
    if np.linalg.norm(col0.conj().T @ col0 - eye) > 1e-10:
        raise CompletionFailed("block column is not an isometry")

    fam = KrausFamily(ops=col0.reshape(d, D, D))

    passed_at, ranks = span_purity_test(fam, 2 * D - 1)
    if passed_at is None:
        raise NumericalInconsistency(
            f"length-{2 * D - 1} products do not span: rank {ranks[-1]} != {D * D}"
        )
    return fam
