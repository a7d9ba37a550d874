"""Purity-condition certification and decay-series diagnostics.

A Kraus family satisfies the purity condition when no projector of rank >= 2
keeps all compressions P A^dag...A^dag A...A P proportional to P across all
product lengths.  This module provides:

* the one-sided span certificate (products spanning the operator space at
  some length certifies purity), computed by a linear recursion on the
  D^2 x D^2 operator space without forming any string product;
* a branch-and-prune search for the largest scalar-compression subspace per
  length (the correctable-subspace staircase);
* the decay series w(N) (sum over strings of the two largest singular values
  of the bare products, computed by two independent routes) and f(N) (same
  for the environment-dressed products F A..A sqrt(sigma));
* the typicality constructions: Haar-random families, the full-overlap
  operator R on odd dimensions, and the explicit five-block family whose
  length-(2D-1) products certifiably span.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

import numpy as np

from .chain import KrausFamily, sqrt_env
from .errors import (
    CompletionFailed,
    DimensionTooSmall,
    EnumerationTooLarge,
    EvenDimension,
    NumericalInconsistency,
    OutOfRange,
    SearchBudgetExceeded,
)
from .linalg import _psd_rank, clock_shift_basis, exterior_square, gram_rank
from .restriction import (
    _CHUNK_STRINGS,
    DEFAULT_GUARD,
    _adjoint,
    _check_contraction,
    _check_density,
    _check_guard,
    _products,
    _string_product,
    _string_sum,
    _string_table,
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


@dataclass(frozen=True)
class CorrectableReport:
    """Largest scalar-compression subspace found per product length.

    ``max_ranks[k]`` is the found maximal rank at length n = k+1 (a certified
    lower bound on the true maximum; the eigenspace-refinement search is exact
    on eigenspace-aligned families).  Ranks are non-increasing in n.
    """

    n_max: int
    max_ranks: tuple[int, ...]
    projectors: tuple[np.ndarray, ...]
    residuals: tuple[float, ...]

    def __post_init__(self) -> None:
        r = self.max_ranks
        if any(r[i + 1] > r[i] for i in range(len(r) - 1)):
            raise NumericalInconsistency(f"correctable ranks increased: {r}")


@dataclass(frozen=True)
class DecaySeries:
    """(n, value) pairs with fitted and Fekete rate estimates.

    ``fitted_rate`` is the least-squares slope of ln v against n over the
    strictly positive entries; ``fekete_rate`` is min_n ln v(n) / n, an upper
    bound on the asymptotic rate for submultiplicative series.  A series with
    no positive entry carries rate -inf and the ``all_zero`` flag.
    """

    values: tuple[tuple[int, float], ...]
    fitted_rate: float
    fekete_rate: float
    all_zero: bool

    @classmethod
    def from_values(cls, pairs: Iterable[tuple[int, float]]) -> "DecaySeries":
        vals = tuple((int(n), float(v)) for n, v in pairs)
        fitted, fekete = estimate_rate(vals)
        all_zero = all(v <= 0.0 for _, v in vals)
        return cls(values=vals, fitted_rate=fitted, fekete_rate=fekete, all_zero=all_zero)

    def value_at(self, n: int) -> float:
        for m, v in self.values:
            if m == n:
                return v
        raise KeyError(f"no entry for n = {n}")


@dataclass(frozen=True)
class PurityVerdict:
    """Outcome of the two implemented certificates plus decay evidence.

    SatisfiedCertified: products span the operator space at some length
    (sufficient condition; failure refutes nothing).
    SatisfiedUpToN: the scalar-subspace staircase reached rank 1 — no rank-2
    subspace survives, and the staircase is non-increasing.
    ViolatedUpToN: a rank >= 2 subspace survived through n_max *and* is
    exactly invariant under every A_x, which extends the violation to all N.
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
    if n < 1:
        raise EnumerationTooLarge(f"product length must be >= 1, got {n}")
    tree = _products(K.ops, np.eye(K.D, dtype=complex), n, guard)
    return list(_string_table(tree, lambda W: _adjoint(W) @ W))


def span_purity_test(
    K: KrausFamily, n_max: int, tol: float = 1e-10
) -> tuple[int | None, list[int]]:
    """Span ranks of the product sets for n = 1..n_max, without enumeration.

    Returns (passed_at, rank_series): passed_at is the least n at which the
    d^n products M_s = A_s^dag A_s span the full D^2-dimensional operator
    space (then purity is certified), or None.  The rank at length n is that
    of S_n = sum_s vec(M_s) vec(M_s)^dag, which shares the Gram matrix's
    nonzero spectrum.  Since M_{x.s} = A_x^dag M_s A_x, and with row-major
    vec, vec(A^dag M A) = T_x vec(M) for T_x = kron(A_x^dag, A_x^T), it
    follows the recursion S_{n+1} = sum_x T_x S_n T_x^dag from S_1.  So no
    string product is formed: the cost is O(n d D^6) time and O(d D^4)
    memory at any length, and no enumeration guard applies.
    """
    if n_max < 1:
        raise EnumerationTooLarge(f"n_max must be >= 1, got {n_max}")
    D = K.D
    V = (_adjoint(K.ops) @ K.ops).reshape(K.d, D * D)
    S = V.T @ V.conj()
    T = np.stack([np.kron(_adjoint(A), A.T) for A in K.ops])
    ranks = [_psd_rank(S, tol)]
    for _ in range(1, n_max):
        # one batched matmul per step: O(d D^6), where a plain einsum is O(d D^8)
        S = (T @ S @ _adjoint(T)).sum(axis=0)
        # Tr S_n can decay geometrically until it underflows at long lengths;
        # scaling by a power of two is exact, so the ranks are those of S_n
        S *= 2.0 ** -np.frexp(np.trace(S).real)[1]
        ranks.append(_psd_rank(S, tol))
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
    K: KrausFamily, n: int, tol: float, budget: int, guard: int
) -> tuple[int, np.ndarray, float]:
    """Depth-first eigenspace refinement for the largest scalar subspace.

    Starts from the full space; whenever a compression B^dag M B of a
    length-n product M fails the scalar test (residual > tol * ||M||),
    branches over its eigenvalue clusters intersected with the current
    subspace, pruning branches that cannot beat the best rank found.  Each
    node streams the products chunk by chunk, with one batched norm,
    compression and eigh per chunk, and branches on the first failing
    product in lexicographic order, so at most one chunk is held.  The
    engine leaves out exact-zero products, which pass the test with residual
    0, so the first failing product is the same.  Returns (rank, projector,
    residual).
    """
    eye = np.eye(K.D, dtype=complex)
    best_rank = 0
    best_basis: np.ndarray | None = None
    best_resid = 0.0
    nodes = 0

    def dfs(B: np.ndarray) -> None:
        nonlocal best_rank, best_basis, best_resid, nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"subspace search exceeded {budget} nodes")
        r = B.shape[1]
        if r <= best_rank:
            return
        worst = 0.0
        for _, _, W in _products(K.ops, eye, n, guard):
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
        best_rank = r
        best_basis = B
        best_resid = worst

    dfs(eye)
    if best_basis is None:  # cannot happen: rank-1 subspaces are always scalar
        raise NumericalInconsistency("subspace search found nothing")
    P = best_basis @ best_basis.conj().T
    return best_rank, (P + P.conj().T) / 2.0, best_resid


def _check_tol(tol: float) -> None:
    # NaN or inf would pass every scalar test, and a negative tol none
    if not 0.0 <= tol < float("inf"):
        raise OutOfRange(f"tol must be a finite number >= 0, got {tol!r}")


def correctable_subspace(
    K: KrausFamily,
    n_max: int,
    tol: float = 1e-8,
    guard: int = DEFAULT_GUARD,
    budget: int = 200_000,
) -> CorrectableReport:
    """Scalar-compression staircase for n = 1..n_max.

    Every node of each length's search streams the d^n products chunk by
    chunk from the enumeration engine, so the product set is never held.
    Raises OutOfRange unless tol is a finite number >= 0.
    """
    _check_tol(tol)
    steps = [_max_scalar_subspace(K, n, tol, budget, guard) for n in range(1, n_max + 1)]
    return CorrectableReport(
        n_max=int(n_max),
        max_ranks=tuple(r for r, _, _ in steps),
        projectors=tuple(P for _, P, _ in steps),
        residuals=tuple(resid for _, _, resid in steps),
    )


def _range_invariant(K: KrausFamily, P: np.ndarray, tol: float = 1e-12) -> bool:
    """True when every A_x maps range(P) into itself within tol."""
    D = K.D
    comp = np.eye(D) - P
    return all(float(np.linalg.norm(comp @ A @ P, 2)) <= tol for A in K.ops)


def purity_verdict(
    K: KrausFamily,
    n_max: int,
    tol: float = 1e-8,
    guard: int = DEFAULT_GUARD,
    w: DecaySeries | None = None,
) -> PurityVerdict:
    """Combine the span certificate, the staircase, and decay evidence.

    The decay evidence is the fitted rate of w(1..min(n_max, 6)).  A caller
    that already holds ``w_series(K, m)`` for some m >= min(n_max, 6) may pass
    it as ``w``: its first entries hold the same values, so the verdict is the
    same and the strings are not enumerated again.  The span certificate
    enumerates nothing; the guard bounds the w series and the staircase and
    is checked against d^n_max first, whichever of them runs.  Raises
    OutOfRange unless tol is a finite number >= 0.
    """
    _check_guard(K.d, n_max, guard)
    _check_tol(tol)
    span_passed_at, span_ranks = span_purity_test(K, n_max)
    m = min(n_max, 6)
    if w is None:
        w = w_series(K, m, guard=guard)
    elif [n for n, _ in w.values[:m]] != list(range(1, m + 1)):
        raise ValueError(f"w must cover n = 1..{m}, got n = {[n for n, _ in w.values]}")
    else:
        w = DecaySeries.from_values(w.values[:m])
    w_rate = None if w.all_zero else w.fitted_rate

    if span_passed_at is not None:
        status = "SatisfiedCertified"
        corr_ranks = None
        evidence = (
            f"length-{span_passed_at} products span the full operator space "
            f"(rank series {span_ranks}, target {K.D**2})"
        )
    else:
        report = correctable_subspace(K, n_max, tol=tol, guard=guard)
        corr_ranks = report.max_ranks
        if 1 in report.max_ranks:
            first = report.max_ranks.index(1) + 1
            status = "SatisfiedUpToN"
            evidence = (
                f"no rank-2 scalar subspace survives length {first} "
                f"(staircase {list(report.max_ranks)}); non-increasing ranks "
                f"extend this to all longer products"
            )
        elif report.max_ranks[-1] >= 2 and _range_invariant(K, report.projectors[-1]):
            status = "ViolatedUpToN"
            evidence = (
                f"a rank-{report.max_ranks[-1]} subspace stays scalar through "
                f"n = {n_max} and is exactly invariant under every Kraus "
                f"operator, extending the violation to all lengths"
            )
        else:
            status = "Undetermined"
            evidence = (
                f"span rank stalled at {max(span_ranks)} < {K.D**2} and the "
                f"scalar staircase {list(report.max_ranks)} neither reached 1 "
                f"nor stabilized on an invariant subspace by n = {n_max}"
            )
    if w_rate is not None:
        evidence += f"; w-series fitted rate {w_rate:.6f}"
    return PurityVerdict(
        status=status,
        evidence=evidence,
        n_max=int(n_max),
        span_passed_at=span_passed_at,
        span_ranks=tuple(span_ranks),
        correctable_ranks=corr_ranks,
        w_fitted_rate=w_rate,
    )


# ----------------------------------------------------------------- decay series


def w_series(K: KrausFamily, n_max: int, guard: int = DEFAULT_GUARD) -> DecaySeries:
    """w(n) = sum over all d^n strings of nu1 * nu2 of A_{x_n}..A_{x_1}.

    Computed by two independent routes from the same products — per-string
    SVD, and the spectral norm of the product's exterior square (its matrix
    of 2x2 minors) — which must agree to 1e-9; the submultiplicative law
    w(n+m) <= w(n) w(m) is checked for all pairs.  The reported values are
    the SVD route's.  The exterior squares of a chunk are formed in slices
    of at most max(1, _CHUNK_STRINGS D^2 // C(D,2)^2) products, so no slice
    takes more memory than a chunk of D x D products.
    """
    if n_max < 1:
        raise EnumerationTooLarge(f"n_max must be >= 1, got {n_max}")
    levels = [_products(K.ops, np.eye(K.D, dtype=complex), n, guard) for n in range(1, n_max + 1)]
    if K.D < 2:
        values = [(n, 0.0) for n in range(1, n_max + 1)]
        return DecaySeries.from_values(values)

    per_slice = max(1, _CHUNK_STRINGS * K.D**2 // comb(K.D, 2) ** 2)

    def leaf(W: np.ndarray) -> np.ndarray:
        s = np.linalg.svd(W, compute_uv=False)
        wedge_norms = np.zeros(len(W))
        for i in range(0, len(W), per_slice):
            wedges = exterior_square(W[i : i + per_slice])
            wedge_norms[i : i + per_slice] = np.linalg.svd(wedges, compute_uv=False)[:, 0]
        return np.stack([s[:, 0] * s[:, 1], wedge_norms], axis=1)

    svd_sums = np.zeros(n_max + 1)
    wedge_sums = np.zeros(n_max + 1)
    for n, tree in enumerate(levels, start=1):
        svd_sums[n], wedge_sums[n] = _string_sum(tree, leaf)

    for n in range(1, n_max + 1):
        diff = abs(svd_sums[n] - wedge_sums[n])
        if diff > 1e-9 * max(1.0, svd_sums[n]):
            raise NumericalInconsistency(
                f"w({n}) routes disagree: svd {svd_sums[n]!r} vs exterior "
                f"square {wedge_sums[n]!r}"
            )
    for n in range(1, n_max + 1):
        for m in range(1, n_max + 1 - n):
            if svd_sums[n + m] > svd_sums[n] * svd_sums[m] + 1e-12:
                raise NumericalInconsistency(
                    f"submultiplicativity violated: w({n + m}) > w({n}) w({m})"
                )
    return DecaySeries.from_values((n, svd_sums[n]) for n in range(1, n_max + 1))


def f_series(
    K: KrausFamily,
    sigma: np.ndarray,
    F: np.ndarray,
    n_max: int,
    guard: int = DEFAULT_GUARD,
) -> DecaySeries:
    """f(n) = sum over strings of nu1 * nu2 of F A_{x_n}..A_{x_1} sqrt(sigma).

    Requires sigma to be a density operator and F^dag F <= 1; then
    f(n) <= w(n) termwise (the dressing contracts both singular values).
    """
    if n_max < 1:
        raise EnumerationTooLarge(f"n_max must be >= 1, got {n_max}")
    sigma = _check_density(sigma)
    F = _check_contraction(F)
    root = sqrt_env(sigma)
    levels = [_products(K.ops, root, n, guard) for n in range(1, n_max + 1)]

    def leaf(P: np.ndarray) -> np.ndarray:
        s = np.linalg.svd(F @ P, compute_uv=False)
        return s[:, 0] * s[:, 1] if K.D > 1 else np.zeros(len(P))

    return DecaySeries.from_values(
        (n, float(_string_sum(tree, leaf))) for n, tree in enumerate(levels, start=1)
    )


def estimate_rate(series: DecaySeries | Iterable[tuple[int, float]]) -> tuple[float, float]:
    """(fitted_rate, fekete_rate) of a decay series.

    Zero entries are dropped from the log fit; a series with no positive
    entry yields (-inf, -inf).  With a single positive point the fit is
    undefined (nan) but the Fekete bound is still reported.
    """
    pairs = series.values if isinstance(series, DecaySeries) else tuple(series)
    pos = [(int(n), float(v)) for n, v in pairs if v > 0.0]
    if not pos:
        return float("-inf"), float("-inf")
    ns = np.array([n for n, _ in pos], dtype=float)
    logs = np.log([v for _, v in pos])
    fekete = float(np.min(logs / ns))
    if len(pos) < 2:
        return float("nan"), fekete
    slope = float(np.polyfit(ns, logs, 1)[0])
    return slope, fekete


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
    if D < 2 or d < 2:
        raise DimensionTooSmall(f"need D >= 2 and d >= 2, got D={D}, d={d}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
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
    D = int(D)
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
    """Explicit family certifying purity: blocks (sqrt(R)/2, L1/2,
    sqrt(1-R)/2, L3/2, 1/2) completed to a unitary on C^(D d).

    The length-(2D-1) strings (3 repeated k, 1 repeated j, 0, then 4 padding)
    produce products proportional to U_{jk}^dag R U_{jk}, whose Gram matrix
    has full rank D^2 — verified before returning.
    """
    D = int(D)
    if D % 2 == 0:
        raise EvenDimension(f"constructive family requires odd D, got {D}")
    if D < 3:
        raise DimensionTooSmall(f"constructive family requires D >= 3, got {D}")
    if d < 5:
        raise DimensionTooSmall(f"constructive family requires d >= 5, got {d}")

    R = build_r_operator(D)
    basis = clock_shift_basis(D)
    lam1 = basis[1 * D + 0]
    lam3 = basis[0 * D + 1]
    eye = np.eye(D, dtype=complex)
    blocks = [sqrt_env(R) / 2, lam1 / 2, sqrt_env(eye - R) / 2, lam3 / 2, eye / 2]

    col0 = np.zeros((d * D, D), dtype=complex)
    for x, b in enumerate(blocks):
        col0[x * D : (x + 1) * D, :] = b
    if np.linalg.norm(col0.conj().T @ col0 - eye) > 1e-10:
        raise CompletionFailed("block column is not an isometry")

    # Gram-Schmidt completion over the canonical basis, deterministic order.
    cols = [col0[:, i] for i in range(D)]
    dim = d * D
    for i in range(dim):
        if len(cols) == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        for _ in range(2):  # two passes for numerical orthogonality
            for q in cols:
                v = v - q * (q.conj() @ v)
        nrm = np.linalg.norm(v)
        if nrm > 1e-7:
            cols.append(v / nrm)
    if len(cols) != dim:
        raise CompletionFailed(f"completion found only {len(cols)} of {dim} columns")
    U = np.stack(cols, axis=1)
    if np.linalg.norm(U.conj().T @ U - np.eye(dim)) > 1e-10:
        raise CompletionFailed("completed matrix is not unitary within 1e-10")

    fam = KrausFamily(ops=np.stack([U[x * D : (x + 1) * D, 0:D] for x in range(d)]))

    # Witness products: strings (3 x k, 1 x j, 0, 4-padding) of length 2D-1
    # give W proportional to sqrt(R) U_{jk}, so W^dag W ~ U_{jk}^dag R U_{jk}.
    witnesses = []
    for j in range(D):
        for k in range(D):
            string = [3] * k + [1] * j + [0] + [4] * (2 * D - 2 - j - k)
            W = _string_product(fam.ops, np.eye(D, dtype=complex), string)
            witnesses.append(W.conj().T @ W)
    if gram_rank(witnesses) != D * D:
        raise NumericalInconsistency(
            f"witness products do not span: rank {gram_rank(witnesses)} != {D * D}"
        )
    return fam
