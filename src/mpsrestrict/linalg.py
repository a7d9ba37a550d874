"""Dense complex linear algebra and entropic functionals.

Conventions used throughout the package:

* all entropies are in nats (natural logarithm);
* spectra are reported sorted non-increasing;
* the antisymmetric (exterior-square) subspace is spanned by
  (|i>|j> - |j>|i>)/sqrt(2) for i < j, pairs ordered lexicographically.

The input contract: ``_check_length`` and ``_check_tol`` judge lengths and
tolerances, and a matrix passes ``_as_matrix`` (finite, 2-d), ``_check_square``
(and square, D x D when D is known), ``_check_hermitian`` (and Hermitian within
1e-8 max(||M||, 1)) or ``_check_density`` (and trace 1, spectrum >= -1e-10).
Each raises the error its caller documents, so one rule judges every matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Sequence

import numpy as np

from .errors import (
    DimensionTooSmall,
    InvalidDistribution,
    NonHermitian,
    NonSquare,
    NotDensityOperator,
    OutOfRange,
    ShapeMismatch,
)

__all__ = [
    "Spectrum",
    "herm_eigen",
    "singular_values",
    "von_neumann_entropy",
    "shannon_entropy",
    "binary_entropy",
    "g_func",
    "exterior_square",
    "clock_shift_basis",
    "gram_matrix",
    "gram_rank",
]

_RANK_TOL = 1e-10  # ranks count the eigenvalues above this times lambda_max


@dataclass(frozen=True)
class Spectrum:
    """Real values sorted non-increasing, with optional orthonormal vectors.

    ``values[i]`` pairs with column ``vectors[:, i]`` when vectors are present.
    Only the sorted values are contractual; eigenvector phases and the basis
    chosen inside degenerate clusters are solver-dependent.
    """

    values: np.ndarray
    vectors: np.ndarray | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ShapeMismatch("spectrum values must be a flat vector")
        if np.any(np.diff(v) > 1e-12):
            raise ShapeMismatch("spectrum values must be sorted non-increasing")
        object.__setattr__(self, "values", v)


def _integral(n: Any) -> bool:
    """Whether n is an integral number; NaN, inf, None, strings and booleans
    (which int() would read as 0 and 1) are not."""
    if isinstance(n, (bool, np.bool_)):
        return False
    try:
        return bool(int(n) == n)
    except (TypeError, ValueError, OverflowError):
        return False


def _check_length(n: Any, what: str, least: int = 1) -> int:
    """n as an int if it is an integral number >= least, else OutOfRange."""
    if not (_integral(n) and n >= least):
        raise OutOfRange(f"{what} must be an integer >= {least}, got {n!r}")
    return int(n)


def _check_tol(tol: Any, what: str = "tol") -> float:
    """tol as a float if it is a finite real number >= 0 (not a bool), else OutOfRange."""
    # NaN or inf would pass every comparison against it, a negative one none
    real = isinstance(tol, (int, float, np.integer, np.floating)) and not isinstance(tol, bool)
    if not (real and 0.0 <= tol < float("inf")):
        raise OutOfRange(f"{what} must be a finite number >= 0, got {tol!r}")
    return float(tol)


def _as_matrix(M: Any, what: str = "matrix", error: type = ShapeMismatch) -> np.ndarray:
    """M as a complex array, unchanged, if it is a finite non-empty 2-d array, else error."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise error(f"{what} must be a non-empty 2-d array, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise error(f"{what} contains NaN or Inf")
    return M


def _check_square(M: Any, what: str, error: type, size: int | None = None) -> np.ndarray:
    """M as by ``_as_matrix`` if it is square (size x size when a size is given)."""
    M = _as_matrix(M, what, error)
    if M.shape[0] != M.shape[1] or (size is not None and M.shape[0] != size):
        shape = "square" if size is None else f"{size}x{size}"
        raise error(f"{what} must be {shape}, got shape {M.shape}")
    return M


def _check_hermitian(M: Any, what: str, error: type, size: int | None = None) -> np.ndarray:
    """M as by ``_check_square``, if also ||M - M^dag|| <= 1e-8 max(||M||, 1)."""
    M = _check_square(M, what, error, size)
    if np.linalg.norm(M - M.conj().T) > 1e-8 * max(np.linalg.norm(M), 1.0):
        raise error(f"{what} must be Hermitian")
    return M


def _check_density(rho: np.ndarray, what: str, size: int | None = None) -> np.ndarray:
    """rho as by ``_check_hermitian`` if of trace 1 within 1e-8 and spectrum >= -1e-10."""
    rho = _check_hermitian(rho, what, NotDensityOperator, size)
    tr = complex(np.trace(rho)).real
    if abs(tr - 1.0) > 1e-8:
        raise NotDensityOperator(f"{what} has trace {tr!r}, expected 1")
    lam = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if lam[0] < -1e-10:
        raise NotDensityOperator(f"{what} has negative eigenvalue {lam[0]:.3e}")
    return rho


def herm_eigen(H: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    H is judged by the shared contract: ShapeMismatch unless it is a finite
    2-d array, NonSquare unless square, and NonHermitian unless ||H - H^dag||
    <= 1e-8 max(||H||, 1), the rule every Hermitian argument meets.  The
    decomposition is that of the Hermitian part (H + H^dag) / 2: the
    eigenvalues are real and sorted non-increasing, and ``V diag(w) V^dag``
    matches (H + H^dag) / 2 to 1e-10 * ||H|| (LAPACK guarantee).
    """
    H = _check_hermitian(_check_square(_as_matrix(H), "H", NonSquare), "H", NonHermitian)
    w, v = np.linalg.eigh((H + H.conj().T) / 2.0)
    return Spectrum(values=w[::-1].copy(), vectors=v[:, ::-1].copy())


def singular_values(O: np.ndarray) -> Spectrum:
    """Singular values nu_1 >= nu_2 >= ... of a rectangular matrix.

    Satisfies nu_j(O)^2 = lambda_j(O^dag O).
    """
    O = _as_matrix(O)
    return Spectrum(values=np.linalg.svd(O, compute_uv=False))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -sum lambda ln lambda in nats, with 0 ln 0 := 0.

    Eigenvalues in [-1e-10, 0) are clamped to 0 (eigensolver noise on
    rank-deficient inputs); anything more negative, a trace off 1 by more
    than 1e-8, or an input that is not finite, square and Hermitian raises
    NotDensityOperator.
    """
    rho = _check_density(rho, "density operator")
    lam = np.clip(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0), 0.0, 1.0)
    return float(-_plogp_sums(lam)[1])


def _plogp_sums(p: np.ndarray) -> tuple[float, float]:
    """(sum p, sum p ln p) over the entries p > 0 of a flat float vector, in
    order, each as one numpy sum: the ``p ln p`` of ``shannon_entropy``,
    ``von_neumann_entropy`` and ``restriction``'s streamed window entropies.

    InvalidDistribution unless p is non-empty and finite with no entry below
    -1e-10.  Beside p it holds one temporary of p's size (and a subset of
    p's positive entries only when some entry is not positive)."""
    if p.size == 0 or not np.all(np.isfinite(p)):
        raise InvalidDistribution("weights must be a non-empty finite vector")
    least = np.min(p)
    if least < -1e-10:
        raise InvalidDistribution(f"negative weight {least:.3e}")
    pos = p[p > 0.0] if least <= 0.0 else p
    terms = np.log(pos)  # then pos ln pos, in the log's own buffer
    terms *= pos
    return np.sum(pos), np.sum(terms)


def shannon_entropy(p: np.ndarray | Sequence[float]) -> float:
    """H(p) = -sum p ln p in nats, with 0 ln 0 := 0 (``_plogp_sums``), for
    weights that sum to 1 within 1e-10."""
    p = np.asarray(p, dtype=float).ravel()
    plogp = _plogp_sums(p)[1]
    if abs(p.sum() - 1.0) > 1e-10:
        raise InvalidDistribution(f"weights sum to {float(p.sum())!r}, not 1")
    return float(-plogp)


def binary_entropy(t: float) -> float:
    """H_B(t) = -t ln t - (1-t) ln(1-t), with H_B(0) = H_B(1) = 0."""
    t = _check_tol(t, "t")
    if t > 1.0:
        raise OutOfRange(f"binary_entropy needs t in [0, 1], got {t!r}")
    out = 0.0
    if 0.0 < t:
        out -= t * np.log(t)
    if t < 1.0:
        out -= (1.0 - t) * np.log(1.0 - t)
    return float(out)


def g_func(t: float) -> float:
    """g(t) = t - t ln t with g(0) = 0; monotone increasing on [0, 1].

    Dominates the binary entropy: H_B(t) <= g(t) on [0, 1].
    """
    t = _check_tol(t, "t")
    if t > 1.0:
        raise OutOfRange(f"g_func needs t in [0, 1], got {t!r}")
    if t == 0.0:
        return 0.0
    return float(t - t * np.log(t))


def exterior_square(O: np.ndarray) -> np.ndarray:
    """Second exterior power of O on the antisymmetric subspaces.

    For O mapping a D1-dimensional space into a D2-dimensional one, returns
    the C(D2,2) x C(D1,2) matrix of 2x2 minors

        W[(a,b), (i,j)] = O[a,i] O[b,j] - O[a,j] O[b,i],

    with row pairs a<b and column pairs i<j in lexicographic order — i.e. the
    compression of O (x) O to the antisymmetric subspaces in the basis
    (|i>|j> - |j>|i>)/sqrt(2).  Its operator norm is nu_1(O) * nu_2(O), and
    it is multiplicative: ext(O_B O_A) = ext(O_B) ext(O_A).  A stack of
    matrices (k, D2, D1) gives the stack of their exterior squares.
    """
    O = _as_matrix(O) if np.ndim(O) != 3 else np.asarray(O, dtype=complex)
    d2, d1 = O.shape[-2:]
    if d1 < 2 or d2 < 2:
        raise DimensionTooSmall(f"exterior square needs both dims >= 2, got {O.shape}")
    rows = np.array(list(combinations(range(d2), 2)))
    cols = np.array(list(combinations(range(d1), 2)))
    a = rows[:, 0][:, None]
    b = rows[:, 1][:, None]
    i = cols[:, 0][None, :]
    j = cols[:, 1][None, :]
    return O[..., a, i] * O[..., b, j] - O[..., a, j] * O[..., b, i]


def clock_shift_basis(D: int) -> list[np.ndarray]:
    """Unitary operator basis U_{jk} = Lambda_1^j Lambda_3^k, j,k = 0..D-1.

    Lambda_1 is the cyclic shift |n> -> |n+1 mod D|, Lambda_3 the clock
    diag(1, w, ..., w^(D-1)) with w = exp(i 2 pi / D).  The list is indexed
    flat as j*D + k.  Satisfies Tr(U_{jk}^dag U_{j'k'}) = D delta delta and the
    exchange relation U_{j'k'} U_{jk} = w^(k'j - j'k) U_{jk} U_{j'k'}.
    """
    D = _check_length(D, "D")
    if D < 2:
        raise DimensionTooSmall(f"clock/shift basis needs D >= 2, got {D}")
    omega = np.exp(2j * np.pi / D)
    shift = np.zeros((D, D), dtype=complex)
    for n in range(D):
        shift[(n + 1) % D, n] = 1.0
    clock = np.diag(omega ** np.arange(D))
    basis: list[np.ndarray] = []
    for j in range(D):
        sj = np.linalg.matrix_power(shift, j)
        for k in range(D):
            basis.append(sj @ np.linalg.matrix_power(clock, k))
    return basis


def _vec_rows(ops: Sequence[np.ndarray], caller: str) -> np.ndarray:
    """The operators' vectorizations as the rows of one matrix."""
    if len(ops) == 0:
        raise ShapeMismatch(f"{caller} needs at least one operator")
    mats = [_as_matrix(o) for o in ops]
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise ShapeMismatch(f"mixed shapes {shape} vs {m.shape}")
    return np.stack([m.ravel() for m in mats])


def _psd_rank(S: np.ndarray) -> int:
    """Number of eigenvalues of a PSD matrix above _RANK_TOL * lambda_max."""
    lam = np.linalg.eigvalsh(S)
    lam_max = lam[-1] if lam.size else 0.0
    if lam_max <= 0.0:
        return 0
    return int(np.count_nonzero(lam > _RANK_TOL * lam_max))


def gram_matrix(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Gram matrix M[x, x'] = Tr(Q_x^dag Q_x') of a list of equal-shape matrices."""
    V = _vec_rows(ops, "gram_matrix")
    return V.conj() @ V.T


def gram_rank(ops: Sequence[np.ndarray]) -> int:
    """Rank of the Gram matrix: eigenvalues above 1e-10 * lambda_max.

    Computed from S = V^T conj(V), with the vectorized operators as the rows
    of V: S shares the Gram matrix's nonzero spectrum (same lambda_max, same
    count above the threshold) but stays (D1*D2)-dimensional however many
    operators there are.
    """
    V = _vec_rows(ops, "gram_rank")
    return _psd_rank(V.T @ V.conj())
