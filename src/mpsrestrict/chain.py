"""Kraus families, boundary data, transfer-operator spectra and environments.

A translationally invariant chain is specified by a left-normalized Kraus
family {A_x} (sum_x A_x^dag A_x = 1), a pair of unit boundary vectors |L>,
|R>, and a geometry (lenA, lenB, lenC).  The transfer operator is the
trace-preserving map E(chi) = sum_x A_x chi A_x^dag with unital adjoint
E*(Q) = sum_x A_x^dag Q A_x (ShapeMismatch on a mis-sized or non-finite input).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    NonConvergent,
    NotLeftNormalized,
    NotPSD,
    OutOfRange,
    ShapeMismatch,
)
from .linalg import _check_hermitian, _check_length, _check_square, _check_tol

__all__ = [
    "KrausFamily",
    "BoundaryPair",
    "ChainGeometry",
    "TransferFixedPoint",
    "transfer_apply",
    "transfer_adjoint_apply",
    "transfer_matrix",
    "fixed_point",
    "left_environment",
    "right_environment",
    "sqrt_env",
    "normalization_k2",
    "renormalize",
]

# Environments are computed by iterated channel application; this caps the
# iteration count (cost O(n d D^3)) rather than forming D^2 x D^2 powers.
_MAX_ENV_ITER = 10_000
_FULL_RANK_TOL = 1e-10  # a fixed point has full rank if lambda_min(rho) exceeds this
_PSD_TOL = 1e-10  # most negative eigenvalue sqrt_env clamps to zero


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex, copy=True)
    a.setflags(write=False)
    return a


def _normalization_residual(ops: np.ndarray) -> float:
    """Frobenius norm of sum_x A_x^dag A_x - 1 for a (d, D, D) stack."""
    gram = np.einsum("xba,xbc->ac", ops.conj(), ops)
    return float(np.linalg.norm(gram - np.eye(ops.shape[1])))


@dataclass(frozen=True)
class KrausFamily:
    """Ordered family {A_x}, x = 0..d-1, of D x D complex matrices.

    Left normalization sum_x A_x^dag A_x = 1 is validated at construction
    (tolerance ``atol``, finite and >= 0) and never silently repaired; use
    :func:`renormalize` explicitly for non-normalized raw matrices.
    """

    ops: np.ndarray  # shape (d, D, D)
    atol: float = 1e-10

    def __post_init__(self) -> None:
        ops = np.asarray(self.ops, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ShapeMismatch(f"expected (d, D, D) Kraus stack, got {ops.shape}")
        if ops.shape[0] < 1 or ops.shape[1] < 1:
            raise ShapeMismatch("need d >= 1 Kraus operators of dimension D >= 1")
        if not np.all(np.isfinite(ops)):
            raise ShapeMismatch("Kraus operators contain NaN or Inf")
        _check_tol(self.atol, "atol")
        residual = _normalization_residual(ops)
        if residual > self.atol:
            raise NotLeftNormalized(residual, self.atol)
        object.__setattr__(self, "ops", _freeze(ops))

    @property
    def d(self) -> int:
        return int(self.ops.shape[0])

    @property
    def D(self) -> int:
        return int(self.ops.shape[1])

    @cached_property
    def _singular(self) -> bool:
        """Whether some A_x is rank-deficient at the tolerance of
        np.linalg.matrix_rank.  Only such an operator can turn a non-zero
        product into zero, so the product engine looks for zero products
        only then; computed once per family."""
        nu = np.linalg.svd(self.ops, compute_uv=False)
        return bool(np.any(nu[:, -1] <= nu[:, 0] * self.D * np.finfo(float).eps))

    @cached_property
    def _w_sums(self) -> dict[int, tuple[float, float]]:
        """Per length n, the two tree-order sums of nu1 nu2 over the d^n
        bare products: the SVD sum that ``purity.w_series`` reports and the
        ``_check_norms`` sum that ``trajectories.purification_statistic``
        returns.  ``purity._w_pair``, through which both read a length, is
        the one writer: it walks a length missing here once and records it,
        and checks the routes on every call.  The ops are frozen, so the
        sums are a fixed function of the family; only scalars are kept."""
        return {}

    @cached_property
    def _fixed_point(self) -> TransferFixedPoint:
        """The transfer fixed point, computed once per family: the
        stationary context's sigma, the stationary test of
        ``restriction._absorb_windows`` and the report's fixed-point block
        all read it here.  The public ``fixed_point`` recomputes it."""
        return fixed_point(self)

    @classmethod
    def from_matrices(
        cls, matrices: Sequence[np.ndarray], atol: float = 1e-10
    ) -> "KrausFamily":
        return cls(ops=np.stack([np.asarray(m, dtype=complex) for m in matrices]), atol=atol)


@dataclass(frozen=True)
class BoundaryPair:
    """Finite unit boundary vectors |L>, |R> of length D (norm checked to
    1e-12; OutOfRange otherwise)."""

    L: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        L = np.asarray(self.L, dtype=complex).ravel()
        R = np.asarray(self.R, dtype=complex).ravel()
        if L.shape != R.shape:
            raise ShapeMismatch(f"boundary lengths differ: {L.shape} vs {R.shape}")
        for name, v in (("L", L), ("R", R)):
            # a NaN norm would pass the comparison below
            if not np.all(np.isfinite(v)):
                raise OutOfRange(f"boundary vector {name} contains NaN or Inf")
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise OutOfRange(
                    f"boundary vector {name} has norm {np.linalg.norm(v)!r}, expected 1"
                )
        object.__setattr__(self, "L", _freeze(L))
        object.__setattr__(self, "R", _freeze(R))


@dataclass(frozen=True)
class ChainGeometry:
    """Integer site counts (lenA, lenB, lenC) with lenA, lenC >= 0, lenB >= 1."""

    len_a: int
    len_b: int
    len_c: int

    def __post_init__(self) -> None:
        for name, least in (("len_a", 0), ("len_b", 1), ("len_c", 0)):
            object.__setattr__(self, name, _check_length(getattr(self, name), name, least))

    @property
    def total(self) -> int:
        return self.len_a + self.len_b + self.len_c


@dataclass(frozen=True)
class TransferFixedPoint:
    """Stationary state of the transfer operator with spectral diagnostics.

    ``gap`` is 1 minus the modulus of the second-largest transfer eigenvalue;
    ``primitive`` is True iff the eigenvalue-1 space is one-dimensional, no
    other eigenvalue sits on the unit circle, and rho has full rank.
    """

    rho: np.ndarray
    gap: float
    primitive: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _freeze(self.rho))


def transfer_apply(K: KrausFamily, chi: np.ndarray) -> np.ndarray:
    """E(chi) = sum_x A_x chi A_x^dag (trace preserving) of a finite D x D chi."""
    chi = _check_square(chi, "chi", ShapeMismatch, K.D)
    return np.einsum("xab,bc,xdc->ad", K.ops, chi, K.ops.conj())


def transfer_adjoint_apply(K: KrausFamily, Q: np.ndarray) -> np.ndarray:
    """E*(Q) = sum_x A_x^dag Q A_x (unital) of a finite D x D Q."""
    Q = _check_square(Q, "Q", ShapeMismatch, K.D)
    return np.einsum("xba,bc,xcd->ad", K.ops.conj(), Q, K.ops)


def transfer_matrix(K: KrausFamily) -> np.ndarray:
    """D^2 x D^2 matricization T with vec(E(chi)) = T vec(chi).

    Column-stacking convention: T = sum_x conj(A_x) (x) A_x.
    """
    D = K.D
    T = np.zeros((D * D, D * D), dtype=complex)
    for A in K.ops:
        T += np.kron(A.conj(), A)
    return T


def _unvec(v: np.ndarray, D: int) -> np.ndarray:
    # column-stacking: vec(X) concatenates the columns of X
    return v.reshape(D, D, order="F")


def fixed_point(K: KrausFamily) -> TransferFixedPoint:
    """Stationary state, spectral gap and primitivity of the transfer operator.

    The eigenvalue-1 multiplicity is counted within 1e-8 of 1.  For a unique
    fixed direction, rho is that eigenvector Hermitized and normalized; for a
    degenerate fixed space, rho is the least-squares projection of 1/D onto
    the fixed eigenspace (still an exact fixed point, and basis-independent),
    with ``primitive`` False.  Full rank is decided by lambda_min(rho) > 1e-10.
    """
    D = K.D
    T = transfer_matrix(K)
    vals, vecs = np.linalg.eig(T)

    near_one = np.abs(vals - 1.0) <= 1e-8
    mult = int(np.count_nonzero(near_one))
    if mult == 0:
        raise NonConvergent(
            f"no transfer eigenvalue within 1e-8 of 1 (closest: "
            f"{vals[np.argmin(np.abs(vals - 1.0))]!r})"
        )

    # rho from the fixed eigenspace: project vec(1/D) onto it (least squares).
    Vfix = vecs[:, near_one]
    target = np.eye(D, dtype=complex).reshape(-1, order="F") / D
    coef, *_ = np.linalg.lstsq(Vfix, target, rcond=None)
    X = _unvec(Vfix @ coef, D)

    # The fixed eigenspace is closed under adjoints and holds the state, so X
    # is Hermitian up to rounding and tr X = D ||X||_F^2 >= 1/D: its
    # Hermitian part is a fixed point whose positive part has trace >= 1/D.
    lam, U = np.linalg.eigh((X + X.conj().T) / 2.0)
    lam = np.clip(lam, 0.0, None)
    rho = (U * (lam / float(lam.sum()))) @ U.conj().T
    rho = (rho + rho.conj().T) / 2.0

    resid = np.linalg.norm(transfer_apply(K, rho) - rho)
    if resid > 1e-9:
        raise NonConvergent(f"||E(rho) - rho|| = {resid:.3e} exceeds 1e-9")

    moduli = np.sort(np.abs(vals))[::-1]
    second = float(moduli[1]) if moduli.size > 1 else 0.0
    gap = 1.0 - second
    lam_min = float(np.linalg.eigvalsh(rho)[0])
    primitive = mult == 1 and second < 1.0 - 1e-8 and lam_min > _FULL_RANK_TOL
    return TransferFixedPoint(rho=rho, gap=gap, primitive=primitive)


def _iterate(K: KrausFamily, M: np.ndarray, n: int, adjoint: bool) -> np.ndarray:
    n = _check_length(n, "iteration count", least=0)
    if n > _MAX_ENV_ITER:
        raise OutOfRange(f"n = {n} exceeds the environment iteration cap {_MAX_ENV_ITER}")
    out = np.asarray(M, dtype=complex)
    step = transfer_adjoint_apply if adjoint else transfer_apply
    for _ in range(n):
        out = step(K, out)
    return out


def _projector(K: KrausFamily, v: np.ndarray, what: str) -> np.ndarray:
    """|v><v| for a finite vector v of length D, else ShapeMismatch."""
    v = np.asarray(v, dtype=complex).ravel()
    if v.shape != (K.D,) or not np.all(np.isfinite(v)):
        raise ShapeMismatch(f"{what} must be a finite vector of length {K.D}, got {v}")
    return np.outer(v, v.conj())


def left_environment(K: KrausFamily, L: np.ndarray, n: int) -> np.ndarray:
    """sigma = E^n(|L><L|), the environment after n traced-out sites, of a finite L."""
    return _iterate(K, _projector(K, L, "L"), n, adjoint=False)


def right_environment(K: KrausFamily, R: np.ndarray, n: int) -> np.ndarray:
    """F^dag F = E*^n(|R><R|) of a finite R; contractive as E* is unital, |R><R| <= 1."""
    return _iterate(K, _projector(K, R, "R"), n, adjoint=True)


def sqrt_env(M: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix (Hermitian, PSD, S @ S = M).
    M must be finite, square and Hermitian within 1e-8 max(||M||, 1) (NotPSD
    otherwise); eigenvalues in [-1e-10, 0) are clamped to 0."""
    M = _check_hermitian(M, "matrix", NotPSD)
    lam, U = np.linalg.eigh((M + M.conj().T) / 2.0)
    if lam[0] < -_PSD_TOL:
        raise NotPSD(f"negative eigenvalue {lam[0]:.3e} beyond -{_PSD_TOL:.1e}")
    S = (U * np.sqrt(np.clip(lam, 0.0, None))) @ U.conj().T
    return (S + S.conj().T) / 2.0


def normalization_k2(
    K: KrausFamily,
    boundaries: BoundaryPair,
    geometry: ChainGeometry | int,
) -> float:
    """K^2 = <R| E^{|Lambda|}(|L><L|) |R>, real and in [0, 1].

    ``geometry`` may be a ChainGeometry (|Lambda| = total) or a plain site
    count; the count 0 gives the bare overlap |<R|L>|^2.
    """
    n = geometry.total if isinstance(geometry, ChainGeometry) else geometry
    sig = left_environment(K, boundaries.L, n)
    val = complex(boundaries.R.conj() @ sig @ boundaries.R)
    return float(min(max(val.real, 0.0), 1.0))


def renormalize(matrices: Sequence[np.ndarray], atol: float = 1e-10) -> KrausFamily:
    """Explicit repair helper: B_x = A_x S^(-1/2) with S = sum A^dag A.

    Never applied implicitly anywhere in the package; S must be full rank.
    """
    ops = np.stack([np.asarray(m, dtype=complex) for m in matrices])
    S = np.einsum("xba,xbc->ac", ops.conj(), ops)
    lam, U = np.linalg.eigh((S + S.conj().T) / 2.0)
    if lam[0] <= 1e-12:
        raise NotPSD(f"sum A^dag A is singular (lambda_min = {lam[0]:.3e})")
    S_inv_half = (U * (1.0 / np.sqrt(lam))) @ U.conj().T
    return KrausFamily(ops=np.einsum("xab,bc->xac", ops, S_inv_half), atol=atol)
