"""Built-in Kraus families used throughout the tests and the CLI."""

from __future__ import annotations

import numpy as np

from .chain import KrausFamily
from .errors import InvalidDistribution, OutOfRange
from .linalg import _check_length, _check_square, _check_tol

__all__ = [
    "aklt",
    "aklt_pauli",
    "jordan",
    "markov",
    "clock",
    "damping",
    "BUILTINS",
]


def aklt() -> KrausFamily:
    """Spin-1 valence-bond chain in its canonical left-normalized form.

    A_0 = -diag(1, -1)/sqrt(3), A_+ = sqrt(2/3) |1><0|, A_- = -sqrt(2/3) |0><1|,
    with symbol order (0, +, -).  The transfer fixed point is 1/2, the
    spectral gap 2/3, and the all-zeros string has probability 3^-N.
    """
    s3 = 1.0 / np.sqrt(3.0)
    s23 = np.sqrt(2.0 / 3.0)
    a0 = -s3 * np.diag([1.0, -1.0]).astype(complex)
    ap = np.zeros((2, 2), dtype=complex)
    ap[1, 0] = s23
    am = np.zeros((2, 2), dtype=complex)
    am[0, 1] = -s23
    return KrausFamily(ops=np.stack([a0, ap, am]))


def aklt_pauli() -> KrausFamily:
    """The Pauli variant (sx, sy, sz)/sqrt(3): every string is unitary up to
    the factor 3^-N/2, so outcome entropies are flat at ln 2."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    s3 = 1.0 / np.sqrt(3.0)
    return KrausFamily(ops=np.stack([s3 * sx, s3 * sy, s3 * sz]))


def jordan(dim: int = 4) -> KrausFamily:
    """Shift block plus a corner projector on bond dimension dim + 1.

    A_0 = sum_k |k+1><k| (k = 0..dim-1) and A_1 = |dim><dim|.  Nontrivial
    products retain rank dim + 1 - n until the chain collapses, producing
    the staircase of correctable-subspace ranks dim, dim-1, ..., 1.
    """
    dim = _check_length(dim, "dim")
    D = dim + 1
    a0 = np.zeros((D, D), dtype=complex)
    for k in range(dim):
        a0[k + 1, k] = 1.0
    a1 = np.zeros((D, D), dtype=complex)
    a1[dim, dim] = 1.0
    return KrausFamily(ops=np.stack([a0, a1]))


def markov(p: np.ndarray | list | None = None) -> KrausFamily:
    """Classical Markov chain embedded as rank-one Kraus operators.

    A_(i,j) = sqrt(P(j|i)) |j><i| with the pair (i, j) at flat index i*D + j.
    String probabilities reproduce the (stationary) path measure; all
    two-step products have rank <= 1, so w vanishes identically.
    """
    if p is None:
        p = [[0.8, 0.2], [0.3, 0.7]]
    P = _check_square(np.asarray(p, dtype=float), "transition matrix", InvalidDistribution).real
    if np.any(P < 0.0):
        raise InvalidDistribution("transition probabilities must be non-negative")
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-10:
        raise InvalidDistribution("transition matrix rows must sum to 1")
    D = P.shape[0]
    ops = np.zeros((D * D, D, D), dtype=complex)
    for i in range(D):
        for j in range(D):
            ops[i * D + j, j, i] = np.sqrt(P[i, j])
    return KrausFamily(ops=ops)


def clock(dim: int = 3) -> KrausFamily:
    """Fourier-phased shift family on D = dim with d = D^2 symbols.

    A_(i,j) = D^-1 sum_k e^(2 pi i k j / D) |k><(k + i) mod D|, flat index
    i*D + j.  Its transfer operator is the replacement channel onto 1/D and
    every length-N product is proportional to a unitary, so M_N = 1/D along
    every path and w(N) = 1 for all N.
    """
    D = _check_length(dim, "dim", least=2)
    ops = np.zeros((D * D, D, D), dtype=complex)
    for i in range(D):
        for j in range(D):
            A = np.zeros((D, D), dtype=complex)
            for k in range(D):
                A[k, (k + i) % D] = np.exp(2j * np.pi * k * j / D) / D
            ops[i * D + j] = A
    return KrausFamily(ops=ops)


def damping(gamma: float = 0.5) -> KrausFamily:
    """Amplitude damping: A_0 = diag(1, sqrt(1-gamma)), A_1 = sqrt(gamma)|0><1|.

    The transfer fixed point |0><0| is rank-deficient (non-primitive family);
    the dressed decay series falls off like (1 - gamma)^(N/2).
    """
    g = _check_tol(gamma, "gamma")
    if g > 1.0:
        raise OutOfRange(f"gamma must lie in [0, 1], got {g}")
    a0 = np.diag([1.0, np.sqrt(1.0 - g)]).astype(complex)
    a1 = np.zeros((2, 2), dtype=complex)
    a1[0, 1] = np.sqrt(g)
    return KrausFamily(ops=np.stack([a0, a1]))


BUILTINS = {
    "aklt": aklt,
    "aklt-pauli": aklt_pauli,
    "jordan": jordan,
    "markov": markov,
    "clock": clock,
    "damping": damping,
}
