"""Kraus families that several test modules build: degenerate, nearly
degenerate and dark-subspace cases that no built-in model covers."""

import numpy as np

from mpsrestrict import purity
from mpsrestrict.chain import KrausFamily, renormalize
from mpsrestrict.models import aklt_pauli
from mpsrestrict.purity import haar_kraus


def block_diagonal() -> KrausFamily:
    """kron(1_2, A_x): every projector onto C^2 (x) v compresses to a scalar."""
    return KrausFamily(ops=np.stack([np.kron(np.eye(2), A) for A in haar_kraus(2, 2, seed=3).ops]))


def near_pauli() -> KrausFamily:
    """The Pauli family moved by 1e-10: its rank-2 subspaces stay within the
    scalar tolerance with residuals near 1e-10, well above the test's 1e-12."""
    rng = np.random.default_rng(0)
    ops = aklt_pauli().ops
    return renormalize(ops + 1e-10 * (rng.standard_normal(ops.shape) + 1j * rng.standard_normal(ops.shape)))


def code_d3() -> KrausFamily:
    """span(e0, e1) is invariant and each A_x acts on it as 1/sqrt(2) times 1
    or sigma_x: a rank-2 dark subspace, so purity fails."""
    beta, r = 0.4, 1 / np.sqrt(2)
    t = np.sqrt((1 - 2 * beta**2) / 2)
    return KrausFamily.from_matrices(
        [np.array([[r, 0, beta], [0, r, 0], [0, 0, t]]), np.array([[0, r, 0], [r, 0, -beta], [0, 0, t]])]
    )


def dark_block_family(r: int, s: int, d: int, seed: int) -> KrausFamily:
    """A_x = [[sqrt(c_x) U_x, B_x], [0, C_x]] with an r x r unitary U_x and
    sum c_x = 1: the first r columns of the isometry are the scaled unitaries,
    the other s any orthonormal completion."""
    rng = np.random.default_rng(seed)
    D = r + s
    c = rng.dirichlet(np.ones(d))
    head = np.zeros((d * D, r), dtype=complex)
    for x in range(d):
        head[x * D : x * D + r] = np.sqrt(c[x]) * purity._haar_unitary(r, rng)
    Z = rng.standard_normal((d * D, s)) + 1j * rng.standard_normal((d * D, s))
    tail = np.linalg.qr(Z - head @ (head.conj().T @ Z))[0]
    return KrausFamily(ops=np.hstack([head, tail]).reshape(d, D, D))
