import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsrestrict.errors import (
    DimensionTooSmall,
    InvalidDistribution,
    NonHermitian,
    NonSquare,
    NotDensityOperator,
    NotPSD,
    OutOfRange,
    ShapeMismatch,
)
from mpsrestrict.chain import sqrt_env
from mpsrestrict.linalg import (
    Spectrum,
    binary_entropy,
    clock_shift_basis,
    exterior_square,
    g_func,
    gram_matrix,
    gram_rank,
    herm_eigen,
    shannon_entropy,
    singular_values,
    von_neumann_entropy,
)


def test_herm_eigen_descending_and_reconstructs():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = X + X.conj().T
    spec = herm_eigen(H)
    assert all(spec.values[i] >= spec.values[i + 1] for i in range(3))
    rebuilt = (spec.vectors * spec.values) @ spec.vectors.conj().T
    assert np.linalg.norm(rebuilt - H) < 1e-10


def test_herm_eigen_rejects_bad_input():
    with pytest.raises(NonSquare):
        herm_eigen(np.ones((2, 3)))
    with pytest.raises(NonHermitian):
        herm_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_one_hermitian_rule_for_herm_eigen_and_sqrt_env():
    """[[1, 1e-9], [0, 1]] is Hermitian within 1e-8 max(||M||, 1): both entry
    points accept it and decompose its Hermitian part; [[1, 1e-7], [0, 1]]
    is not, and both refuse it with their own error."""
    M = np.array([[1.0, 1e-9], [0.0, 1.0]])
    part = (M + M.T) / 2.0
    spec = herm_eigen(M)
    rebuilt = (spec.vectors * spec.values) @ spec.vectors.conj().T
    assert np.linalg.norm(rebuilt - part) < 1e-10 * np.linalg.norm(M)
    assert spec.values == pytest.approx([1.0 + 5e-10, 1.0 - 5e-10], rel=0.0, abs=1e-15)
    root = sqrt_env(M)
    assert np.linalg.norm(root @ root - part) < 1e-10
    M[0, 1] = 1e-7
    with pytest.raises(NonHermitian):
        herm_eigen(M)
    with pytest.raises(NotPSD):
        sqrt_env(M)


def test_singular_values_known():
    O = np.array([[3.0, 0.0], [0.0, -2.0]])
    assert np.allclose(singular_values(O).values, [3.0, 2.0])


def test_spectrum_requires_descending_order():
    with pytest.raises(ShapeMismatch):
        Spectrum(values=np.array([0.1, 0.9]))


def test_spectrum_values_must_be_a_flat_vector():
    with pytest.raises(ShapeMismatch, match="flat vector"):
        Spectrum(values=np.zeros((2, 2)))


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(np.log(2), abs=1e-12)
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(NotDensityOperator):
        von_neumann_entropy(np.diag([0.5, 0.6]))
    with pytest.raises(NotDensityOperator):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_shannon_entropy_handles_zeros():
    assert shannon_entropy(np.array([0.5, 0.5, 0.0])) == pytest.approx(np.log(2), abs=1e-12)
    with pytest.raises(InvalidDistribution):
        shannon_entropy(np.array([0.7, 0.7]))
    with pytest.raises(InvalidDistribution):
        shannon_entropy(np.array([1.2, -0.2]))


def _entropy_reference(p: np.ndarray) -> float:
    pos = p[p > 0.0]
    return float(-np.sum(pos * np.log(pos)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=600),
    st.floats(0.0, 0.9),
    st.integers(0, 2**32 - 1),
)
def test_shannon_entropy_is_the_masked_sum_bit_for_bit(weights, zero_frac, seed):
    """With or without zeros (and the clipped -1e-10 ones), the entropy has
    the bits of the masked product summed as before."""
    p = np.array(weights)
    p[np.random.default_rng(seed).random(p.size) < zero_frac] = 0.0
    if p.sum() == 0.0:
        p[0] = 1.0
    p /= p.sum()
    assert shannon_entropy(p) == _entropy_reference(p)
    q = p.copy()
    q[q == 0.0] = -1e-11
    q /= q.sum()
    assert shannon_entropy(q) == _entropy_reference(q)
    assert np.array_equal(shannon_entropy(p.reshape(1, -1)), _entropy_reference(p))


@pytest.mark.parametrize("D, rank", [(2, 1), (3, 3), (4, 2), (6, 6)])
def test_von_neumann_entropy_is_the_masked_sum_bit_for_bit(D, rank):
    """Full rank or not, the entropy has the bits of the masked product of
    the clipped spectrum, summed as before."""
    rng = np.random.default_rng([D, rank])
    X = rng.standard_normal((D, rank)) + 1j * rng.standard_normal((D, rank))
    rho = X @ X.conj().T
    rho /= np.trace(rho).real
    lam = np.clip(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0), 0.0, 1.0)
    assert von_neumann_entropy(rho) == _entropy_reference(lam)


@pytest.mark.parametrize(
    "p, message",
    [
        ([0.5, np.nan, 0.5], "^weights must be a non-empty finite vector$"),
        ([0.5, np.inf], "^weights must be a non-empty finite vector$"),
        ([], "^weights must be a non-empty finite vector$"),
        ([1.2, -0.2], "^negative weight -2.000e-01$"),
        ([0.7, 0.7], r"^weights sum to 1\.4, not 1$"),
        ([0.5, 0.5 + 2e-10], r"^weights sum to 1\.0000000002, not 1$"),
    ],
)
def test_shannon_entropy_rejects_bad_weights_as_before(p, message):
    with pytest.raises(InvalidDistribution, match=message):
        shannon_entropy(np.array(p, dtype=float))


def test_binary_entropy_and_g():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(np.log(2), abs=1e-12)
    assert g_func(0.0) == 0.0
    assert g_func(1.0) == pytest.approx(1.0, abs=1e-12)
    for fn in (binary_entropy, g_func):
        with pytest.raises(OutOfRange):
            fn(-0.01)
        with pytest.raises(OutOfRange):
            fn(1.01)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_bounds(t):
    """H_B(t) sits between the quadratic lower and g upper bound."""
    hb = binary_entropy(t)
    assert hb <= g_func(t) + 1e-12
    assert hb >= 4.0 * np.log(2.0) * t * (1.0 - t) - 1e-12


def _wedge_oracle(O):
    """Antisymmetric-subspace compression of O (x) O, explicit basis."""
    D = O.shape[0]
    pairs = list(itertools.combinations(range(D), 2))
    basis = np.zeros((D * D, len(pairs)), dtype=complex)
    for col, (i, j) in enumerate(pairs):
        v = np.zeros((D, D), dtype=complex)
        v[i, j] = 1.0 / np.sqrt(2.0)
        v[j, i] = -1.0 / np.sqrt(2.0)
        basis[:, col] = v.ravel()
    OO = np.kron(O, O)
    return basis.conj().T @ OO @ basis


@pytest.mark.parametrize("D", [2, 3, 4])
def test_exterior_square_matches_antisymmetric_projection(D):
    rng = np.random.default_rng(D)
    O = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    W = exterior_square(O)
    expected = _wedge_oracle(O)
    assert W.shape == expected.shape
    assert np.linalg.norm(W - expected) < 1e-10


def test_exterior_square_norm_is_two_largest_singulars():
    rng = np.random.default_rng(7)
    O = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    sv = np.linalg.svd(O, compute_uv=False)
    assert np.linalg.norm(exterior_square(O), 2) == pytest.approx(sv[0] * sv[1], rel=1e-12)


def test_exterior_square_rejects_scalars():
    with pytest.raises(DimensionTooSmall):
        exterior_square(np.ones((1, 1)))


@pytest.mark.parametrize("D", [2, 3, 5])
def test_clock_shift_basis_orthogonality(D):
    basis = clock_shift_basis(D)
    assert len(basis) == D * D
    for a, U in enumerate(basis):
        assert np.allclose(U.conj().T @ U, np.eye(D), atol=1e-12)
        for b, V in enumerate(basis):
            tr = np.trace(U.conj().T @ V)
            assert abs(tr - (D if a == b else 0.0)) < 1e-10


def test_clock_shift_adjoint_relation():
    """U_{jk}^dag = w^{jk} U_{D-j, D-k} with w = exp(2 pi i / D)."""
    D = 5
    basis = clock_shift_basis(D)
    omega = np.exp(2j * np.pi / D)
    for j in range(D):
        for k in range(D):
            lhs = basis[j * D + k].conj().T
            rhs = omega ** (j * k) * basis[((D - j) % D) * D + ((D - k) % D)]
            assert np.linalg.norm(lhs - rhs) < 1e-10


def test_gram_matrix_and_rank():
    P0 = np.diag([1.0, 0.0]).astype(complex)
    P1 = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    G = gram_matrix([P0, P1, eye])
    assert G.shape == (3, 3)
    assert np.allclose(G, [[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert gram_rank([P0, P1, eye]) == 2
    assert gram_rank([P0, P1, np.array([[0, 1], [0, 0]], dtype=complex)]) == 3
    with pytest.raises(ShapeMismatch):
        gram_matrix([P0, np.eye(3)])
    for gram in (gram_matrix, gram_rank):
        with pytest.raises(ShapeMismatch, match="at least one operator"):
            gram([])


def test_clock_shift_basis_needs_two_dimensions():
    with pytest.raises(DimensionTooSmall):
        clock_shift_basis(1)


def test_gram_rank_of_zero_operators_is_zero():
    assert gram_rank([np.zeros((2, 3), dtype=complex)] * 3) == 0


def test_gram_rank_large_set_uses_accumulator_route():
    """Both rank routes (Gram eigenvalues vs accumulated outer products)
    agree; force the second by exceeding the crossover set size."""
    rng = np.random.default_rng(3)
    ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(70)]
    few = ops[:6]
    assert gram_rank(ops) == 4
    assert gram_rank(few) == 4


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_wedge_multiplicativity(D, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    B = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    lhs = exterior_square(A @ B)
    rhs = exterior_square(A) @ exterior_square(B)
    assert np.linalg.norm(lhs - rhs) < 1e-8 * max(1.0, np.linalg.norm(rhs))
