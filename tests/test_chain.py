import numpy as np
import pytest

import oracle
from families import block_diagonal, code_d3, dark_block_family, near_pauli
from mpsrestrict.chain import (
    BoundaryPair,
    ChainGeometry,
    KrausFamily,
    fixed_point,
    left_environment,
    normalization_k2,
    renormalize,
    right_environment,
    sqrt_env,
    transfer_adjoint_apply,
    transfer_apply,
    transfer_matrix,
)
from mpsrestrict.cli import main
from mpsrestrict.errors import (
    NonConvergent,
    NotLeftNormalized,
    NotPSD,
    OutOfRange,
    ShapeMismatch,
)
from mpsrestrict.models import BUILTINS, aklt, aklt_pauli, clock, damping, jordan, markov
from mpsrestrict.purity import haar_kraus


def test_kraus_family_accepts_normalized():
    K = aklt()
    assert K.d == 3 and K.D == 2
    with pytest.raises(ValueError):
        K.ops[0][0, 0] = 5.0  # frozen


def test_kraus_family_rejects_with_residual():
    bad = np.stack([np.eye(2, dtype=complex), 0.1 * np.eye(2, dtype=complex)])
    with pytest.raises(NotLeftNormalized) as exc:
        KrausFamily(ops=bad)
    assert exc.value.residual > 0.0
    assert "sum A^dag A - I" in str(exc.value)


def test_kraus_family_shape_checks():
    with pytest.raises(ShapeMismatch):
        KrausFamily(ops=np.zeros((2, 2, 3)))
    with pytest.raises(ShapeMismatch):
        KrausFamily(ops=np.full((1, 2, 2), np.nan))
    with pytest.raises(ShapeMismatch, match="d >= 1"):
        KrausFamily(ops=np.zeros((0, 2, 2)))


def test_boundary_pair_requires_unit_norm():
    v = np.array([1.0, 0.0])
    BoundaryPair(L=v, R=v)
    with pytest.raises(ValueError):
        BoundaryPair(L=2 * v, R=v)
    with pytest.raises(ShapeMismatch):
        BoundaryPair(L=v, R=np.array([1.0, 0.0, 0.0]))


def test_chain_geometry_validation():
    g = ChainGeometry(len_a=0, len_b=3, len_c=2)
    assert g.total == 5
    with pytest.raises(ValueError):
        ChainGeometry(len_a=-1, len_b=1, len_c=0)
    with pytest.raises(ValueError):
        ChainGeometry(len_a=1, len_b=0, len_c=1)


def test_transfer_apply_matches_matricization():
    K = aklt()
    rng = np.random.default_rng(1)
    chi = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    T = transfer_matrix(K)
    direct = transfer_apply(K, chi)
    via_matrix = (T @ chi.reshape(-1, order="F")).reshape(2, 2, order="F")
    assert np.linalg.norm(direct - via_matrix) < 1e-12


def test_transfer_trace_preserving_and_adjoint_unital():
    for K in (aklt(), markov(), clock(3), jordan(3)):
        rng = np.random.default_rng(0)
        chi = rng.standard_normal((K.D, K.D)) + 1j * rng.standard_normal((K.D, K.D))
        assert np.trace(transfer_apply(K, chi)) == pytest.approx(np.trace(chi), abs=1e-10)
        eye = np.eye(K.D)
        assert np.linalg.norm(transfer_adjoint_apply(K, eye) - eye) < 1e-10


def test_transfer_adjoint_is_adjoint():
    K = aklt_pauli()
    rng = np.random.default_rng(5)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    Y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs = np.trace(Y.conj().T @ transfer_apply(K, X))
    rhs = np.trace(transfer_adjoint_apply(K, Y).conj().T @ X)
    assert abs(lhs - rhs) < 1e-10


def test_fixed_point_aklt():
    fp = fixed_point(aklt())
    assert np.allclose(fp.rho, np.eye(2) / 2, atol=1e-10)
    assert fp.gap == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert fp.primitive


def test_fixed_point_transfer_spectrum_aklt():
    vals = np.sort_complex(np.linalg.eigvals(transfer_matrix(aklt())))
    assert np.allclose(vals, [-1 / 3, -1 / 3, -1 / 3, 1.0], atol=1e-10)


def test_fixed_point_damping_not_primitive():
    fp = fixed_point(damping(0.5))
    assert np.allclose(fp.rho, np.diag([1.0, 0.0]), atol=1e-10)
    assert not fp.primitive


# an eigensolver that fails one check of fixed_point, and that check's words
_BROKEN_EIG = {
    # no eigenvalue within 1e-8 of 1
    "no-fixed-eigenvalue": (lambda vals, vecs: (vals / 2.0, vecs), "no transfer eigenvalue"),
    # the fixed eigenvector moved off the fixed space, so E(rho) != rho
    "wrong-fixed-vector": (lambda vals, vecs: (vals, vecs + 0.1), "exceeds 1e-9"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_EIG))
def test_a_failed_fixed_point_is_non_convergent(case, monkeypatch, tmp_path):
    """Each check of ``fixed_point`` raises NonConvergent on an eigensolver
    that fails it, and ``analyze`` exits with 4, the code of an internal
    failure."""
    broken, match = _BROKEN_EIG[case]
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda T: broken(*eig(T)))
    with pytest.raises(NonConvergent, match=match):
        fixed_point(aklt())
    out = tmp_path / "report.json"
    assert main(["analyze", "--builtin", "aklt", "--nmax", "2", "--out", str(out)]) == 4
    assert not out.exists()


def test_fixed_point_clock_replacement():
    K = clock(3)
    fp = fixed_point(K)
    assert np.allclose(fp.rho, np.eye(3) / 3, atol=1e-12)
    assert fp.primitive
    # replacement channel: E(chi) = tr(chi) * 1/D for any input
    rng = np.random.default_rng(2)
    chi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.linalg.norm(transfer_apply(K, chi) - np.trace(chi) * np.eye(3) / 3) < 1e-12


def test_fixed_point_degenerate_unitary_family():
    """A single unitary has a D^2-fold fixed space; the returned rho must
    still be an exact fixed point and reduce to 1/D."""
    U = np.array([[0, 1], [1, 0]], dtype=complex)
    K = KrausFamily(ops=U[None, :, :])
    fp = fixed_point(K)
    assert np.allclose(fp.rho, np.eye(2) / 2, atol=1e-10)
    assert not fp.primitive
    assert np.linalg.norm(transfer_apply(K, fp.rho) - fp.rho) < 1e-12


def _fixed_point_families() -> list[KrausFamily]:
    """The built-ins, Haar draws at D in {2, 3, 4, 6} and d in {2, 3, 5}, and
    families with degenerate, nearly degenerate or dark fixed spaces."""
    families = [factory() for factory in BUILTINS.values()]
    families += [haar_kraus(D, d, seed) for D in (2, 3, 4, 6) for d in (2, 3, 5) for seed in range(3)]
    families += [block_diagonal(), near_pauli(), code_d3(), KrausFamily(ops=np.array([[[0, 1], [1, 0]]]))]
    dark = [(2, 1, 2, 0), (3, 2, 3, 1), (2, 2, 3, 2)]
    return families + [dark_block_family(r, s, d, seed) for r, s, d, seed in dark]


def test_the_projection_of_one_over_d_has_real_trace_at_least_one_over_d():
    """fixed_point takes rho from the Hermitian part of X, the least-squares
    projection of 1/D onto the fixed eigenspace.  That span is closed under
    adjoints and holds the state, so tr X = D ||X||_F^2 >= 1/D is real, and
    the Hermitian part alone carries the trace."""
    for K in _fixed_point_families():
        D = K.D
        vals, vecs = np.linalg.eig(transfer_matrix(K))
        fixed = vecs[:, np.abs(vals - 1.0) <= 1e-8]
        coef, *_ = np.linalg.lstsq(fixed, np.eye(D, dtype=complex).reshape(-1) / D, rcond=None)
        trace = np.trace((fixed @ coef).reshape(D, D, order="F"))
        assert abs(trace.imag) <= 1e-12 and trace.real >= 1.0 / D - 1e-12, (D, trace)


def test_environments_iterate_channel():
    K = aklt()
    L = np.array([1.0, 0.0])
    sig1 = left_environment(K, L, 1)
    assert np.allclose(sig1, transfer_apply(K, np.outer(L, L.conj())), atol=1e-12)
    assert np.trace(left_environment(K, L, 50)).real == pytest.approx(1.0, abs=1e-12)
    # adjoint route is contractive from a rank-one seed
    F2 = right_environment(K, L, 3)
    assert np.linalg.eigvalsh(F2)[-1] <= 1.0 + 1e-12
    with pytest.raises(OutOfRange):
        left_environment(K, L, 10_001)
    with pytest.raises(OutOfRange):
        left_environment(K, L, -1)


_ONE_LOOP_FAMILIES = {"aklt": aklt, "damping": lambda: damping(0.5), "haar-D3-d3": lambda: haar_kraus(3, 3, 1)}


@pytest.mark.parametrize("family", _ONE_LOOP_FAMILIES)
def test_environments_are_a_plain_transfer_loop_bit_for_bit(family):
    """Both environments come from the one loop of the transfer map, which
    makes the same calls in the same order as a plain loop."""
    K = _ONE_LOOP_FAMILIES[family]()
    rng = np.random.default_rng(3)
    v = rng.standard_normal(K.D) + 1j * rng.standard_normal(K.D)
    v /= np.linalg.norm(v)
    P = np.outer(v, v.conj())
    for n in (0, 1, 2, 7, 40):
        assert np.array_equal(left_environment(K, v, n), oracle.powers(transfer_apply, K, P, n))
        assert np.array_equal(right_environment(K, v, n), oracle.powers(transfer_adjoint_apply, K, P, n))


@pytest.mark.parametrize("n", [10_001, 200_000, 10**7, 10**100])
def test_every_environment_length_above_the_cap_fails_before_a_step(n, monkeypatch):
    """One bound, checked before the first step: the message names the
    caller's own length, and no transfer map is applied."""
    from mpsrestrict import chain

    monkeypatch.setattr(chain, "transfer_apply", lambda *a: pytest.fail("stepped"))
    monkeypatch.setattr(chain, "transfer_adjoint_apply", lambda *a: pytest.fail("stepped"))
    K, v = aklt(), np.array([1.0, 0.0])
    with pytest.raises(OutOfRange, match="left environment length"):
        left_environment(K, v, n)
    with pytest.raises(OutOfRange, match="right environment length"):
        right_environment(K, v, n)
    with pytest.raises(OutOfRange):
        normalization_k2(K, BoundaryPair(L=v, R=v), n)


def test_the_cap_is_ten_thousand_steps():
    K, v = damping(0.5), np.array([0.0, 1.0])
    assert np.trace(left_environment(K, v, 10_000)).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(right_environment(K, v, 10_000))[-1] <= 1.0 + 1e-12


def test_sqrt_env():
    M = np.array([[2.0, 0.0], [0.0, 0.5]])
    S = sqrt_env(M)
    assert np.allclose(S @ S, M, atol=1e-12)
    with pytest.raises(NotPSD):
        sqrt_env(np.diag([1.0, -0.5]))
    with pytest.raises(NotPSD):
        sqrt_env(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_normalization_k2():
    K = aklt()
    v = np.array([1.0, 0.0])
    # zero sites: bare overlap |<R|L>|^2
    assert normalization_k2(K, BoundaryPair(L=v, R=v), 0) == pytest.approx(1.0, abs=1e-12)
    w = np.array([0.0, 1.0])
    assert normalization_k2(K, BoundaryPair(L=v, R=w), 0) == pytest.approx(0.0, abs=1e-12)
    geom = ChainGeometry(len_a=1, len_b=2, len_c=1)
    k2 = normalization_k2(K, BoundaryPair(L=v, R=v), geom)
    assert 0.0 <= k2 <= 1.0
    # long chains approach <R| rho |R> = 1/2
    assert normalization_k2(K, BoundaryPair(L=v, R=v), 60) == pytest.approx(0.5, abs=1e-10)


def test_renormalize_repairs_and_rejects():
    rng = np.random.default_rng(9)
    raw = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    K = renormalize(raw)
    gram = sum(A.conj().T @ A for A in K.ops)
    assert np.linalg.norm(gram - np.eye(2)) < 1e-10
    with pytest.raises(NotPSD):
        renormalize([np.zeros((2, 2))])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_boundary_pair_rejects_non_finite_entries(bad):
    """A NaN entry gives a NaN norm, which the unit-norm comparison lets pass."""
    v = np.array([1.0, 0.0])
    w = np.array([bad, 0.0])
    with pytest.raises(ValueError, match="boundary vector L"):
        BoundaryPair(L=w, R=v)
    with pytest.raises(ValueError, match="boundary vector R"):
        BoundaryPair(L=v, R=np.array([0.0, complex(0.0, bad)]))
