import itertools

import numpy as np
import pytest

from mpsrestrict.chain import KrausFamily
from mpsrestrict.errors import (
    CompletionFailed,
    DimensionTooSmall,
    EnumerationTooLarge,
    EvenDimension,
    NumericalInconsistency,
    SearchBudgetExceeded,
)
from mpsrestrict.linalg import clock_shift_basis, gram_rank
from mpsrestrict.models import aklt, aklt_pauli, clock, damping, jordan, markov
from mpsrestrict.purity import (
    DecaySeries,
    build_r_operator,
    constructive_purity_family,
    correctable_subspace,
    estimate_rate,
    f_series,
    haar_kraus,
    product_set,
    purity_verdict,
    span_purity_test,
    w_series,
)


def _w_brute(K, n):
    """Independent oracle: enumerate strings, SVD each bare product."""
    tot = 0.0
    for xs in itertools.product(range(K.d), repeat=n):
        W = np.eye(K.D, dtype=complex)
        for s in xs:
            W = K.ops[s] @ W
        sv = np.linalg.svd(W, compute_uv=False)
        tot += float(sv[0] * sv[1]) if sv.size > 1 else 0.0
    return tot


def test_product_set_is_povm():
    for K in (aklt(), jordan(2), markov()):
        for n in (1, 2):
            prods = product_set(K, n)
            assert len(prods) == K.d**n
            total = sum(prods)
            assert np.linalg.norm(total - np.eye(K.D)) < 1e-10


def test_product_set_frozen_aklt_length_one():
    prods = product_set(aklt(), 1)
    assert np.allclose(prods[0], np.eye(2) / 3.0, atol=1e-12)
    assert np.allclose(prods[1], np.diag([2.0 / 3.0, 0.0]), atol=1e-12)
    assert np.allclose(prods[2], np.diag([0.0, 2.0 / 3.0]), atol=1e-12)


@pytest.mark.parametrize(
    "factory,n",
    [(aklt, 3), (damping, 3), (markov, 2), (lambda: haar_kraus(3, 5, 0), 2)],
)
def test_w_series_matches_brute_force(factory, n):
    K = factory()
    w = w_series(K, n)
    for m in range(1, n + 1):
        assert w.value_at(m) == pytest.approx(_w_brute(K, m), abs=1e-10)


def test_w_series_closed_forms():
    w = w_series(aklt(), 6)
    for n in range(1, 7):
        assert w.value_at(n) == pytest.approx(3.0 ** (-n), rel=1e-10)
    assert w.fitted_rate == pytest.approx(-np.log(3.0), abs=1e-10)
    assert w.fekete_rate == pytest.approx(-np.log(3.0), abs=1e-10)

    w = w_series(damping(0.5), 6)
    for n in range(1, 7):
        assert w.value_at(n) == pytest.approx(2.0 ** (-n / 2.0), rel=1e-10)

    w = w_series(aklt_pauli(), 5)
    for n in range(1, 6):
        assert w.value_at(n) == pytest.approx(1.0, abs=1e-10)

    w = w_series(clock(3), 4)
    for n in range(1, 5):
        assert w.value_at(n) == pytest.approx(1.0, abs=1e-10)


def test_w_series_all_zero_for_rank_one_family():
    w = w_series(markov(), 4)
    assert w.all_zero
    assert w.fitted_rate == float("-inf")
    assert w.fekete_rate == float("-inf")


def test_w_series_guard():
    with pytest.raises(EnumerationTooLarge):
        w_series(clock(3), 12, guard=1000)


def test_f_series_aklt_stationary():
    K = aklt()
    sigma = np.eye(2) / 2.0
    F = np.eye(2)
    f = f_series(K, sigma, F, 5)
    w = w_series(K, 5)
    for n in range(1, 6):
        assert f.value_at(n) == pytest.approx(3.0 ** (-n) / 2.0, rel=1e-10)
        assert f.value_at(n) <= w.value_at(n) + 1e-12


def test_f_series_validates_inputs():
    K = aklt()
    with pytest.raises(Exception):
        f_series(K, np.diag([0.7, 0.7]), np.eye(2), 2)
    with pytest.raises(Exception):
        f_series(K, np.eye(2) / 2, 3.0 * np.eye(2), 2)


def test_estimate_rate_paths():
    fitted, fekete = estimate_rate([(1, np.exp(-1)), (2, np.exp(-2)), (3, np.exp(-3))])
    assert fitted == pytest.approx(-1.0, abs=1e-12)
    assert fekete == pytest.approx(-1.0, abs=1e-12)
    # zeros are dropped; single survivor has undefined slope but a Fekete value
    fitted, fekete = estimate_rate([(1, 0.0), (2, np.exp(-4))])
    assert np.isnan(fitted)
    assert fekete == pytest.approx(-2.0, abs=1e-12)
    fitted, fekete = estimate_rate([(1, 0.0), (2, 0.0)])
    assert fitted == float("-inf") and fekete == float("-inf")


def test_decay_series_from_values():
    s = DecaySeries.from_values([(1, 0.5), (2, 0.25)])
    assert not s.all_zero
    assert s.value_at(2) == 0.25
    with pytest.raises(KeyError):
        s.value_at(3)


def test_span_purity_ranks():
    _, ranks = span_purity_test(aklt(), 4)
    assert ranks == [2, 2, 2, 2]
    at, ranks = span_purity_test(haar_kraus(3, 5, 0), 4)
    assert at == 2 and ranks[1] == 9


def test_correctable_staircase_jordan():
    rep = correctable_subspace(jordan(4), 4)
    assert rep.max_ranks == (4, 3, 2, 1)
    for P, r in zip(rep.projectors, rep.max_ranks):
        assert np.trace(P).real == pytest.approx(r, abs=1e-8)
        assert np.linalg.norm(P @ P - P) < 1e-8
    assert max(rep.residuals) <= 1e-8


def test_correctable_staircase_search_budget():
    # jordan products have degenerate spectra, so the refinement must branch
    with pytest.raises(SearchBudgetExceeded):
        correctable_subspace(jordan(4), 2, budget=1)


@pytest.mark.parametrize(
    "factory,status",
    [
        (aklt, "SatisfiedUpToN"),
        (aklt_pauli, "ViolatedUpToN"),
        (markov, "SatisfiedUpToN"),
        (lambda: clock(3), "ViolatedUpToN"),
        (lambda: haar_kraus(3, 5, 0), "SatisfiedCertified"),
        (lambda: constructive_purity_family(3), "SatisfiedCertified"),
    ],
)
def test_purity_verdicts(factory, status):
    v = purity_verdict(factory(), 4)
    assert v.status == status
    assert v.evidence  # always carries a human-readable justification


def test_violated_verdict_requires_exact_invariance():
    """The Pauli family's full space is trivially invariant, so the rank-2
    violation extends to every length."""
    v = purity_verdict(aklt_pauli(), 4)
    assert v.correctable_ranks == (2, 2, 2, 2)
    assert v.span_passed_at is None


def test_haar_kraus_normalized_and_deterministic():
    K1 = haar_kraus(3, 5, seed=42)
    K2 = haar_kraus(3, 5, seed=42)
    K3 = haar_kraus(3, 5, seed=43)
    assert np.array_equal(K1.ops, K2.ops)
    assert not np.allclose(K1.ops, K3.ops)
    gram = sum(A.conj().T @ A for A in K1.ops)
    assert np.linalg.norm(gram - np.eye(3)) < 1e-12
    with pytest.raises(DimensionTooSmall):
        haar_kraus(1, 5, seed=0)


@pytest.mark.parametrize("D", [3, 5, 7])
def test_build_r_operator_contracts(D):
    R = build_r_operator(D)
    assert np.linalg.norm(R - R.conj().T) < 1e-12
    lam = np.linalg.eigvalsh(R)
    assert lam[0] >= -1e-12
    assert lam[-1] <= 1.0 + 1e-12
    for U in clock_shift_basis(D):
        assert abs(np.trace(U.conj().T @ R)) > 1e-10


def test_build_r_operator_frozen_overlaps_d3():
    """All non-identity overlaps equal D*c = 3/16; the identity one is D/2."""
    R = build_r_operator(3)
    basis = clock_shift_basis(3)
    overlaps = sorted(abs(np.trace(U.conj().T @ R)) for U in basis)
    assert np.allclose(overlaps[:-1], [3.0 / 16.0] * 8, atol=1e-12)
    assert overlaps[-1] == pytest.approx(1.5, abs=1e-12)


def test_build_r_operator_rejects_bad_dimensions():
    with pytest.raises(EvenDimension):
        build_r_operator(4)
    with pytest.raises(DimensionTooSmall):
        build_r_operator(1)


def test_constructive_family_blocks_and_witnesses():
    D = 3
    fam = constructive_purity_family(D)
    assert fam.d == 5 and fam.D == D
    R = build_r_operator(D)
    basis = clock_shift_basis(D)
    # the five declared blocks sit in the first block column
    from mpsrestrict.chain import sqrt_env

    assert np.allclose(fam.ops[0], sqrt_env(R) / 2.0, atol=1e-12)
    assert np.allclose(fam.ops[1], basis[1 * D + 0] / 2.0, atol=1e-12)
    assert np.allclose(fam.ops[2], sqrt_env(np.eye(D) - R) / 2.0, atol=1e-12)
    assert np.allclose(fam.ops[3], basis[0 * D + 1] / 2.0, atol=1e-12)
    assert np.allclose(fam.ops[4], np.eye(D) / 2.0, atol=1e-12)

    # witness strings produce products proportional to U^dag R U
    witnesses = []
    for j in range(D):
        for k in range(D):
            string = [3] * k + [1] * j + [0] + [4] * (2 * D - 2 - j - k)
            W = np.eye(D, dtype=complex)
            for s in string:
                W = fam.ops[s] @ W
            U = basis[j * D + k]
            expected = 0.25 ** (2 * D - 1) * (U.conj().T @ R @ U)
            assert np.linalg.norm(W.conj().T @ W - expected) < 1e-12
            witnesses.append(W.conj().T @ W)
    assert gram_rank(witnesses) == D * D


def test_constructive_family_rejects_bad_dimensions():
    with pytest.raises(EvenDimension):
        constructive_purity_family(4)
    with pytest.raises(DimensionTooSmall):
        constructive_purity_family(3, d=4)


def test_submultiplicativity_enforced():
    """w(n+m) <= w(n) w(m) holds on every family we ship."""
    for K in (aklt(), damping(0.3), haar_kraus(2, 3, 5)):
        w = w_series(K, 6)  # raises NumericalInconsistency on violation
        vals = dict(w.values)
        for n in range(1, 6):
            for m in range(1, 7 - n):
                assert vals[n + m] <= vals[n] * vals[m] + 1e-12


def test_correctable_report_rejects_increasing_ranks():
    from mpsrestrict.purity import CorrectableReport

    with pytest.raises(NumericalInconsistency):
        CorrectableReport(
            n_max=2,
            max_ranks=(1, 2),
            projectors=(np.eye(2), np.eye(2)),
            residuals=(0.0, 0.0),
        )


def test_purity_verdict_guard_below_d_to_the_n_max_raises():
    # the span test checks the guard for every n <= n_max before any w_series
    with pytest.raises(EnumerationTooLarge):
        purity_verdict(aklt(), 4, guard=3**4 - 1)
    assert purity_verdict(aklt(), 4, guard=3**4).n_max == 4


@pytest.mark.parametrize("factory", [aklt, damping, lambda: haar_kraus(3, 2, seed=4)])
def test_purity_verdict_reuses_a_longer_w_series(factory):
    """A series past n = 6 gives the verdict of its first six entries, bit
    for bit; one that does not cover 1..min(n_max, 6) is rejected."""
    K = factory()
    assert purity_verdict(K, 8, w=w_series(K, 8)) == purity_verdict(K, 8)
    assert purity_verdict(K, 3, w=w_series(K, 5)) == purity_verdict(K, 3)
    with pytest.raises(ValueError):
        purity_verdict(K, 8, w=w_series(K, 5))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_scalar_tolerance_must_be_finite_and_non_negative(tol):
    """NaN or inf would let every product pass the scalar test, and a
    negative tol would fail every one."""
    from mpsrestrict.errors import OutOfRange

    with pytest.raises(OutOfRange):
        correctable_subspace(aklt(), 2, tol=tol)
    with pytest.raises(OutOfRange):
        purity_verdict(aklt(), 2, tol=tol)
    assert correctable_subspace(aklt(), 2, tol=0.0).max_ranks == (1, 1)
