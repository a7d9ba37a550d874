import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from families import block_diagonal, code_d3, dark_block_family
from mpsrestrict.chain import KrausFamily, sqrt_env
from mpsrestrict.errors import (
    DimensionTooSmall,
    EnumerationTooLarge,
    EvenDimension,
    FNotContractive,
    NotDensityOperator,
    NumericalInconsistency,
    OutOfRange,
)
from mpsrestrict import purity, restriction
from mpsrestrict.linalg import clock_shift_basis, exterior_square, gram_rank
from mpsrestrict.models import aklt, aklt_pauli, clock, damping, jordan, markov
from mpsrestrict.trajectories import purification_statistic
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
    with pytest.raises(NotDensityOperator):
        f_series(K, np.diag([0.7, 0.7]), np.eye(2), 2)
    with pytest.raises(FNotContractive):
        f_series(K, np.eye(2) / 2, 3.0 * np.eye(2), 2)


def test_f_series_of_a_zero_dressing_is_a_degenerate_context():
    """F = 0 leaves the strings no probability: K^2(n) = 0 < 1e-12, so
    f_series raises the scans' ValueError rather than report zeros."""
    with pytest.raises(ValueError, match="degenerate context"):
        f_series(aklt(), np.eye(2) / 2, np.zeros((2, 2)), 3)


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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=40), st.floats(min_value=1e-300, max_value=1e300)),
        min_size=2,
        max_size=12,
        unique_by=lambda pair: pair[0],
    )
)
def test_the_fitted_rate_is_polyfits_slope(pairs):
    """The closed-form slope over fsum sums is numpy's least-squares fit of
    ln v against n on 2..12 distinct lengths, to 1e-12 relative; a slope
    near 0 is compared on the scale max |ln v| / (max n - min n), to which
    either fit rounds."""
    fitted = DecaySeries.from_values(pairs).fitted_rate
    ns = np.array([n for n, _ in pairs], dtype=float)
    logs = np.log([v for _, v in pairs])
    want = np.polyfit(ns, logs, 1)[0]
    scale = max(abs(want), np.max(np.abs(logs)) / np.ptp(ns))
    assert abs(fitted - want) <= 1e-12 * scale


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


def test_span_purity_test_refuses_n_max_above_the_transfer_cap_at_once():
    """n_max has the one bound of every transfer iteration: 10**7 used to
    take minutes of doubled-map steps before it answered."""
    import time

    K = haar_kraus(4, 3, 1)
    for n_max in (10_001, 10**7):
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match="n_max"):
            span_purity_test(K, n_max)
        assert time.perf_counter() - start < 0.1
    with pytest.raises(OutOfRange):
        span_purity_test(K, 0)


# ------------------------------------------------ the D = 2 closed forms


_D2_FAMILIES = {
    "aklt": aklt,
    "aklt-pauli": aklt_pauli,
    "markov": markov,
    "damping": lambda: damping(0.5),
    **{f"haar-D2-d{d}-seed{seed}": functools.partial(haar_kraus, 2, d, seed) for d in (2, 3, 5) for seed in (0, 7)},
}


@pytest.mark.parametrize("family", _D2_FAMILIES)
def test_d2_decay_series_are_powers_of_the_determinant_sum(family):
    """At D = 2, nu1 nu2(W) = |det W| and the determinant is multiplicative,
    so w(n) = s^n with s = sum_x |det A_x|, which ``w_series`` and the
    purification statistic report in closed form.  Their oracle is the
    enumeration: the per-string SVD sum of ``oracle.w_values``, within 1e-12
    relative, and exactly 0 where that sum is.  The stationary f(n), which
    the scans enumerate, is the closed form |det sqrt(rho)| s^n.  Since
    |det A| = nu1 nu2 <= (nu1^2 + nu2^2) / 2, s <= tr(sum_x A_x^dag A_x) / 2
    = 1."""
    K = _D2_FAMILIES[family]()
    s = math.fsum(abs(np.linalg.det(A)) for A in K.ops)
    rho = K._fixed_point.rho
    root = abs(np.linalg.det(sqrt_env(rho)))
    n_max = max(n for n in range(1, 9) if K.d**n <= 3**8)
    w, f = w_series(K, n_max), f_series(K, rho, np.eye(2), n_max)
    enumerated = oracle.w_values(K, n_max)
    for n, want in enumerate(enumerated, start=1):
        for got in (w.value_at(n), purification_statistic(K, n)):
            assert got == 0.0 if want == 0.0 else abs(got - want) <= 1e-12 * want, (n, got, want)
        got, want = f.value_at(n), root * s**n
        assert got == 0.0 if want == 0.0 else abs(got - want) <= 1e-12 * want, (n, got, want)
    assert s <= 1.0 + 1e-12
    if family == "aklt-pauli":
        assert s == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d, seed", [(2, 1), (3, 5), (5, 2)])
def test_a_d2_unitary_mixture_has_determinant_sum_one(d, seed):
    """A_x = sqrt(c_x) U_x with unitary U_x: |det A_x| = c_x, so s = 1 and
    w(n) = 1 at every n, the equality case of s <= 1."""
    K = dark_block_family(2, 0, d, seed)
    s = math.fsum(abs(np.linalg.det(A)) for A in K.ops)
    assert s == pytest.approx(1.0, abs=1e-12)
    w = w_series(K, 3)
    assert all(abs(v - 1.0) <= 1e-12 for _, v in w.values)


def test_correctable_staircase_jordan():
    rep = correctable_subspace(jordan(4), 4)
    assert rep.max_ranks == (4, 3, 2, 1)
    for P, r in zip(rep.projectors, rep.max_ranks):
        assert np.trace(P).real == pytest.approx(r, abs=1e-8)
        assert np.linalg.norm(P @ P - P) < 1e-8
    assert max(rep.residuals) <= 1e-8


def test_correctable_staircase_reports_rising_ranks_as_found():
    """At D >= 3 and a loose tol the search is a lower bound, and a longer
    length's search can find more than a shorter one's."""
    rep = correctable_subspace(dark_block_family(3, 1, 2, 53), 5, tol=1e-3)
    assert rep.max_ranks == (2, 2, 2, 3, 3)
    for P, r in zip(rep.projectors, rep.max_ranks):
        assert np.trace(P).real == pytest.approx(r, abs=1e-8)


@pytest.mark.parametrize("tol", [1e-3, 0.5])
@pytest.mark.parametrize("d, seed", [(2, 53), (2, 126), (2, 391), (3, 53), (3, 126), (3, 391)])
def test_a_rising_staircase_still_gives_a_verdict(d, seed, tol):
    v = purity_verdict(dark_block_family(3, 1, d, seed), 5, tol=tol)
    ranks = v.correctable_ranks
    assert any(b > a for a, b in zip(ranks, ranks[1:])), ranks
    assert v.status == "Undetermined"


def test_correctable_staircase_accepts_a_rank_one_node_without_a_walk(monkeypatch):
    """On markov the length-1 root fails and branches into rank-1 nodes,
    whose 1x1 compressions are scalar: only the root walks the products, and
    rank 1 at n = 1 decides every later length without a search."""
    calls = []
    real = purity._products
    monkeypatch.setattr(purity, "_products", lambda *a: calls.append(a[2]) or real(*a))
    rep = correctable_subspace(markov(), 4)
    assert calls == [1]
    assert rep.max_ranks == (1, 1, 1, 1) and rep.residuals == (0.0,) * 4


def test_the_staircase_stops_searching_at_its_first_rank_one_length(monkeypatch):
    """A 1x1 compression is exactly scalar, so rank 1 is a lower bound at
    every length and the first rank-1 length decides every later one: AKLT
    reaches rank 1 at n = 1, jordan(4) at n = 4, and clock(3), whose ranks
    stay at 3, searches every length."""
    calls = []
    real = purity._max_scalar_subspace
    monkeypatch.setattr(purity, "_max_scalar_subspace", lambda K, n, *a: calls.append(n) or real(K, n, *a))
    assert purity_verdict(aklt(), 8).correctable_ranks == (1,) * 8
    assert calls == [1]
    calls.clear()
    assert correctable_subspace(jordan(4), 6).max_ranks == (4, 3, 2, 1, 1, 1)
    assert calls == [1, 2, 3, 4]
    calls.clear()
    assert correctable_subspace(clock(3), 4).max_ranks == (3,) * 4
    assert calls == [1, 2, 3, 4]


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


def test_a_dark_subspace_the_staircase_misses_is_never_satisfied():
    """The staircase reaches rank 1 on code-D3, which it cannot search
    exhaustively at D = 3, while w stays >= 1: no certificate holds."""
    K = code_d3()
    v = purity_verdict(K, 6)
    assert v.correctable_ranks == (1,) * 6 and v.span_passed_at is None
    assert v.status == "Undetermined"
    assert "reached rank 1" in v.evidence and "w >= 1 through n = 6" in v.evidence
    assert min(w for _, w in w_series(K, 8).values) >= 1.0


@pytest.mark.parametrize("dim", [2, 4])
def test_a_w_below_one_certifies_and_names_its_length(dim):
    """jordan(dim) has D = dim + 1 >= 3, w(n) = 1 for n < dim and w(dim) = 0."""
    v = purity_verdict(jordan(dim), 6)
    assert v.status == "SatisfiedUpToN"
    assert v.evidence.startswith(f"w({dim}) = 0 < 1 rules out a rank-2 scalar subspace")


@pytest.mark.parametrize("gap,status", [(0.5e-9, "Undetermined"), (2e-9, "SatisfiedUpToN")])
def test_w_certifies_only_below_one_by_the_margin(gap, status):
    """A recorded w is read as it is: w(3) = 1 - gap certifies code-D3 only
    when gap exceeds the rounding margin of 1e-9."""
    K = code_d3()
    K._sums["w",] = {1: np.array([1.25, 1.25]), 2: np.array([1.25, 1.25]), 3: np.array([1.0 - gap] * 2)}
    assert purity_verdict(K, 3).status == status


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_a_dark_block_keeps_w_at_one_or_more(r, s, d, seed):
    """The lemma behind the w certificate: a rank-r subspace on which every
    P A_s^dag A_s P = c_s P forces w(n) >= 1, since nu1 nu2(A_s) >= c_s and
    sum c_s = 1.  So such a family is never reported Satisfied*."""
    K = dark_block_family(r, s, d, seed)
    w = w_series(K, 3)
    assert min(v for _, v in w.values) >= 1.0 - 1e-12
    assert not purity_verdict(K, 3).status.startswith("Satisfied")


def _certificate_inputs(K, n_max, tol=1e-8):
    """The shared inputs that purity_verdict hands each certificate."""
    stair = functools.cache(lambda: correctable_subspace(K, n_max, tol=tol))
    return K, n_max, span_purity_test(K, n_max), w_series(K, min(n_max, 6)), stair


CERTIFICATES = pytest.mark.parametrize("entry", purity._CERTIFICATES, ids=lambda c: c.__name__)
# families with some w(m) < 1 - 1e-9, m <= 4: none has a rank-2 scalar subspace
W_BELOW_ONE = pytest.mark.parametrize(
    "factory",
    [aklt, markov, lambda: damping(0.5), lambda: jordan(3)],
    ids=["aklt", "markov", "damping(0.5)", "jordan(3)"],
)


@CERTIFICATES
@settings(max_examples=10, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_no_certificate_satisfies_a_dark_block(entry, r, s, d, seed):
    """Every entry, applied on its own, answers no Satisfied* on a family
    with a dark block, so a new certificate is tested by being listed."""
    answer = entry(*_certificate_inputs(dark_block_family(r, s, d, seed), 3))
    assert answer is None or not answer[0].startswith("Satisfied")


@CERTIFICATES
@pytest.mark.parametrize("factory", [code_d3, block_diagonal])
def test_no_certificate_satisfies_a_dark_subspace(entry, factory):
    """code-D3 and block-diagonal hide dark subspaces the staircase misses."""
    answer = entry(*_certificate_inputs(factory(), 5))
    assert answer is None or not answer[0].startswith("Satisfied")


@CERTIFICATES
@pytest.mark.parametrize("tol", [1e-8, 0.5, 10.0])
@W_BELOW_ONE
def test_no_certificate_violates_where_w_falls_below_one(entry, factory, tol):
    """Every entry, applied on its own, answers no Violated* where a w(m)
    below 1 rules out a rank-2 scalar subspace, however loose the tol."""
    inputs = _certificate_inputs(factory(), 4, tol)
    assert min(v for _, v in inputs[3].values) < 1.0 - 1e-9
    answer = entry(*inputs)
    assert answer is None or not answer[0].startswith("Violated")


@pytest.mark.parametrize("tol", [0.5, 1.0, 10.0])
@W_BELOW_ONE
def test_a_loose_tol_reports_no_violation_that_w_refutes(factory, tol):
    """A loose tol lets the staircase keep an invariant rank >= 2 subspace,
    but w(m) < 1 refutes it, so the verdict is Undetermined and says so.  At
    tol >= 1 every compression is scalar within tol, and the evidence adds
    that the staircase shows nothing."""
    v = purity_verdict(factory(), 4, tol=tol)
    assert v.correctable_ranks[-1] >= 2
    assert v.status == "Undetermined"
    assert "< 1 rules out a rank-2 scalar subspace, so tol admits" in v.evidence
    assert ("every compression passes the scalar test" in v.evidence) == (tol >= 1.0)


def test_a_span_pass_runs_no_staircase(monkeypatch):
    """The staircase is formed only when an entry reads it, and the span
    pass answers first: the analyze-finite workload relies on this."""

    def refuse(*args, **kwargs):
        raise AssertionError("the staircase ran after a span pass")

    monkeypatch.setattr(purity, "correctable_subspace", refuse)
    v = purity_verdict(haar_kraus(3, 5, 0), 4)
    assert v.status == "SatisfiedCertified" and v.correctable_ranks is None


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


@pytest.mark.parametrize("D,d,passed_at", [(3, 5, 4), (5, 6, 5), (7, 5, 6), (9, 6, 8)])
def test_constructive_family_spans_by_length_2d_minus_1(D, d, passed_at):
    assert span_purity_test(constructive_purity_family(D, d), 2 * D - 1)[0] == passed_at


def test_constructive_family_raises_when_its_products_do_not_span(monkeypatch):
    calls = []

    def stalled(K, n_max):
        calls.append(n_max)
        return None, [1] * n_max

    monkeypatch.setattr(purity, "span_purity_test", stalled)
    with pytest.raises(NumericalInconsistency, match="length-5 products do not span: rank 1 != 9"):
        constructive_purity_family(3)
    assert calls == [5]


def test_constructive_family_rejects_bad_dimensions():
    with pytest.raises(EvenDimension):
        constructive_purity_family(4)
    with pytest.raises(DimensionTooSmall):
        constructive_purity_family(3, d=4)
    with pytest.raises(DimensionTooSmall):
        constructive_purity_family(1)


def test_submultiplicativity_enforced():
    """w(n+m) <= w(n) w(m) holds on every family we ship."""
    for K in (aklt(), damping(0.3), haar_kraus(2, 3, 5)):
        w = w_series(K, 6)  # raises NumericalInconsistency on violation
        vals = dict(w.values)
        for n in range(1, 6):
            for m in range(1, 7 - n):
                assert vals[n + m] <= vals[n] * vals[m] + 1e-12


def test_the_wedge_route_gives_exact_zeros_without_a_warning():
    """Every AKLT product but A_0^n has rank 1 and exactly zero 2x2 minors.
    The nu1 nu2 kernel, sent down its exterior-square route (a NaN Gram
    spectrum takes it), gives those exactly 0, with no RuntimeWarning, and
    the top singular value's digits elsewhere."""
    W = np.stack(product_set(aklt(), 4))
    wedges = exterior_square(W)
    zero = ~wedges.any(axis=(1, 2))
    assert zero.sum() == 3**4 - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = restriction._nu12(W, np.full((len(W), 2), np.nan))
        w = w_series(aklt(), 8)
    assert np.all(norms[zero] == 0.0)
    assert np.allclose(norms, np.linalg.svd(wedges, compute_uv=False)[:, 0], rtol=1e-14, atol=0.0)
    assert [v for _, v in w.values] == pytest.approx([3.0**-n for n in range(1, 9)], rel=1e-10)


def _skewed_family(ratio: float) -> KrausFamily:
    """A D = 3, d = 3 family whose operators A_x = U_x diag(s_x) all have
    nu2 = ratio * nu1: s_x holds a at entry x and ratio * a elsewhere."""
    rng = np.random.default_rng(0)
    a = 1.0 / np.sqrt(1.0 + 2.0 * ratio**2)
    ops = []
    for x in range(3):
        s = np.full(3, ratio * a)
        s[x] = a
        ops.append(purity._haar_unitary(3, rng) * s)
    return KrausFamily(ops=np.stack(ops))


def _count_wedges(monkeypatch, corrupt: float = 0.0) -> list[int]:
    """Count the products whose exterior square w's check route forms (in the
    nu1 nu2 kernel, at D >= 3), and scale their minors by 1 + corrupt."""
    formed = []
    minors = restriction.exterior_square

    def spy(O):
        formed.append(len(O))
        return minors(O) * (1.0 + corrupt)

    monkeypatch.setattr(restriction, "exterior_square", spy)
    return formed


def test_a_corrupted_wedge_route_is_an_inconsistency(monkeypatch):
    """The exterior-square route cross-checks the SVD route where nu2 <
    nu1 / 100: minors off by one part in 1e6 make w_series raise.  Every
    product of this family takes that route, and w(1) = 0.015 is large
    enough for the corruption (1.5e-8) to exceed the 1e-9 tolerance.  Each
    walk is counted on a fresh family: a family records the sums of every
    length w_series has walked and does not walk it again."""
    assert w_series(_skewed_family(0.005), 1).value_at(1) == pytest.approx(0.015, rel=1e-3)
    formed = _count_wedges(monkeypatch)
    w_series(_skewed_family(0.005), 1)
    assert sum(formed) == 3
    _count_wedges(monkeypatch, corrupt=1e-6)
    with pytest.raises(NumericalInconsistency, match="routes disagree"):
        w_series(_skewed_family(0.005), 4)


def test_a_corrupted_determinant_moves_w_off_the_enumeration(monkeypatch):
    """At D = 2 w is s^n, with s the sum of the operators' |det|, and no
    product is formed: ``_spectra`` takes the d operators alone.
    Determinants off by one part in 1e6 move every w(n) of AKLT by n parts
    in 1e6, far outside the 1e-12 within which the enumeration of
    ``oracle.w_values`` pins it."""
    want = oracle.w_values(aklt(), 4)
    formed = []
    spectra = purity._spectra

    def corrupted(T):
        formed.append(len(T))
        lam, det = spectra(T)
        return lam, det * (1.0 + 1e-6)

    monkeypatch.setattr(purity, "_spectra", corrupted)
    w = w_series(aklt(), 4)
    assert formed and set(formed) == {3}
    for (n, got), exact in zip(w.values, want):
        assert abs(got / exact - (1.0 + 1e-6) ** n) <= 1e-12, n


def test_corrupted_gram_eigenvalues_are_an_inconsistency(monkeypatch):
    """At D >= 3 the check route is sqrt(lambda1 lambda2) of W^dag W where
    nu2 >= nu1 / 100, which every product of this Haar family has: Gram
    eigenvalues off by one part in 1e6 make w_series raise, and no
    exterior square is formed."""
    K = haar_kraus(3, 2, seed=4)
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: eigvalsh(G) * (1.0 + 1e-6))
    formed = _count_wedges(monkeypatch)
    with pytest.raises(NumericalInconsistency, match="routes disagree"):
        w_series(K, 4)
    assert formed == []


def test_a_recorded_length_still_runs_every_check():
    """Once w_series has walked n = 9, the statistic and the series still
    check the length and the guard before they read the family's record.
    Both check the routes of every length they read, recorded or not, and
    the series also checks submultiplicativity over every length it
    returns."""
    K = haar_kraus(4, 3, seed=1)
    w_series(K, 9)
    for call in (purification_statistic, w_series):
        with pytest.raises(EnumerationTooLarge):
            call(K, 9, guard=3**9 - 1)
        with pytest.raises(OutOfRange):
            call(K, 0)
    record = K._sums["w",]
    svd, check = record[3]
    record[3] = np.array([svd, check * (1.0 + 1e-6)])
    with pytest.raises(NumericalInconsistency, match="routes disagree"):
        w_series(K, 9)
    with pytest.raises(NumericalInconsistency, match="routes disagree"):
        purification_statistic(K, 3)
    record[3] = np.array([svd, check])
    record[2] = np.array([1e3, 1e3])
    with pytest.raises(NumericalInconsistency, match="submultiplicativity"):
        w_series(K, 9)


def test_eig_clusters_split_at_the_largest_gap_when_no_gap_clears_the_tolerance():
    # the relative gap 5e-9 is below 1e-8, so no cut is found; the split is forced
    assert purity._eig_clusters(np.array([1.0, 1.0 + 5e-9]), 1e-8) == [slice(0, 1), slice(1, 2)]
    assert purity._eig_clusters(np.array([1.0, 1.0, 1.0 + 5e-9]), 1e-8) == [slice(0, 2), slice(2, 3)]


@pytest.mark.parametrize(
    "status, passed_at, message",
    [("Bogus", 1, "unknown status 'Bogus'"), ("SatisfiedCertified", None, "requires a span pass")],
)
def test_purity_verdict_rejects_an_unknown_status_and_a_certificate_without_a_span_pass(
    status, passed_at, message
):
    with pytest.raises(ValueError, match=message):
        purity.PurityVerdict(
            status=status,
            evidence="",
            n_max=1,
            span_passed_at=passed_at,
            span_ranks=(1,),
            correctable_ranks=None,
            w_fitted_rate=None,
        )


def test_purity_verdict_guard_below_d_to_the_n_max_raises():
    # purity_verdict checks the guard on d^n_max itself, before the span test
    with pytest.raises(EnumerationTooLarge):
        purity_verdict(aklt(), 4, guard=3**4 - 1)
    assert purity_verdict(aklt(), 4, guard=3**4).n_max == 4


@pytest.mark.parametrize("factory", [aklt, damping, lambda: haar_kraus(3, 2, seed=4)])
def test_purity_verdict_reuses_a_longer_w_series(factory, monkeypatch):
    """After w_series(K, 8) the verdicts at n_max = 8 and 3 read their
    w(1..6) and w(1..3) from the family's record, forming no product for
    them, and equal the verdicts of fresh families, which walk their own
    series, bit for bit."""
    want = {n: purity_verdict(factory(), n) for n in (8, 3)}
    K = factory()
    w_series(K, 8)
    sums = []
    real = restriction._string_sum

    def spy(*args):
        sums.append(args[1])
        return real(*args)

    monkeypatch.setattr(restriction, "_string_sum", spy)
    assert purity_verdict(K, 8) == want[8]
    assert purity_verdict(K, 3) == want[3]
    assert sums == []


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_scalar_tolerance_must_be_finite_and_non_negative(tol):
    """NaN or inf would let every product pass the scalar test, and a
    negative tol would fail every one."""
    with pytest.raises(OutOfRange):
        correctable_subspace(aklt(), 2, tol=tol)
    with pytest.raises(OutOfRange):
        purity_verdict(aklt(), 2, tol=tol)
    assert correctable_subspace(aklt(), 2, tol=0.0).max_ranks == (1, 1)


def test_decay_series_form_no_product_at_d_one(monkeypatch):
    """At D = 1, w and f are zero after the length and guard checks,
    without walking the d^n strings."""
    grown = []
    grow = restriction._grow

    def counted(*args):
        grown.append(1)
        return grow(*args)

    monkeypatch.setattr(restriction, "_grow", counted)
    K = KrausFamily(ops=[[[0.6]], [[0.8]]])
    one = np.eye(1)
    assert w_series(K, 10).values == tuple((n, 0.0) for n in range(1, 11))
    assert f_series(K, one, one, 10).values == tuple((n, 0.0) for n in range(1, 11))
    assert grown == []
    f_series(haar_kraus(2, 2, 1), np.eye(2) / 2, np.eye(2), 2)
    assert grown  # the count sees a walk at D = 2


def test_one_dimensional_bonds_have_no_second_singular_value():
    """At D = 1 every product is a scalar: w, f and the purification
    statistic are exactly zero, and the guard still bounds each of them."""
    K = KrausFamily(ops=[[[0.6]], [[0.8]]])
    one = np.eye(1)
    assert w_series(K, 4).values == tuple((n, 0.0) for n in range(1, 5))
    assert f_series(K, one, one, 4).values == tuple((n, 0.0) for n in range(1, 5))
    assert purification_statistic(K, 4) == 0.0
    for call in (w_series, lambda K, n, guard: f_series(K, one, one, n, guard), purification_statistic):
        with pytest.raises(EnumerationTooLarge):
            call(K, 4, guard=8)
