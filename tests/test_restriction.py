import itertools
import math
import warnings

import numpy as np
import pytest

import families
import oracle
from mpsrestrict.chain import BoundaryPair, ChainGeometry, KrausFamily, _normalization_residual
from mpsrestrict.errors import (
    EnumerationTooLarge,
    GeometryMismatch,
    InvalidDistribution,
    OutOfRange,
    SymbolOutOfRange,
    ZeroProbabilityString,
)
from mpsrestrict import purity, restriction
from mpsrestrict.gibbs import marginal
from mpsrestrict.linalg import shannon_entropy
from mpsrestrict.models import BUILTINS, aklt, clock, damping, jordan, markov
from mpsrestrict.purity import f_series, haar_kraus
from mpsrestrict.restriction import (
    DEFAULT_GUARD,
    CmiReport,
    RestrictionContext,
    average_entropy,
    average_purity_q,
    chain_distribution,
    classical_cmi,
    cmi_report,
    post_measurement_spectrum,
    quantum_cmi,
    restriction_scan,
    string_probability,
    window_distribution,
)


@pytest.fixture(scope="module")
def aklt_ctx():
    return RestrictionContext.stationary(aklt())


def test_stationary_context_fields(aklt_ctx):
    assert np.allclose(aklt_ctx.sigma, np.eye(2) / 2, atol=1e-12)
    assert np.allclose(aklt_ctx.f_op, np.eye(2), atol=1e-12)
    for n in range(1, 4):
        assert aklt_ctx.k2_for(n) == pytest.approx(1.0, abs=1e-12)


def test_context_rejects_bad_environments():
    K = aklt()
    with pytest.raises(Exception):
        RestrictionContext(kraus=K, sigma=np.diag([0.7, 0.7]), f_op=np.eye(2))
    with pytest.raises(Exception):
        RestrictionContext(kraus=K, sigma=np.eye(2) / 2, f_op=2.0 * np.eye(2))


def test_all_zeros_string_probability(aklt_ctx):
    for n in range(1, 7):
        p = string_probability(aklt_ctx, (0,) * n)
        assert p == pytest.approx(3.0 ** (-n), rel=1e-12)


def test_probabilities_sum_to_one(aklt_ctx):
    for n in (1, 2, 3):
        total = sum(
            string_probability(aklt_ctx, xs)
            for xs in itertools.product(range(3), repeat=n)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_string_validation(aklt_ctx):
    with pytest.raises(SymbolOutOfRange):
        string_probability(aklt_ctx, (0, 3))
    with pytest.raises(SymbolOutOfRange):
        string_probability(aklt_ctx, ())


def test_markov_string_probability_is_path_measure():
    ctx = RestrictionContext.stationary(markov())
    # stationary distribution of [[0.8, 0.2], [0.3, 0.7]] is (0.6, 0.4)
    assert string_probability(ctx, (1,)) == pytest.approx(0.6 * 0.2, abs=1e-12)
    assert string_probability(ctx, (0,)) == pytest.approx(0.6 * 0.8, abs=1e-12)
    # two steps must chain only compatible transitions: (0->1), (1->1)
    assert string_probability(ctx, (1, 3)) == pytest.approx(0.6 * 0.2 * 0.7, abs=1e-12)
    # incompatible pair (0->1) then (0->0) has probability zero
    assert string_probability(ctx, (1, 0)) == pytest.approx(0.0, abs=1e-15)


def test_post_measurement_spectrum(aklt_ctx):
    spec = post_measurement_spectrum(aklt_ctx, (0, 0))
    assert spec.values.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(spec.values, [0.5, 0.5], atol=1e-12)
    for x in [(1, 1), (0,) * 1200 + (1, 1)]:  # A_+ A_+ = 0, short and past the float floor
        with pytest.raises(ZeroProbabilityString):
            post_measurement_spectrum(aklt_ctx, x)


@pytest.mark.parametrize("n", [400, 1200])
def test_post_measurement_spectrum_of_a_string_past_the_float_floor(n):
    """clock(3)'s string 0^n has probability 9^-n, which leaves the floats
    from n = 340 on, and its threshold 1e-14 9^-n from n = 325: the product
    is carried as P 2^e and the rule compared by exponent, so the state
    stays maximally mixed, with no invalid division."""
    ctx = RestrictionContext.stationary(clock(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals = post_measurement_spectrum(ctx, [0] * n).values
    assert np.allclose(vals, 1.0 / 3.0, rtol=0.0, atol=1e-12)


def test_post_measurement_isospectral_routes(aklt_ctx):
    """Spectrum of T T^dag equals that of the inner operator T^dag T."""
    K = aklt_ctx.kraus
    xs = (0, 1, 2)
    P = aklt_ctx.sqrt_sigma
    for s in xs:
        P = K.ops[s] @ P
    T = aklt_ctx.f_op @ P
    outer = np.linalg.eigvalsh(T @ T.conj().T)
    inner = np.linalg.eigvalsh(T.conj().T @ T)
    assert np.allclose(outer, inner, atol=1e-12)
    spec = post_measurement_spectrum(aklt_ctx, xs)
    assert np.allclose(spec.values, np.clip(outer[::-1], 0, None) / outer.sum(), atol=1e-12)


@pytest.mark.parametrize("context", ["stationary", "finite"])
def test_post_measurement_spectrum_at_d2_is_the_closed_forms(context):
    """At D = 2 the post-measurement spectrum is ``_spectra`` of the
    string's product T, normalized, bit for bit: no LAPACK call.  eigvalsh
    of the formed T T^dag, normalized, is within 16 eps of it, the bound of
    the closed forms against eigvalsh relative to lambda1 <= Tr."""
    K = haar_kraus(2, 3, seed=5)
    if context == "stationary":
        ctx = RestrictionContext.stationary(K)
    else:
        L, R = np.array([1.0, 0.0]), np.array([1.0, 1j]) / np.sqrt(2.0)
        ctx = RestrictionContext.from_boundaries(K, BoundaryPair(L=L, R=R), ChainGeometry(1, 2, 1))
    eps = np.finfo(float).eps
    for n in range(1, 4):
        for xs in itertools.product(range(K.d), repeat=n):
            got = post_measurement_spectrum(ctx, xs).values
            _, P, _ = restriction._string_product(K.ops, ctx.sqrt_sigma, xs)
            T = P if ctx._cap is None else ctx._cap @ P
            lam = restriction._spectra(T[None])[0][0]
            assert np.array_equal(got, np.clip(lam[::-1] / float(lam.sum()), 0.0, None)), xs
            want = np.linalg.eigvalsh(T @ T.conj().T)[::-1]
            assert np.all(np.abs(got - want / want.sum()) <= 16 * eps), xs


def test_scan_matches_naive_loop(aklt_ctx):
    n = 3
    s = restriction_scan(aklt_ctx, n)
    total_p = 0.0
    total_entropy = 0.0
    total_q = 0.0
    for xs in itertools.product(range(3), repeat=n):
        p = string_probability(aklt_ctx, xs)
        total_p += p
        if p > 1e-14 * 3.0 ** (-n):
            vals = post_measurement_spectrum(aklt_ctx, xs).values
            pos = vals[vals > 0]
            total_entropy += p * float(-(pos * np.log(pos)).sum())
            total_q += p * float(vals[0])
    assert s.p_sum == pytest.approx(total_p, abs=1e-12)
    assert s.avg_entropy == pytest.approx(total_entropy, abs=1e-12)
    assert s.avg_purity_q == pytest.approx(1.0 - total_q, abs=1e-12)


def test_aklt_frozen_aggregates(aklt_ctx):
    for n in (1, 2, 3, 4):
        assert quantum_cmi(aklt_ctx, n) == pytest.approx(
            2.0 * np.log(2.0) * 3.0 ** (-n), rel=1e-10
        )
    assert average_purity_q(aklt_ctx, 2) == pytest.approx(1.0 / 18.0, abs=1e-12)
    assert average_entropy(aklt_ctx, 1) == pytest.approx(np.log(2.0) / 3.0, rel=1e-12)


def test_purity_sandwich_tight_for_bond_two(aklt_ctx):
    """At D = 2 both sandwich inequalities collapse to Q = sum(lam2)/K^2."""
    for n in (1, 2, 3):
        s = restriction_scan(aklt_ctx, n)
        assert s.avg_purity_q == pytest.approx(s.lam2_sum_over_k2, abs=1e-12)


def test_scan_thread_determinism():
    # each call walks on a fresh family, so neither reads the other's record
    a = restriction_scan(RestrictionContext.stationary(aklt()), 4, threads=1)
    b = restriction_scan(RestrictionContext.stationary(aklt()), 4, threads=3)
    assert a == b  # bit-identical fields, not merely approximately equal


def test_enumeration_guard(aklt_ctx):
    with pytest.raises(EnumerationTooLarge):
        restriction_scan(aklt_ctx, 20, guard=1000)
    with pytest.raises(EnumerationTooLarge):
        window_distribution(aklt_ctx, 20, guard=1000)


def test_finite_context_consistency():
    """Marginalizing the full finite chain over the flanks reproduces the
    window distribution of the dressed context."""
    K = damping(0.5)
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    b = BoundaryPair(L=v, R=v)
    geom = ChainGeometry(len_a=1, len_b=2, len_c=1)
    ctx = RestrictionContext.from_boundaries(K, b, geom)
    chain = chain_distribution(K, b, geom)
    window = window_distribution(ctx, 2)
    assert np.allclose(marginal(chain, 2, 3), window.table, atol=1e-12)
    assert restriction_scan(ctx, 2).p_sum == pytest.approx(1.0, abs=1e-12)


def test_degenerate_boundaries_rejected():
    # identity transition matrix is reducible; orthogonal boundaries kill K^2
    K = markov([[1.0, 0.0], [0.0, 1.0]])
    b = BoundaryPair(L=np.array([1.0, 0.0]), R=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        chain_distribution(K, b, 2)
    with pytest.raises(ValueError):
        RestrictionContext.from_boundaries(K, b, ChainGeometry(0, 1, 0))


def test_classical_cmi_markov_vanishes():
    K = markov()
    b = BoundaryPair(L=np.array([1.0, 0.0]), R=np.array([1.0, 1.0]) / np.sqrt(2.0))
    geom = ChainGeometry(len_a=2, len_b=2, len_c=2)
    p = chain_distribution(K, b, geom)
    assert abs(classical_cmi(p, geom)) <= 1e-9


def test_classical_cmi_geometry_checks():
    K = markov()
    b = BoundaryPair(L=np.array([1.0, 0.0]), R=np.array([1.0, 1.0]) / np.sqrt(2.0))
    p = chain_distribution(K, b, 3)
    with pytest.raises(GeometryMismatch):
        classical_cmi(p, ChainGeometry(len_a=1, len_b=1, len_c=2))  # total 4 != 3
    # empty flanks are legal and give zero
    assert classical_cmi(p, ChainGeometry(len_a=0, len_b=3, len_c=0)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_cmi_report_invariants(aklt_ctx):
    rep = cmi_report(aklt_ctx, 2, window_a=2, window_c=2)
    assert rep.classical_cmi <= rep.quantum_cmi + 1e-9
    assert rep.quantum_cmi == pytest.approx(2.0 * rep.avg_entropy, abs=1e-12)
    assert 0.0 <= rep.avg_purity_q <= 1.0


def test_cmi_report_constructor_enforces_ordering():
    with pytest.raises(ValueError):
        CmiReport(n=1, classical_cmi=1.0, quantum_cmi=0.5, avg_entropy=0.25, avg_purity_q=0.1)
    with pytest.raises(ValueError):
        CmiReport(n=1, classical_cmi=0.1, quantum_cmi=0.5, avg_entropy=0.4, avg_purity_q=0.1)
    with pytest.raises(ValueError):
        CmiReport(n=1, classical_cmi=0.1, quantum_cmi=0.5, avg_entropy=0.25, avg_purity_q=1.5)


def test_quantum_cmi_beats_classical_across_models(aklt_ctx):
    for ctx in (aklt_ctx, RestrictionContext.stationary(clock(3))):
        rep = cmi_report(ctx, 2, window_a=1, window_c=1)
        assert rep.classical_cmi <= rep.quantum_cmi + 1e-9


def test_cmi_report_finite_context_absorbs_window_sites():
    # With len_a = 0 the context's sigma is the pure |L><L|, so a block
    # touching it directly would report zero entropy; the window sites in a
    # (1, n, 1) geometry must be folded into the environments first or the
    # classical CMI overshoots the quantum bound.
    from mpsrestrict.purity import haar_kraus

    rng = np.random.default_rng(3)
    K = haar_kraus(2, 2, 500)
    L = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    R = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    ctx = RestrictionContext.from_boundaries(
        K,
        BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R)),
        ChainGeometry(len_a=0, len_b=1, len_c=1),
    )
    rep = cmi_report(ctx, 1, window_a=1, window_c=1)
    assert rep.classical_cmi <= rep.quantum_cmi + 1e-9
    assert rep.quantum_cmi > 1e-6  # the dressed block really is entangled
    # the bare block against the pure left boundary has zero entropy
    assert restriction_scan(ctx, 1).avg_entropy == pytest.approx(0.0, abs=1e-12)


def test_k2_for_rejects_bad_lengths_before_the_cache():
    ctx = RestrictionContext.stationary(damping(0.5))
    want = [ctx.k2_for(n) for n in range(4)]
    for n in (-1, -3, -10, 1.5):
        with pytest.raises(OutOfRange):
            ctx.k2_for(n)
    assert [ctx.k2_for(n) for n in range(4)] == want
    assert len(ctx._envs) == 4


_ONE_LOOP_FAMILIES = {"aklt": aklt, "damping": lambda: damping(0.5), "haar-D3-d3": lambda: haar_kraus(3, 3, 1)}


def _finite_context(K, geometry=ChainGeometry(2, 1, 3)):
    rng = np.random.default_rng(11)
    L, R = (rng.standard_normal(K.D) + 1j * rng.standard_normal(K.D) for _ in range(2))
    b = BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R))
    return RestrictionContext.from_boundaries(K, b, geometry)


@pytest.mark.parametrize("family", _ONE_LOOP_FAMILIES)
def test_k2_and_the_folded_windows_are_a_plain_transfer_loop_bit_for_bit(family):
    """K^2(n) and the window fold take their powers from the one loop of the
    transfer map, with the bits of a plain loop of ``transfer_apply`` (and
    of ``transfer_adjoint_apply`` for F^dag F)."""
    from mpsrestrict.chain import sqrt_env, transfer_adjoint_apply, transfer_apply
    from mpsrestrict.restriction import _absorb_windows

    ctx = _finite_context(_ONE_LOOP_FAMILIES[family]())
    for n in (0, 1, 2, 5, 12):
        want = float(np.trace(ctx._f2 @ oracle.powers(transfer_apply, ctx.kraus, ctx.sigma, n)).real)
        assert ctx.k2_for(n) == want
    fresh = _finite_context(ctx.kraus)
    for a, c in ((1, 0), (0, 2), (3, 2), (20, 1)):
        inner = _absorb_windows(fresh, a, c)
        assert np.array_equal(inner.sigma, oracle.powers(transfer_apply, ctx.kraus, ctx.sigma, a))
        f2 = oracle.powers(transfer_adjoint_apply, ctx.kraus, ctx._f2, c)
        assert np.array_equal(inner.f_op, sqrt_env(f2))


def test_absorb_windows_reads_the_left_power_the_context_holds(monkeypatch):
    """E^{window_a}(sigma) is the context's own power: once K^2 of a longer
    chain has formed it, the fold applies only the c adjoint steps.  And
    E*^{window_c}(F^dag F) is the context's own power too, so a second fold
    with the same window_c applies no adjoint step."""
    from mpsrestrict import chain
    from mpsrestrict.restriction import _absorb_windows

    ctx = _finite_context(haar_kraus(3, 3, 1))
    ctx.k2_for(6)
    held = list(ctx._envs)
    steps = []
    for name in ("transfer_apply", "transfer_adjoint_apply"):
        real = getattr(chain, name)
        monkeypatch.setattr(chain, name, lambda K, M, _real=real, _name=name: steps.append(_name) or _real(K, M))
    inner = _absorb_windows(ctx, 4, 2)
    assert steps == ["transfer_adjoint_apply"] * 2
    assert inner.sigma is not held[4] and np.array_equal(inner.sigma, held[4])
    assert len(ctx._envs) == 7 and all(x is y for x, y in zip(ctx._envs, held))
    _absorb_windows(ctx, 9, 0)  # a longer fold extends the same list
    assert steps.count("transfer_apply") == 3 and len(ctx._envs) == 10
    again = _absorb_windows(ctx, 0, 2)
    assert steps.count("transfer_adjoint_apply") == 2 and len(ctx._rights) == 3
    assert np.array_equal(again.f_op, inner.f_op)


def test_k2_for_refuses_a_length_above_the_cap_before_a_step():
    """The one bound of the transfer loop: 10,001 raises at once, naming the
    block length, and leaves the environments as they were; 10,000 runs."""
    import time

    ctx = RestrictionContext.stationary(aklt())
    ctx.k2_for(3)
    held = list(ctx._envs)
    for n in (10_001, 200_000, 10**12):
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match="block length"):
            ctx.k2_for(n)
        assert time.perf_counter() - start < 0.1
        assert len(ctx._envs) == len(held) and all(x is y for x, y in zip(ctx._envs, held))
    assert ctx.k2_for(10_000) == pytest.approx(1.0, abs=1e-9)
    assert len(ctx._envs) == 10_001


def test_lengths_above_the_cap_raise_out_of_range_in_every_k2_caller():
    """K^2 of more than 10,000 sites is refused by the one bound, for the
    finite constructor and for single strings alike."""
    K = damping(0.5)
    e0 = np.array([1.0, 0.0])
    with pytest.raises(OutOfRange):
        RestrictionContext.from_boundaries(K, BoundaryPair(L=e0, R=e0), ChainGeometry(0, 10_001, 0))
    with pytest.raises(OutOfRange):
        RestrictionContext.from_boundaries(K, BoundaryPair(L=e0, R=e0), ChainGeometry(10_001, 1, 0))
    ctx = RestrictionContext.stationary(K)
    for observe in (string_probability, post_measurement_spectrum):
        with pytest.raises(OutOfRange, match="block length"):
            observe(ctx, [0] * 10_001)
    assert string_probability(ctx, [0] * 10_000) == pytest.approx(1.0, abs=1e-12)


def test_window_distribution_rejects_a_degenerate_context():
    K = markov([[0.0, 1.0], [1.0, 0.0]])
    e0 = np.array([1.0, 0.0])
    bare = RestrictionContext.from_boundaries(K, BoundaryPair(L=e0, R=e0), ChainGeometry(0, 2, 0))
    assert window_distribution(bare, 2).table.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        window_distribution(bare, 3)  # the chain flips state each site: K^2(3) = 0


def test_k2_for_rejects_a_degenerate_length_for_every_observable():
    """K^2 is checked in one place, so the scan and the per-string
    observables raise where they used to divide by zero."""
    K = markov([[0.0, 1.0], [1.0, 0.0]])
    e0 = np.array([1.0, 0.0])
    bare = RestrictionContext.from_boundaries(K, BoundaryPair(L=e0, R=e0), ChainGeometry(0, 2, 0))
    assert restriction_scan(bare, 2).p_sum == pytest.approx(1.0, abs=1e-12)
    for observe in (
        lambda: restriction_scan(bare, 3),
        lambda: string_probability(bare, (1, 2, 1)),
        lambda: post_measurement_spectrum(bare, (1, 2, 1)),
        lambda: bare.k2_for(3),
    ):
        with pytest.raises(ValueError, match="degenerate context"):
            observe()


def test_chain_distribution_is_the_window_table_of_the_bare_context():
    from mpsrestrict.purity import haar_kraus

    K = haar_kraus(3, 2, seed=2)
    rng = np.random.default_rng(2)
    L, R = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
    b = BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R))
    bare = RestrictionContext.from_boundaries(K, b, ChainGeometry(0, 5, 0))
    assert np.array_equal(chain_distribution(K, b, 5).table, window_distribution(bare, 5).table)


def test_a_context_keeps_sigma_and_f_as_they_were_given():
    """A context holds frozen copies of sigma and F: changing the caller's
    arrays in place after a scan changes neither that context's scans nor
    those of a new context on the same family, which read the new bits
    and agree with a fresh family's."""
    K = haar_kraus(2, 2, seed=1)
    sigma, F = np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex)
    ctx = RestrictionContext(kraus=K, sigma=sigma, f_op=F)
    before = restriction_scan(ctx, 3)
    sigma[...] = np.diag([0.9, 0.1])
    F[...] = np.diag([1.0, 0.5])
    assert restriction_scan(ctx, 3) == before
    assert not (ctx.sigma.flags.writeable or ctx.f_op.flags.writeable)
    moved = restriction_scan(RestrictionContext(kraus=K, sigma=sigma, f_op=F), 3)
    fresh = restriction_scan(RestrictionContext(kraus=haar_kraus(2, 2, seed=1), sigma=sigma, f_op=F), 3)
    assert moved == fresh and moved != before


def test_stationary_context_is_not_folded_into_itself():
    from mpsrestrict.restriction import _absorb_windows

    ctx = RestrictionContext.stationary(aklt())
    assert _absorb_windows(ctx, 2, 2) is ctx
    # a context that is only close to the fixed point is folded
    near = RestrictionContext(kraus=ctx.kraus, sigma=np.diag([0.5 + 1e-9, 0.5 - 1e-9]), f_op=ctx.f_op)
    assert _absorb_windows(near, 1, 0) is not near


# ---------------------------------- stationary rows from the streamed entropies

_LEVEL_FAMILIES = {
    "aklt": aklt,
    "markov": markov,
    "clock3": lambda: clock(3),
    "damping0.5": lambda: damping(0.5),
    "haar-D2-d2": lambda: haar_kraus(2, 2, seed=11),
    "haar-D3-d2": lambda: haar_kraus(3, 2, seed=12),
}


@pytest.mark.parametrize("name", sorted(_LEVEL_FAMILIES))
def test_stationary_cmi_report_is_classical_cmi_of_its_window_table(name):
    """The streamed window entropies of each length give the marginal
    oracle's classical CMI of the full window table, for
    n = 1..6 while the window has at most 2^20 strings (for clock(3), whose
    d is 9, up to n = 2 or 3)."""
    ctx = RestrictionContext.stationary(_LEVEL_FAMILIES[name]())
    assert ctx._stationary
    for a, c in ((2, 2), (1, 2), (2, 1)):
        for n in range(1, 7):
            geom = ChainGeometry(a, n, c)
            if ctx.kraus.d**geom.total > 2**20:
                break
            marginals = max(0.0, classical_cmi(window_distribution(ctx, geom.total), geom))
            assert abs(cmi_report(ctx, n, a, c).classical_cmi - marginals) <= 1e-13, (a, n, c)


def test_the_stationary_k2_is_iterated_and_the_level_route_reads_it():
    """The stationary K^2(n) is 1 only up to about n times the family's
    normalization residual, so the streamed window entries are divided by
    the iterated K^2, not by 1.  On a Haar family scaled by sqrt(1 +
    4.5e-11), which the family's atol of 1e-10 accepts, K^2(12) - 1 exceeds
    1e-10, so a 12-site window's entries divided by 1 would fail the sum
    check that the streamed entropies keep from ``shannon_entropy``;
    divided by K^2, the rows still give the marginal oracle's classical
    CMI."""
    K = KrausFamily(haar_kraus(3, 3, seed=1).ops * np.sqrt(1 + 4.5e-11))
    assert 1e-11 < _normalization_residual(K.ops) < 1e-10
    ctx = RestrictionContext.stationary(K)
    assert ctx._stationary
    assert ctx.k2_for(12) - 1.0 > 1e-10
    for n in range(1, 6):
        geom = ChainGeometry(2, n, 2)
        marginals = max(0.0, classical_cmi(window_distribution(ctx, geom.total), geom))
        assert abs(cmi_report(ctx, n).classical_cmi - marginals) <= 1e-13, n


def test_markov_rows_stay_at_rounding():
    """A Markov chain has no classical CMI: the streamed entropies, which
    take no marginal, may leave a rounding residue, but none above 1e-14."""
    ctx = RestrictionContext.stationary(markov())
    for a, c in ((2, 2), (1, 2), (2, 1)):
        for n in range(1, 6):
            assert 0.0 <= cmi_report(ctx, n, a, c).classical_cmi <= 1e-14, (a, n, c)


@pytest.mark.parametrize("moved", ["sigma", "F"])
def test_a_context_one_ulp_off_stationary_agrees_with_the_marginal_oracle(moved, monkeypatch):
    """sigma one ulp off rho, or F one ulp off the identity, is not the
    stationary context: its windows fold into three other contexts, so each
    row walks four, and its classical CMI is the marginal oracle's of the
    row's table to 1e-13 all the same."""
    K = aklt()
    sigma, f_op = np.array(K._fixed_point.rho), np.eye(2, dtype=complex)
    if moved == "sigma":
        sigma[0, 0] = np.nextafter(sigma[0, 0].real, 1.0)
    else:
        f_op[1, 1] = np.nextafter(1.0, 0.0)
    ctx = RestrictionContext(kraus=K, sigma=sigma, f_op=f_op)
    assert not ctx._stationary
    walked = []
    walk = restriction._window_walk
    monkeypatch.setattr(restriction, "_window_walk", lambda c, *args: walked.append(c) or walk(c, *args))
    for n in range(1, 5):
        geom = ChainGeometry(2, n, 2)
        marginals = max(0.0, classical_cmi(window_distribution(ctx, geom.total), geom))
        assert abs(cmi_report(ctx, n).classical_cmi - marginals) <= 1e-13, n
    assert len(walked) == 4 * 4 + 4  # four per row, and one per window_distribution


# ------------------------------------------ streamed window entropies (_window_walk)


def _finite_haar_contexts() -> dict[str, RestrictionContext]:
    """The Haar D3 d5 chain with boundaries: its bare context (a vector root
    and a rank-1 cap) and, at windows (1, 1), (2, 2) and (1, 3), its folds
    (sigma, F_c) (a vector root and a full cap), (sigma_a, F) (a square
    root and a rank-1 cap) and (sigma_a, F_c) (a square root and a full
    cap)."""
    rng = np.random.default_rng(9)
    L, R = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
    bare = RestrictionContext.from_boundaries(
        haar_kraus(3, 5, seed=9),
        BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R)),
        ChainGeometry(0, 5, 0),
    )
    contexts = {"haar-D3-d5-bare": bare}
    for a, c in ((1, 1), (2, 2), (1, 3)):
        for wa, wc in ((0, c), (a, 0), (a, c)):
            contexts[f"haar-D3-d5-fold-{wa}-{wc}"] = restriction._absorb_windows(bare, wa, wc)
    return contexts


_ENTROPY_FAMILIES = {
    **{f"builtin-{name}": family for name, family in BUILTINS.items()},
    "block-diagonal": families.block_diagonal,
    "near-pauli": families.near_pauli,
    "code-d3": families.code_d3,
    "dark-block": lambda: families.dark_block_family(2, 1, 3, 5),
}


def _entropy_context(name: str) -> RestrictionContext:
    if name.startswith("haar-D3-d5"):
        return _finite_haar_contexts()[name]
    return RestrictionContext.stationary(_ENTROPY_FAMILIES[name]())


_ENTROPY_CONTEXTS = sorted(_ENTROPY_FAMILIES) + sorted(_finite_haar_contexts())


def _past_one_block(d: int) -> int:
    """k + 1 for the largest k with d^k <= 2^15: the shortest window of
    more than one block of a streamed entropy."""
    return next(m for m in itertools.count(1) if d**m > 2**15)


@pytest.mark.parametrize("name", _ENTROPY_CONTEXTS)
def test_streamed_window_entropies_are_the_tables_entropies(name):
    """Each streamed window entropy is shannon_entropy of its window
    distribution to 1e-13, up to the shortest window of more than one block
    of d^k strings; and it is the same bits whatever the tree's depth and
    whichever other lengths, entropies or the table, share its walk."""
    ctx = _entropy_context(name)
    top = _past_one_block(ctx.kraus.d)
    lengths = list(range(1, top + 1))
    shared = restriction._window_walk(ctx, lengths, None, DEFAULT_GUARD)[0]
    for m in lengths:
        assert abs(shared[m] - shannon_entropy(window_distribution(ctx, m).as_array())) <= 1e-13, m
        assert restriction._window_walk(ctx, [m], None, DEFAULT_GUARD)[0] == {m: shared[m]}, m
    beside_a_table = restriction._window_walk(ctx, [1, top - 1], top, DEFAULT_GUARD)[0]
    assert beside_a_table == {1: shared[1], top - 1: shared[top - 1]}


@pytest.mark.parametrize("family", [aklt, markov, lambda: damping(0.5), lambda: jordan(4)])
def test_a_pruned_walk_streams_the_dense_walks_entropies(family):
    """A pruned walk leaves out the zero products that a dense one keeps as
    zero entries, and neither is kept in a block's sums, so the entropies
    are the same bits; the dense twin is the same family walked without
    looking for zeros."""
    K = family()
    dense = KrausFamily(K.ops)
    dense.__dict__["_singular"] = False  # sets the cached property
    assert K._singular
    ctxs = [RestrictionContext.stationary(k) for k in (K, dense)]
    assert np.array_equal(ctxs[0].sigma, ctxs[1].sigma)
    top = _past_one_block(K.d)
    pruned, full = (restriction._window_walk(c, range(1, top + 1), None, DEFAULT_GUARD)[0] for c in ctxs)
    assert pruned == full


@pytest.mark.parametrize("name", ["builtin-aklt", "haar-D3-d5-fold-2-2"])
def test_the_entropy_is_fsum_over_fixed_blocks_of_one_numpy_sum_each(name):
    """The reduction order, pinned bit for bit: blocks of d^k consecutive
    strings, k the largest with d^k <= 2^15; per block, sum p and sum p ln p
    over its entries p > 0, each as one numpy sum; math.fsum over blocks."""
    ctx = _entropy_context(name)
    d = ctx.kraus.d
    m = _past_one_block(d) + 1
    k = m - 2
    h, raw = restriction._window_walk(ctx, [m], m, DEFAULT_GUARD)
    mass, plogp = [], []
    for block in raw.reshape(-1, d**k):
        p = block[block > 0.0]
        mass.append(np.sum(p))
        plogp.append(np.sum(p * np.log(p)))
    assert abs(math.fsum(mass) - 1.0) <= 1e-10
    assert h[m] == -math.fsum(plogp)


def test_the_streamed_entropy_keeps_shannon_entropys_checks():
    """A NaN or infinite entry, an entry below -1e-10 and a mass off 1 by
    more than 1e-10 each raise InvalidDistribution, as shannon_entropy does
    on a table; an entry of -1e-10, which is not kept, and a mass off by
    1e-11 pass."""

    def streamed(*entries: float) -> float:
        s = restriction._StreamedEntropy(2)
        s.add(range(len(entries)), np.array(entries))
        return s.entropy()

    for entries, message in [
        ((0.5, np.nan, 0.5), "finite"),
        ((0.5, np.inf, 0.5), "finite"),
        ((0.5, -2e-10, 0.5), "negative"),
        ((0.5, 0.5 - 2e-10), "sum"),
    ]:
        with pytest.raises(InvalidDistribution, match=message):
            streamed(*entries)
        with pytest.raises(InvalidDistribution, match=message):
            shannon_entropy(np.array(entries))
    assert streamed(0.5, -1e-10, 0.5) == shannon_entropy(np.array([0.5, 0.5]))
    assert streamed(0.5, 0.5 - 1e-11) == pytest.approx(np.log(2.0), abs=1e-10)


@pytest.mark.parametrize("route", ["stationary", "finite"])
def test_a_window_mass_off_by_more_than_1e_10_is_rejected(route, monkeypatch):
    """K^2 scaled by 1 + 1e-9 leaves every window's mass about 1e-9 short
    of 1, which the streamed entropies' sum check rejects on either route
    with InvalidDistribution."""
    K = haar_kraus(3, 3, seed=1)
    if route == "stationary":
        ctx = RestrictionContext.stationary(K)
    else:
        ends = BoundaryPair(L=np.array([1.0, 0, 0]), R=np.ones(3) / np.sqrt(3))
        ctx = RestrictionContext.from_boundaries(K, ends, ChainGeometry(2, 2, 2))
    assert cmi_report(ctx, 2).classical_cmi >= 0.0
    k2_for = RestrictionContext.k2_for
    monkeypatch.setattr(RestrictionContext, "k2_for", lambda self, n: k2_for(self, n) * (1 + 1e-9))
    with pytest.raises(InvalidDistribution, match="sum"):
        cmi_report(ctx, 2)


# ------------------------------------------------- the family's record of scans


def _spy_walks(monkeypatch) -> tuple[list[int], list[list[int]]]:
    """The depth of every tree the scans and f_series form, and the depths
    each scan walk leafs."""
    trees, leafed = [], []
    products, string_sum = restriction._products, restriction._string_sum

    def spy_products(*args):
        trees.append(args[2])
        return products(*args)

    def spy_sum(tree, depths, leaf):
        leafed.append(list(depths))
        return string_sum(tree, depths, leaf)

    monkeypatch.setattr(restriction, "_products", spy_products)
    monkeypatch.setattr(purity, "_products", spy_products)
    monkeypatch.setattr(restriction, "_string_sum", spy_sum)
    return trees, leafed


def test_f_series_after_the_scans_forms_no_product(monkeypatch):
    """After restriction_scan of n = 1..9 on Haar D4 d3, f_series(9) reads
    the family's record: it forms no product (a fresh family's takes one
    walk of 29,523 leaves) and equals the fresh family's series."""
    K = haar_kraus(4, 3, seed=1)
    ctx = RestrictionContext.stationary(K)
    scans = [restriction_scan(ctx, m) for m in range(1, 10)]
    trees, leafed = _spy_walks(monkeypatch)
    f = f_series(K, ctx.sigma, ctx.f_op, 9)
    assert trees == [] and leafed == []
    monkeypatch.undo()
    fresh = RestrictionContext.stationary(haar_kraus(4, 3, seed=1))
    assert f == f_series(fresh.kraus, fresh.sigma, fresh.f_op, 9)
    assert scans == [restriction_scan(fresh, m) for m in range(1, 10)]


def test_a_longer_call_walks_only_the_missing_lengths(monkeypatch):
    """After f_series(5), f_series(7) walks one tree of depth 7 and leafs
    only 6 and 7; a one-length scan leafs its own length alone.  Every
    summary equals a fresh family's walk of its own length."""
    K = haar_kraus(4, 3, seed=1)
    ctx = RestrictionContext.stationary(K)
    f_series(K, ctx.sigma, ctx.f_op, 5)
    trees, leafed = _spy_walks(monkeypatch)
    f = f_series(K, ctx.sigma, ctx.f_op, 7)
    assert trees == [7] and leafed == [[6, 7]]
    scan = restriction_scan(ctx, 8)
    assert trees == [7, 8] and leafed == [[6, 7], [8]]
    monkeypatch.undo()
    fresh = RestrictionContext.stationary(haar_kraus(4, 3, seed=1))
    assert f.values == tuple((m, restriction_scan(fresh, m).f_value) for m in range(1, 8))
    assert scan == restriction_scan(fresh, 8)
    assert sorted(K._sums["scan", ctx.sigma.tobytes(), ctx.f_op.tobytes()]) == list(range(1, 9))


def test_contexts_of_one_family_keep_separate_entries():
    """w, the stationary and a finite context of one family, and a context
    whose sigma differs in one bit, each keep their own entry of the one
    record, and each reads what a fresh family's walk gives."""

    def contexts(K):
        rng = np.random.default_rng(3)
        L, R = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
        b = BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R))
        stationary = RestrictionContext.stationary(K)
        sigma = stationary.sigma.copy()
        sigma[0, 0] = np.nextafter(sigma[0, 0].real, 1.0)
        nudged = RestrictionContext(kraus=K, sigma=sigma, f_op=stationary.f_op)
        return stationary, RestrictionContext.from_boundaries(K, b, ChainGeometry(1, 1, 1)), nudged

    K = haar_kraus(3, 2, seed=2)
    w = purity.w_series(K, 4)
    got = [restriction_scan(ctx, 4) for ctx in contexts(K)]
    assert [key[0] for key in K._sums] == ["w", "scan", "scan", "scan"]
    assert [sorted(sums) for sums in K._sums.values()] == [[1, 2, 3, 4], [4], [4], [4]]
    assert got[0] != got[1]
    want = [restriction_scan(ctx, 4) for ctx in contexts(haar_kraus(3, 2, seed=2))]
    assert got == want
    assert w == purity.w_series(haar_kraus(3, 2, seed=2), 4)


def test_a_repeated_cmi_report_scans_nothing(monkeypatch):
    """cmi_report folds its window sites into a new context each call; the
    record is keyed by that context's bytes, so a second report on one
    context reads its scan and returns the same report."""
    K = damping(0.5)
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ctx = RestrictionContext.from_boundaries(K, BoundaryPair(L=v, R=v), ChainGeometry(1, 3, 1))
    first = cmi_report(ctx, 3, window_a=1, window_c=1)
    _, leafed = _spy_walks(monkeypatch)
    assert cmi_report(ctx, 3, window_a=1, window_c=1) == first
    assert leafed == []


def test_a_recorded_scan_still_runs_every_check(monkeypatch):
    """Once n = 1..9 are recorded, a scan still checks every length, then
    the guard on the longest, then K^2 of each length, in that order,
    before it reads the record; so does f_series."""
    K = haar_kraus(4, 3, seed=1)
    ctx = RestrictionContext.stationary(K)
    f_series(K, ctx.sigma, ctx.f_op, 9)
    calls = (
        lambda n, guard=restriction.DEFAULT_GUARD: restriction_scan(ctx, n, guard=guard),
        lambda n, guard=restriction.DEFAULT_GUARD: f_series(K, ctx.sigma, ctx.f_op, n, guard=guard),
    )
    for call in calls:
        with pytest.raises(EnumerationTooLarge):
            call(9, guard=3**9 - 1)
        with pytest.raises(OutOfRange):
            call(0)
        with pytest.raises(OutOfRange):
            call(0, guard=0)  # the length before the guard
    asked = []
    k2_for = RestrictionContext.k2_for
    monkeypatch.setattr(RestrictionContext, "k2_for", lambda self, n: asked.append(n) or k2_for(self, n))
    with pytest.raises(OutOfRange):
        restriction._scans(ctx, [3, 0], guard=0)
    with pytest.raises(EnumerationTooLarge):
        restriction._scans(ctx, [3, 9], guard=3**9 - 1)
    assert asked == []  # K^2 comes after the length and the guard
    restriction._scans(ctx, [3, 9, 1], guard=3**9)
    assert asked == [3, 9, 1]


def test_a_recorded_length_does_not_skip_k2_of_another():
    K = markov([[0.0, 1.0], [1.0, 0.0]])
    e0 = np.array([1.0, 0.0])
    bare = RestrictionContext.from_boundaries(K, BoundaryPair(L=e0, R=e0), ChainGeometry(0, 2, 0))
    restriction_scan(bare, 2)
    with pytest.raises(ValueError, match="degenerate context"):
        restriction._scans(bare, [2, 3], guard=restriction.DEFAULT_GUARD)
