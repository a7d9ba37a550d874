"""Properties of the one table path and the one CMI path over random Haar
families and boundaries: the engine against the brute-force oracle, and the
paper's inequalities."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from mpsrestrict.chain import BoundaryPair, ChainGeometry
from mpsrestrict.purity import haar_kraus, w_series
from mpsrestrict.restriction import (
    RestrictionContext,
    chain_distribution,
    cmi_report,
    restriction_scan,
)

CASES = st.fixed_dictionaries(
    {
        "D": st.sampled_from([2, 3]),
        "d": st.sampled_from([2, 3]),
        "seed": st.integers(min_value=0, max_value=10**6),
        "a": st.integers(min_value=0, max_value=2),
        "c": st.integers(min_value=0, max_value=2),
        "n": st.integers(min_value=1, max_value=2),
    }
)
LIMITS = settings(max_examples=25, deadline=2000)


def _family(case):
    K = haar_kraus(case["D"], case["d"], case["seed"])
    rng = np.random.default_rng([case["seed"], 7])
    L, R = (rng.standard_normal(case["D"]) + 1j * rng.standard_normal(case["D"]) for _ in range(2))
    return K, BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R))


@LIMITS
@given(CASES)
def test_chain_distribution_is_the_oracle(case):
    K, b = _family(case)
    sites = case["a"] + case["n"] + case["c"]
    assert np.max(np.abs(chain_distribution(K, b, sites).table - oracle.chain(K, b, sites))) <= 1e-12


@LIMITS
@given(CASES)
def test_cmi_report_on_bare_boundaries_keeps_the_bounds(case):
    K, b = _family(case)
    a, n, c = case["a"], case["n"], case["c"]
    bare = RestrictionContext.from_boundaries(K, b, ChainGeometry(0, a + n + c, 0))
    rep = cmi_report(bare, n, a, c)
    assert rep.classical_cmi <= rep.quantum_cmi + 1e-9
    assert abs(rep.p_sum - 1.0) <= 1e-12
    assert rep.f <= w_series(K, n).value_at(n) + 1e-12


@LIMITS
@given(CASES)
def test_stationary_cmi_report_quantum_side_is_the_scan(case):
    K, _ = _family(case)
    ctx = RestrictionContext.stationary(K)
    rep = cmi_report(ctx, case["n"], case["a"], case["c"])
    scan = restriction_scan(ctx, case["n"])
    assert rep.avg_entropy == scan.avg_entropy
    assert rep.quantum_cmi == 2.0 * scan.avg_entropy
    assert rep.avg_purity_q == scan.avg_purity_q
    assert rep.p_sum == scan.p_sum
    assert rep.f == scan.f_value
