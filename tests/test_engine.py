"""The chunked product-tree engine against the brute-force oracle and the
recursive walk it replaced."""

import numpy as np
import pytest

import oracle
from mpsrestrict.chain import BoundaryPair, ChainGeometry
from mpsrestrict.gibbs import ChainDistribution
from mpsrestrict.models import aklt
from mpsrestrict.purity import f_series, haar_kraus, product_set, span_purity_test, w_series
from mpsrestrict.restriction import (
    _CHUNK_STRINGS,
    RestrictionContext,
    _products,
    chain_distribution,
    restriction_scan,
    window_distribution,
)
from mpsrestrict.trajectories import mean_m_check, purification_statistic

TOL = 1e-12

# n keeps the oracle small (d^n <= 125), except one case, 3^8, above the
# chunk size of 512 strings
CASES = [
    (D, d, mode, {2: 6, 3: 4, 5: 3}[d])
    for D in (2, 3, 4)
    for d in (2, 3, 5)
    for mode in ("stationary", "finite")
] + [(3, 3, "finite", 8)]


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("D,d,mode,n", CASES)
def test_engine_matches_brute_force(D, d, mode, n):
    K = haar_kraus(D, d, seed=10 * D + d)
    rng = np.random.default_rng([D, d])
    b = BoundaryPair(L=_unit(rng, D), R=_unit(rng, D))
    if mode == "stationary":
        ctx = RestrictionContext.stationary(K)
    else:
        ctx = RestrictionContext.from_boundaries(K, b, ChainGeometry(len_a=1, len_b=1, len_c=2))

    got = restriction_scan(ctx, n)
    for field, want in oracle.scan(ctx, n).items():
        assert abs(getattr(got, field) - want) <= TOL, field
    assert np.max(np.abs(window_distribution(ctx, n).table - oracle.window(ctx, n))) <= TOL
    assert np.max(np.abs(chain_distribution(K, b, n).table - oracle.chain(K, b, n))) <= TOL

    w = w_series(K, n)
    f = f_series(K, ctx.sigma, ctx.f_op, n)
    for (m, got_w), want_w in zip(w.values, oracle.w_values(K, n)):
        assert abs(got_w - want_w) <= TOL, m
    for (m, got_f), want_f in zip(f.values, oracle.f_values(K, ctx.sqrt_sigma, ctx.f_op, n)):
        assert abs(got_f - want_f) <= TOL, m
    assert abs(mean_m_check(K, n) - oracle.mean_m_residual(K, n)) <= TOL
    assert abs(purification_statistic(K, n) - oracle.purification(K, n)) <= TOL

    # the operator-space objects grow as d^n x D^4; keep them small
    n_ops = max(m for m in range(1, n + 1) if d**m <= 125)
    for got_m, want_m in zip(product_set(K, n_ops), oracle.product_set(K, n_ops)):
        assert np.max(np.abs(got_m - want_m)) <= TOL
    assert span_purity_test(K, n_ops)[1] == oracle.span_ranks(K, n_ops)


def test_restriction_scan_is_the_depth_first_walk_bit_for_bit():
    """The golden report relies on the walk's summation order: every node
    adds its children in symbol order, starting from zero."""
    ctx = RestrictionContext.stationary(aklt())
    assert 3**10 > _CHUNK_STRINGS
    assert restriction_scan(ctx, 10) == oracle.dfs_scan(ctx, 10)


def test_window_distribution_is_the_per_string_norm_bit_for_bit():
    K = haar_kraus(3, 3, seed=4)
    ctx = RestrictionContext.stationary(K)
    raw = [
        np.linalg.norm(ctx.f_op @ oracle.product(K.ops, ctx.sqrt_sigma, xs)) ** 2 / ctx.k2_for(8)
        for xs in oracle.strings(3, 8)
    ]
    want = ChainDistribution(length=8, d=3, table=np.array(raw)).table  # renormalized alike
    assert np.array_equal(window_distribution(ctx, 8).table, want)


def test_products_bound_each_chunk_by_memory():
    """A chunk of D x r products holds at most _CHUNK_STRINGS * D / r of
    them: square stacks split as before, vector walks take D times more."""
    ops = haar_kraus(3, 5, seed=1).ops
    for root, per_chunk in ((np.eye(3, dtype=complex), 125), (np.ones((3, 1), dtype=complex), 625)):
        chunks = list(_products(ops, root, 5, guard=5**5))
        assert {len(c) for c in chunks} == {per_chunk}
        assert per_chunk * root.shape[1] <= _CHUNK_STRINGS * 3 < 5 * per_chunk * root.shape[1]
        want = np.array([oracle.product(ops, root, xs) for xs in oracle.strings(5, 5)])
        assert np.max(np.abs(np.concatenate(chunks) - want)) <= TOL


def test_window_distribution_keeps_small_environment_eigenvalues():
    """Only rounding noise is cut from an environment's range: eigenvalues of
    1e-9 and 1e-10 still count, to the oracle's precision."""
    K = haar_kraus(2, 3, seed=5)
    ctx = RestrictionContext(
        kraus=K, sigma=np.diag([1.0 - 1e-9, 1e-9]), f_op=np.diag([1.0, 1e-5]), k2=1.0
    )
    assert np.max(np.abs(window_distribution(ctx, 4).table - oracle.window(ctx, 4))) <= TOL
