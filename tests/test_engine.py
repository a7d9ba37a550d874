"""The chunked product-tree engine against the brute-force oracle and the
recursive walk it replaced."""

import tracemalloc

import numpy as np
import pytest

import oracle
from mpsrestrict.chain import BoundaryPair, ChainGeometry, KrausFamily, renormalize
from mpsrestrict.gibbs import ChainDistribution
from mpsrestrict.models import aklt, aklt_pauli, clock, damping, jordan, markov
from mpsrestrict.purity import (
    constructive_purity_family,
    correctable_subspace,
    f_series,
    haar_kraus,
    product_set,
    span_purity_test,
    w_series,
)
from mpsrestrict.restriction import (
    _CHUNK_STRINGS,
    RestrictionContext,
    _adjoint,
    _norm2,
    _products,
    _string_sum,
    _string_table,
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
        tree = _products(ops, root, 5, guard=5**5)
        chunks = list(tree)
        assert (tree.count, tree.size) == (5**5 // per_chunk, per_chunk)
        # a Haar family has no zero product: every chunk is whole
        assert [c for c, _, _ in chunks] == list(range(tree.count))
        assert all(np.array_equal(live, np.arange(per_chunk)) for _, live, _ in chunks)
        assert {len(W) for _, _, W in chunks} == {per_chunk}
        assert per_chunk * root.shape[1] <= _CHUNK_STRINGS * 3 < 5 * per_chunk * root.shape[1]
        want = np.array([oracle.product(ops, root, xs) for xs in oracle.strings(5, 5)])
        assert np.max(np.abs(np.concatenate([W for _, _, W in chunks]) - want)) <= TOL


def test_aklt_window_forms_only_the_live_leaves():
    """A_+ A_+ = A_- A_- = 0, so of the 3^12 strings of the largest window
    of ``analyze --builtin aklt --nmax 8`` only 8191 have a non-zero product;
    only those leaves are formed, in 255 of the 2187 chunks."""
    ctx = RestrictionContext.stationary(aklt())
    tree = _products(ctx.kraus.ops, ctx.sqrt_sigma, 12, guard=3**12)
    chunks = list(tree)
    assert (tree.count, tree.size) == (3**7, 3**5)
    assert len(chunks) == 255
    assert sum(len(W) for _, _, W in chunks) == 8191
    for c, live, W in chunks:
        assert np.all(np.diff(live) > 0) and len(live) == len(W)
        assert np.all(W.reshape(len(W), -1).any(axis=1))
    strings = np.concatenate([c * tree.size + live for c, live, _ in chunks])
    assert np.array_equal(np.flatnonzero(window_distribution(ctx, 12).table), strings)


def _nilpotent() -> np.ndarray:
    """Two operators whose every product of length >= 2 is exactly zero."""
    N = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return np.stack([N, 0.5 * N])


@pytest.mark.parametrize("n", [2, 3, 10])
def test_an_enumeration_of_zero_products_gives_zeros_of_the_right_shape(n):
    ops = _nilpotent()
    eye = np.eye(2, dtype=complex)
    assert list(_products(ops, eye, n, guard=2**n)) == []
    table = _string_table(_products(ops, eye, n, guard=2**n), _norm2)
    assert table.shape == (2**n,) and table.dtype == float and not table.any()
    acc = _string_sum(_products(ops, eye, n, guard=2**n), lambda W: _adjoint(W) @ W)
    assert acc.shape == (2, 2) and acc.dtype == complex and not acc.any()
    rows = _string_sum(_products(ops, eye, n, guard=2**n), lambda W: np.zeros((len(W), 5)))
    assert rows.shape == (5,) and not rows.any()


def test_w_series_bounds_the_exterior_square_slices():
    """At D = 8 a chunk's 512 exterior squares (28 x 28) would take 6.4 MB,
    against 0.5 MB for its 512 products; in slices of 41 wedges the whole
    series peaks below 8 chunks of products."""
    K = haar_kraus(8, 2, seed=1)
    chunk_bytes = _CHUNK_STRINGS * 8 * 8 * 16
    assert max(1, _CHUNK_STRINGS * 8**2 // 28**2) * 28**2 * 16 <= chunk_bytes
    tracemalloc.start()
    try:
        w = w_series(K, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * chunk_bytes
    assert abs(w.value_at(9) - oracle.w_values(K, 9)[-1]) <= TOL


def test_window_distribution_keeps_small_environment_eigenvalues():
    """Only rounding noise is cut from an environment's range: eigenvalues of
    1e-9 and 1e-10 still count, to the oracle's precision."""
    K = haar_kraus(2, 3, seed=5)
    ctx = RestrictionContext(
        kraus=K, sigma=np.diag([1.0 - 1e-9, 1e-9]), f_op=np.diag([1.0, 1e-5]), k2=1.0
    )
    assert np.max(np.abs(window_distribution(ctx, 4).table - oracle.window(ctx, 4))) <= TOL


def _block_diagonal() -> KrausFamily:
    """kron(1_2, A_x): every projector onto C^2 (x) v compresses to a scalar."""
    return KrausFamily(ops=np.stack([np.kron(np.eye(2), A) for A in haar_kraus(2, 2, seed=3).ops]))


def _near_pauli() -> KrausFamily:
    """The Pauli family moved by 1e-10: its rank-2 subspaces stay within the
    scalar tolerance with residuals near 1e-10, well above the test's 1e-12."""
    rng = np.random.default_rng(0)
    ops = aklt_pauli().ops
    return renormalize(ops + 1e-10 * (rng.standard_normal(ops.shape) + 1j * rng.standard_normal(ops.shape)))


def _zero_then_damping() -> KrausFamily:
    return KrausFamily(ops=np.concatenate([np.zeros((1, 2, 2)), damping(0.5).ops]))


STAIRCASE_FAMILIES = {
    "aklt": (aklt, 5),
    "aklt-pauli": (aklt_pauli, 5),
    "jordan-2": (lambda: jordan(2), 6),
    "jordan-4": (lambda: jordan(4), 6),
    "damping": (lambda: damping(0.5), 7),
    "markov": (markov, 4),
    "clock-3": (lambda: clock(3), 3),
    "haar-D2-d2": (lambda: haar_kraus(2, 2, seed=3), 7),
    "haar-D3-d3": (lambda: haar_kraus(3, 3, seed=5), 5),
    "block-diagonal": (_block_diagonal, 5),
    "near-pauli": (_near_pauli, 4),
    "zero-then-damping": (_zero_then_damping, 7),
}


@pytest.mark.parametrize("name", sorted(STAIRCASE_FAMILIES))
def test_correctable_subspace_matches_the_list_search(name):
    make, n_max = STAIRCASE_FAMILIES[name]
    K = make()
    rep = correctable_subspace(K, n_max)
    ranks, projectors, residuals = oracle.correctable(K, n_max)
    assert rep.max_ranks == ranks
    assert max(abs(a - b) for a, b in zip(rep.residuals, residuals)) <= TOL
    assert max(np.max(np.abs(a - b)) for a, b in zip(rep.projectors, projectors)) <= TOL


def test_zero_then_damping_branches_on_a_product_in_a_later_chunk():
    """With a zero operator first, every string holding symbol 0 gives a zero
    product, so the first non-scalar one is A_1^7, string 1093, in the fifth
    chunk of 243.  The walk skips the dead chunks before it (those whose
    prefix holds the zero operator), so the search reaches it first."""
    K = _zero_then_damping()
    tree = _products(K.ops, np.eye(2, dtype=complex), 7, guard=3**7)
    assert (tree.count, tree.size) == (9, 243)
    chunks = [(c, live) for c, live, _ in tree]
    # chunks 0-3 and 6 have the zero operator in their prefix; chunk 8 is A_2 A_2 = 0
    assert [c for c, _ in chunks] == [4, 5, 7]
    assert 4 * 243 + chunks[0][1][0] == 1093 == 4 * 243 + 121
    spread = [np.ptp(np.linalg.eigvalsh(M)) for M in oracle.product_set(K, 7)]
    assert int(np.flatnonzero(np.array(spread) > 1e-8)[0]) == 1093
    assert correctable_subspace(K, 7).max_ranks == (1,) * 7


@pytest.mark.parametrize("name", sorted(STAIRCASE_FAMILIES))
def test_span_recursion_matches_the_enumerated_gram_ranks(name):
    make, n_max = STAIRCASE_FAMILIES[name]
    K = make()
    assert span_purity_test(K, n_max)[1] == oracle.span_ranks(K, n_max)


def test_span_purity_test_forms_no_string_product(monkeypatch):
    from mpsrestrict import purity

    def enumerated(*args, **kwargs):
        raise AssertionError("span_purity_test walked the product engine")

    monkeypatch.setattr(purity, "_products", enumerated)
    assert span_purity_test(aklt(), 8) == (None, [2] * 8)
    assert span_purity_test(haar_kraus(3, 5, seed=0), 4) == (2, [5, 9, 9, 9])


def test_span_purity_test_runs_past_the_enumeration_guard():
    """3^20 strings are far past the default guard of 2,000,000; the
    recursion's cost does not grow with d^n."""
    assert span_purity_test(haar_kraus(4, 3, seed=1), 20) == (3, [3, 9] + [16] * 18)


def test_span_recursion_does_not_underflow_at_long_lengths():
    """Tr S_n of this family falls below 1e-303 by n = 700; unscaled, the
    rank series dropped from 9 to 0 by n = 750."""
    assert span_purity_test(haar_kraus(3, 3, seed=1), 1000) == (2, [3] + [9] * 999)


def test_constructive_family_certifies_by_length_2d_minus_1():
    """The D = 5 family's witness strings have length 2D - 1 = 9."""
    assert span_purity_test(constructive_purity_family(5), 9) == (5, [2, 5, 13, 22, 25, 25, 25, 25, 25])
