"""The product-tree engine against the brute-force oracle and the
recursive walk it replaced."""

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from families import block_diagonal, dark_block_family, near_pauli
from mpsrestrict.chain import BoundaryPair, ChainGeometry, KrausFamily
from mpsrestrict.gibbs import ChainDistribution
from mpsrestrict.models import aklt, aklt_pauli, clock, damping, jordan, markov
from mpsrestrict import purity, restriction
from mpsrestrict.purity import (
    constructive_purity_family,
    correctable_subspace,
    f_series,
    haar_kraus,
    product_set,
    purity_verdict,
    span_purity_test,
    w_series,
)
from mpsrestrict.restriction import (
    _CHUNK_STRINGS,
    RestrictionContext,
    _adjoint,
    _capped_norm2,
    _products,
    _string_sum,
    _string_tables,
    chain_distribution,
    restriction_scan,
    window_distribution,
)
from mpsrestrict.trajectories import mean_m_check, purification_statistic

TOL = 1e-12

# n keeps the oracle small (d^n <= 125), except one case, 3^8, above the
# stack cap of 512 products
CASES = [
    (D, d, mode, {2: 6, 3: 4, 5: 3}[d])
    for D in (2, 3, 4)
    for d in (2, 3, 5)
    for mode in ("stationary", "finite")
] + [(3, 3, "finite", 8)]


def _leaf_stacks(tree) -> list:
    """(index, stack) for each stack of the tree's leaves, in walk order."""
    return [(index, W) for _, index, W in tree.levels([tree.n])]


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

    # the statistic walks before w_series records its length on the family
    assert abs(purification_statistic(K, n) - oracle.purification(K, n)) <= TOL
    w = w_series(K, n)
    f = f_series(K, ctx.sigma, ctx.f_op, n)
    for (m, got_w), want_w in zip(w.values, oracle.w_values(K, n)):
        assert abs(got_w - want_w) <= TOL, m
    for (m, got_f), want_f in zip(f.values, oracle.f_values(K, ctx.sqrt_sigma, ctx.f_op, n)):
        assert abs(got_f - want_f) <= TOL, m
    assert abs(mean_m_check(K, n) - oracle.mean_m_residual(K, n)) <= TOL

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
    """Each entry is the table leaf's squared norm of its string's product,
    formed one string at a time, however the walk splits and batches."""
    K = haar_kraus(3, 3, seed=4)
    ctx = RestrictionContext.stationary(K)
    raw = [
        _capped_norm2(ctx.f_op, oracle.product(K.ops, ctx.sqrt_sigma, xs)[None])[0] / ctx.k2_for(8)
        for xs in oracle.strings(3, 8)
    ]
    want = ChainDistribution(length=8, d=3, table=np.array(raw)).table  # renormalized alike
    assert np.array_equal(window_distribution(ctx, 8).table, want)


def test_products_bound_each_chunk_by_memory():
    """A stack of D x r products holds at most _CHUNK_STRINGS * D / r of
    them: square stacks and vector walks, which take D times more.  A dense
    walk takes as many whole subtrees as fit, so its stacks are near the cap,
    and it indexes them by ranges, with no index arithmetic."""
    K = haar_kraus(3, 5, seed=1)
    # eye: the walk splits 125 prefixes of length 3 into runs of 20 whole
    # subtrees of 25 leaves; vector: 625 prefixes of length 4 into runs of 307
    walks = [
        (np.eye(3, dtype=complex), [500] * 6 + [125]),
        (np.ones((3, 1), dtype=complex), [1535, 1535, 55]),
    ]
    for root, sizes in walks:
        stacks = _leaf_stacks(_products(K, root, 5, guard=5**5))
        assert [len(W) for _, W in stacks] == sizes
        assert max(sizes) * root.shape[1] <= _CHUNK_STRINGS * 3
        # a Haar family has no zero product: the ranges tile all strings in order
        assert all(isinstance(index, range) for index, _ in stacks)
        strings = np.concatenate([np.arange(5**5)[index] for index, _ in stacks])
        assert np.array_equal(strings, np.arange(5**5))
        want = np.array([oracle.product(K.ops, root, xs) for xs in oracle.strings(5, 5)])
        assert np.max(np.abs(np.concatenate([W for _, W in stacks]) - want)) <= TOL


def test_aklt_window_forms_only_the_live_leaves():
    """A_+ A_+ = A_- A_- = 0, so of the 3^12 strings of the largest window
    of ``analyze --builtin aklt --nmax 8`` only 8191 have a non-zero product.
    Only those leaves are formed, and the cap counts only them, so they come
    in 28 stacks, where splitting by the 3^12 strings gave 255 chunks."""
    ctx = RestrictionContext.stationary(aklt())
    stacks = _leaf_stacks(_products(ctx.kraus, ctx.sqrt_sigma, 12, guard=3**12))
    assert len(stacks) == 28
    assert sum(len(W) for _, W in stacks) == 8191
    assert max(len(W) for _, W in stacks) <= _CHUNK_STRINGS
    for index, W in stacks:
        assert len(index) == len(W)
        assert np.all(W.reshape(len(W), -1).any(axis=1))
    strings = np.concatenate([index for index, _ in stacks])
    assert np.all(np.diff(strings) > 0)
    assert np.array_equal(np.flatnonzero(window_distribution(ctx, 12).table), strings)


def test_one_walk_reports_each_aklt_level_once():
    """Walked to 12 sites, the AKLT tree reports every level from the run
    that grows it: level m has 2^(m+1) - 1 non-zero products, each yielded
    once and in lexicographic order, and the level-12 stacks are the ones
    a walk of the leaves alone yields."""
    ctx = RestrictionContext.stationary(aklt())
    tree = _products(ctx.kraus, ctx.sqrt_sigma, 12, guard=3**12)
    seen = {m: [] for m in range(1, 13)}
    leaves = []
    for m, index, stack in tree.levels(range(1, 13)):
        assert len(index) == len(stack) <= _CHUNK_STRINGS
        seen[m].append(index)
        if m == 12:
            leaves.append(index)
    for m, parts in seen.items():
        strings = np.concatenate(parts)
        assert len(strings) == 2 ** (m + 1) - 1, m
        assert np.all(np.diff(strings) > 0), m
    assert all(np.array_equal(a, b) for (a, _), b in zip(_leaf_stacks(tree), leaves, strict=True))


def test_tables_join_a_levels_small_stacks_up_to_the_cap():
    """On a dense vector walk of 5^8 strings each run below the split at
    depth 4 holds two prefixes, so depth 5 comes in 313 stacks of at most
    10 nodes.  The table path joins them up to the cap of 1536 nodes, so
    the leaf runs 3 times at depth 5, with the table of the run-by-run
    leaves bit for bit.  The leaves (1250 per run) are left as they come."""
    K = haar_kraus(3, 5, seed=1)
    root = np.ones((3, 1), dtype=complex) / np.sqrt(3)
    tree = _products(K, root, 8, guard=5**8)
    assert tree.cap == 1536
    assert len([s for m, _, s in tree.levels([5]) if m == 5]) == 313
    calls = {5: 0, 8: 0}

    def leaf(m, W):
        calls[m] += len(W) > 0
        return _capped_norm2(None, W)

    tables = _string_tables(tree, [5, 8], leaf)
    assert calls == {5: 3, 8: 313}
    want = np.zeros(5**5)
    for m, index, W in tree.levels([5]):
        want[index] = _capped_norm2(None, W)
    assert np.array_equal(tables[5], want)
    alone = _string_tables(_products(K, root, 8, guard=5**8), [8], lambda _, W: _capped_norm2(None, W))
    assert np.array_equal(tables[8], alone[8])


def test_window_distribution_adopts_its_raw_table():
    """The ChainDistribution normalizes its walk's raw table in place, so
    the walk and the 12-site distribution of the valence-bond chain peak
    within 1.2 times the raw table's bytes: a clipped copy of the table
    would take as many bytes again."""
    ctx = RestrictionContext.stationary(aklt())
    ctx.k2_for(12)  # the cached environments are not the table's memory
    raw_bytes = 8 * 3**12
    tracemalloc.start()
    try:
        p = window_distribution(ctx, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * raw_bytes
    assert p.table.nbytes == raw_bytes


def test_classical_cmi_holds_one_temporary_of_its_table():
    """The classical CMI of the dense 5^8 finite table of a Haar D3 d5
    family (no zero strings) takes its four entropies with one temporary
    each, so it peaks within 1.25 tables once the table is built: a masked
    copy, a log array and a product array would take three."""
    rng = np.random.default_rng(35)
    L, R = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
    K = haar_kraus(3, 5, 1)
    geom = ChainGeometry(2, 4, 2)
    p = chain_distribution(K, BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R)), geom)
    assert p.min_entry > 0.0
    tracemalloc.start()
    try:
        cmi = restriction.classical_cmi(p, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * p.table.nbytes

    def h(m):  # the masked product summed, as the entropies were taken before
        pos = m.ravel()[m.ravel() > 0.0]
        return float(-np.sum(pos * np.log(pos)))

    arr = p.as_array()
    assert cmi == h(arr.sum(axis=(6, 7))) + h(arr.sum(axis=(0, 1))) - h(arr.sum(axis=(0, 1, 6, 7))) - h(arr)


def _nilpotent() -> np.ndarray:
    """Two operators whose every product of length >= 2 is exactly zero."""
    N = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return np.stack([N, 0.5 * N])


@pytest.mark.parametrize("n", [2, 3, 10])
def test_an_enumeration_of_zero_products_gives_zeros_of_the_right_shape(n):
    # not left-normalized: a family whose length-2 products all vanish cannot be
    K = KrausFamily(ops=_nilpotent(), atol=2.0)
    eye = np.eye(2, dtype=complex)
    assert _leaf_stacks(_products(K, eye, n, guard=2**n)) == []
    table = _string_tables(_products(K, eye, n, guard=2**n), [n], lambda _, W: _capped_norm2(None, W))[n]
    assert table.shape == (2**n,) and table.dtype == float and not table.any()
    acc = _string_sum(_products(K, eye, n, guard=2**n), [n], lambda _, W: _adjoint(W) @ W)[n]
    assert acc.shape == (2, 2) and acc.dtype == complex and not acc.any()
    rows = _string_sum(_products(K, eye, n, guard=2**n), [n], lambda _, W: np.zeros((len(W), 5)))[n]
    assert rows.shape == (5,) and not rows.any()


def test_w_series_bounds_the_exterior_square_slices():
    """At D = 8 a stack's 512 exterior squares (28 x 28) would take 6.4 MB,
    against 0.5 MB for its 512 products; in slices of 41 wedges the whole
    series peaks below 8 stacks of products.  Most Haar products take the
    Gram route, whose W^dag W stack is the size of the products."""
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


def test_f_series_peaks_below_eight_stacks():
    """f_series walks one tree to n = 9 (3^9 products of a D = 4 Haar
    family) and reduces each run's rows as it goes: with the scans' other
    columns beside f, it still peaks below 8 stacks of products.  Its f(9)
    is that of a length-9 walk on a fresh family."""
    K = haar_kraus(4, 3, seed=1)
    ctx = RestrictionContext.stationary(K)
    chunk_bytes = _CHUNK_STRINGS * 4 * 4 * 16
    tracemalloc.start()
    try:
        f = f_series(K, ctx.sigma, ctx.f_op, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * chunk_bytes
    assert f.value_at(9) == restriction_scan(RestrictionContext.stationary(haar_kraus(4, 3, seed=1)), 9).f_value


def _rank_one_family() -> KrausFamily:
    """A_x = u_x e_x^dag (D = d = 8): every product has rank 1."""
    rng = np.random.default_rng(1)
    u = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    return KrausFamily(ops=np.einsum("xi,xj->xij", u / np.linalg.norm(u, axis=1)[:, None], np.eye(8)))


# per caller: its call on the rank-1 family, the oracle of its value and the
# lengths whose products it weighs
RANK_ONE_CALLERS = {
    "w_series": (
        lambda K, ctx: w_series(K, 4).value_at(4),
        lambda K, ctx: oracle.w_values(K, 4)[-1],
        range(1, 5),
    ),
    "restriction_scan": (
        lambda K, ctx: restriction_scan(ctx, 4).f_value,
        lambda K, ctx: oracle.scan(ctx, 4)["f_value"],
        [4],
    ),
    "purification_statistic": (
        lambda K, ctx: purification_statistic(K, 4),
        lambda K, ctx: oracle.w_values(K, 4)[-1],
        [4],
    ),
}


@pytest.mark.parametrize("caller", sorted(RANK_ONE_CALLERS))
def test_w_series_bounds_the_exterior_square_slices_of_rank_one_products(caller, monkeypatch):
    """Every product of the rank-1 family takes the exterior square, 4096 at
    length 4 in stacks of 512: unsliced, one stack's squares alone (6.4 MB)
    would break the bound of 8 stacks of products that the slices of 41
    keep.  The same kernel slices them for w_series' check, the scans' f and
    purification_statistic."""
    K = _rank_one_family()
    ctx = RestrictionContext.stationary(K)
    ctx.k2_for(4)  # the cached environments are not the caller's memory
    call, want, lengths = RANK_ONE_CALLERS[caller]
    formed = []
    minors = restriction.exterior_square

    def spy(O):
        formed.append(len(O))
        return minors(O)

    monkeypatch.setattr(restriction, "exterior_square", spy)
    chunk_bytes = _CHUNK_STRINGS * 8 * 8 * 16
    tracemalloc.start()
    try:
        got = call(K, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * chunk_bytes
    assert sum(formed) == sum(8**n for n in lengths) and max(formed) == 41
    assert abs(got - want(K, ctx)) <= TOL


def test_w_series_streams_its_rows():
    """The 2^16 leaves of a dense D = 3 family give 1 MB of w rows, over 14
    stacks' worth of products.  The engine reduces each run's rows before it
    forms the next, so the series peaks below 8 stacks, and a walk that
    collected every row before reducing would fail here.  (At D = 2, w is a
    closed form that walks nothing.)"""
    K = haar_kraus(3, 2, seed=1)
    stack_bytes = _CHUNK_STRINGS * 3 * 3 * 16
    assert 2**16 * 2 * 8 > 14 * stack_bytes
    tracemalloc.start()
    try:
        w = w_series(K, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * stack_bytes
    products = K.ops
    for _ in range(15):
        products = np.matmul(K.ops[None], products[:, None]).reshape(-1, 3, 3)
    s = np.linalg.svd(products, compute_uv=False)
    assert w.value_at(16) == oracle.tree_sum(s[:, 0] * s[:, 1], 2)


def test_one_walk_scans_stream_their_rows():
    """Scanned from one walk, lengths 1..15 of a dense D = 2 family hold
    each length's partial families at once: about 610 KB at the peak, 19
    stacks' worth of products, against 300 KB for fifteen walks.  The bound
    of 24 stacks leaves a quarter for allocator noise; holding every row of
    the 2^16 strings before reducing (2.6 MB) would fail here.  Each summary
    is that of its own walk on a fresh family, bit for bit."""
    ctx = RestrictionContext.stationary(haar_kraus(2, 2, seed=1))
    ctx.k2_for(15)  # the cached environments are not the scans' memory
    stack_bytes = _CHUNK_STRINGS * 2 * 2 * 16
    tracemalloc.start()
    try:
        scans = restriction._scans(ctx, range(1, 16), guard=2**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * stack_bytes
    fresh = RestrictionContext.stationary(haar_kraus(2, 2, seed=1))
    assert scans == {n: restriction_scan(fresh, n) for n in range(1, 16)}


def test_the_tree_order_sum_is_within_two_ulp_of_the_exact_sum():
    """Over 2^14 strings the tree order is 0-1 ulp from a correctly rounded
    sum in both columns; in the nu1 nu2 column a lexicographic running sum
    is off by thousands of ulp and adding np.sum(axis=0) of each stack by
    tens.  That accuracy is what the order is kept for."""
    K = haar_kraus(2, 2, seed=3)

    def leaf(_, W):
        s = np.linalg.svd(W, compute_uv=False)
        return np.stack([(s**2).sum(axis=1), s[:, 0] * s[:, 1]], axis=1)

    eye = np.eye(2, dtype=complex)
    total = _string_sum(_products(K, eye, 14, 2**14), [14], leaf)[14]
    table = _string_tables(_products(K, eye, 14, 2**14), [14], leaf)[14]
    for col in range(2):
        exact = math.fsum(table[:, col])
        assert abs(total[col] - exact) <= 2 * np.spacing(exact)


def _exact_norm2(cap: np.ndarray, P: np.ndarray) -> tuple[Fraction, Fraction]:
    """||cap @ P||_F^2 of the floats as given, in exact rational arithmetic,
    and sum_{c,r} S_cr^2 with S_cr = sum_j |cap_cj| |P_jr| (in floats)."""
    F = Fraction
    norm2 = F(0)
    for c in range(cap.shape[0]):
        for r in range(P.shape[1]):
            terms = [(F(a.real), F(a.imag), F(b.real), F(b.imag)) for a, b in zip(cap[c], P[:, r])]
            re = sum(ar * br - ai * bi for ar, ai, br, bi in terms)
            im = sum(ar * bi + ai * br for ar, ai, br, bi in terms)
            norm2 += re * re + im * im
    scale = float(np.sum((np.abs(cap) @ np.abs(P)) ** 2))
    return norm2, F(scale)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("c,r", [(1, 1), (2, 1), (1, 2), (2, 2), (4, 1), (3, 3), (1, 9)])
@pytest.mark.parametrize("cap_kind", ["none", "adjoint"])
def test_the_table_leaf_is_within_a_few_eps_of_the_exact_norm(seed, c, r, cap_kind):
    """Against exact rational arithmetic, the table leaf's ||cap @ P||^2 is
    off by at most (2 D + c r + 4) eps sum_{c,r} S_cr^2, where S_cr =
    sum_j |cap_cj| |P_jr| bounds each entry's terms: the forward error of a
    length-D complex dot product, squared and summed over c r entries.  The
    bound is on the terms, not on the result, so rows built to cancel (a cap
    nearly orthogonal to the columns of P) test it where the result is tiny.
    The np.linalg.norm route the tables took before keeps the same bound."""
    rng = np.random.default_rng([seed, c, r])
    D = 3 if cap_kind == "adjoint" else c
    P = rng.standard_normal((12, D, r)) + 1j * rng.standard_normal((12, D, r))
    P *= 2.0 ** rng.integers(-30, 30, size=(12, 1, 1))  # rows of unrelated size
    Y = rng.standard_normal((D, c)) + 1j * rng.standard_normal((D, c))
    cancel = range(8, 12) if cap_kind == "adjoint" and r < D else range(0)
    if cancel:
        # the cap's rows are orthogonal to span(B), and the columns of the
        # last products lie in span(B) up to 1e-9
        B = np.linalg.qr(P[0] / np.linalg.norm(P[0]))[0]
        Y -= B @ (B.conj().T @ Y)
        for i in cancel:
            G = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            P[i] = B @ G + 1e-9 * P[i] / np.linalg.norm(P[i])
    cap = None if cap_kind == "none" else _adjoint(Y)
    got = _capped_norm2(cap, P)
    eps = np.finfo(float).eps
    m = 2 * D + c * r + 4
    for i in range(len(P)):
        exact, scale = _exact_norm2(np.eye(D) if cap is None else cap, P[i])
        if i in cancel:
            assert exact < 1e-12 * scale
        old = np.linalg.norm(P[i] if cap is None else cap @ P[i]) ** 2
        assert abs(Fraction(float(got[i])) - exact) <= m * eps * scale, i
        assert abs(Fraction(float(old)) - exact) <= m * eps * scale, i


def test_pruning_is_decided_once_per_family():
    """The engine looks for zero products only in a family with a singular
    operator, at the tolerance of np.linalg.matrix_rank, and decides so at
    the family's first walk."""
    for K in (aklt(), damping(0.5), _zero_then_damping(), haar_kraus(3, 3, seed=2), markov()):
        assert "_singular" not in vars(K)
        window_distribution(RestrictionContext.stationary(K), 3)
        assert vars(K)["_singular"] == any(np.linalg.matrix_rank(A) < K.D for A in K.ops)


# dense and sparse families, down to one whose products of length >= 2 are
# all zero; the square roots of the dense ones split at the stack cap
PRUNE_FAMILIES = {
    "haar-D3-d3": (lambda: haar_kraus(3, 3, seed=3), 6),
    "haar-D2-d5": (lambda: haar_kraus(2, 5, seed=4), 4),
    "aklt": (aklt, 7),
    "damping": (lambda: damping(0.5), 10),
    "jordan3": (lambda: jordan(3), 10),
    "nilpotent": (lambda: KrausFamily(ops=_nilpotent(), atol=2.0), 10),
}


@pytest.mark.parametrize("cap", [_CHUNK_STRINGS, 4])
@pytest.mark.parametrize("vector", [False, True], ids=["square", "vector"])
@pytest.mark.parametrize("name", sorted(PRUNE_FAMILIES))
def test_the_prune_choice_changes_only_the_speed(name, vector, cap, monkeypatch):
    """A walk that looks for zero products and one that does not give the
    same sums and tables bit for bit: a dense family walked with index
    arrays, and a sparse one with its zero products kept and indexed by
    ranges.  A cap of a few products splits every walk into many stacks.
    Bytes are compared, so a sign of zero counts: every sum starts from
    +0.0, so the -0.0 rows of the nilpotent family's zero products sum to
    +0.0, as its pruned walk, which forms none, does."""
    monkeypatch.setattr(restriction, "_CHUNK_STRINGS", cap)
    make, n = PRUNE_FAMILIES[name]
    K = make()
    root = np.ones((K.D, 1), dtype=complex) / np.sqrt(K.D) if vector else np.eye(K.D, dtype=complex)
    tree = _products(K, root, n, guard=K.d**n)
    other = dataclasses.replace(tree, prune=not tree.prune)
    depths = range(1, n + 1)
    for leaf in (lambda W: _capped_norm2(None, W), lambda W: -_capped_norm2(None, W), lambda W: _adjoint(W) @ W):
        sums = _string_sum(tree, depths, lambda m, W: leaf(W))
        for m, total in _string_sum(other, depths, lambda m, W: leaf(W)).items():
            assert total.tobytes() == sums[m].tobytes(), m
    tables = _string_tables(tree, depths, lambda m, W: _capped_norm2(None, W))
    for m, table in _string_tables(other, depths, lambda m, W: _capped_norm2(None, W)).items():
        assert table.tobytes() == tables[m].tobytes(), m


def test_window_distribution_keeps_small_environment_eigenvalues():
    """Only rounding noise is cut from an environment's range: eigenvalues of
    1e-9 and 1e-10 still count, to the oracle's precision."""
    K = haar_kraus(2, 3, seed=5)
    ctx = RestrictionContext(kraus=K, sigma=np.diag([1.0 - 1e-9, 1e-9]), f_op=np.diag([1.0, 1e-5]))
    assert np.max(np.abs(window_distribution(ctx, 4).table - oracle.window(ctx, 4))) <= TOL


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
    "block-diagonal": (block_diagonal, 5),
    "near-pauli": (near_pauli, 4),
    "zero-then-damping": (_zero_then_damping, 7),
}


@pytest.mark.parametrize("name", sorted(STAIRCASE_FAMILIES))
def test_correctable_subspace_matches_the_list_search(name):
    """The oracle searches every length, so it proves the ranks the staircase
    gives without a search after its first rank-1 length; up to that length
    the two searches agree, and after it the staircase repeats its rank-1
    projector with residual 0."""
    make, n_max = STAIRCASE_FAMILIES[name]
    K = make()
    rep = correctable_subspace(K, n_max)
    ranks, projectors, residuals = oracle.correctable(K, n_max)
    assert rep.max_ranks == ranks
    stop = ranks.index(1) + 1 if 1 in ranks else n_max
    assert max(abs(a - b) for a, b in zip(rep.residuals[:stop], residuals)) <= TOL
    assert max(np.max(np.abs(a - b)) for a, b in zip(rep.projectors[:stop], projectors)) <= TOL
    assert all(r == 0.0 for r in rep.residuals[stop:])
    assert all(P is rep.projectors[stop - 1] for P in rep.projectors[stop:])


@pytest.mark.parametrize("tol", [1e-8, 1e-3, 0.5])
def test_a_staircase_search_walks_the_products_at_most_d_minus_one_times(tol, monkeypatch):
    """A node passes, has rank 1 or splits into eigen-clusters that partition
    it, so one length's search visits nested or orthogonal subspaces: at most
    2D - 1 nodes, and at most D - 1 of rank >= 2, the only ones that walk.
    This bounds every search, so it needs no node budget."""
    walks = []
    real_products, real_search = purity._products, purity._max_scalar_subspace

    def products(*args):
        walks[-1][1] += 1
        return real_products(*args)

    def search(K, n, *args):
        walks.append([K.D, 0])
        return real_search(K, n, *args)

    monkeypatch.setattr(purity, "_products", products)
    monkeypatch.setattr(purity, "_max_scalar_subspace", search)
    families = [(make(), n_max) for make, n_max in STAIRCASE_FAMILIES.values()]
    families += [
        (dark_block_family(r, s, d, seed), 5)
        for r, s, d, seed in itertools.product((2, 3), (0, 1, 2), (1, 2, 3), (0, 53, 126, 391))
    ]
    for K, n_max in families:
        correctable_subspace(K, n_max, tol=tol)
    assert all(count <= D - 1 for D, count in walks), walks
    assert any(count == D - 1 for D, count in walks if D >= 3)  # the bound is reached


def _real_family(D: int, d: int, seed: int) -> KrausFamily:
    """A real isometry from the QR of a Gaussian (d D) x D matrix."""
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((d * D, D)))[0]
    return KrausFamily(ops=Q.reshape(d, D, D).astype(complex))


def _check_ranks_never_rise(K: KrausFamily, n_max: int, tol: float) -> None:
    """The oracle, which searches every length, finds non-increasing ranks,
    and the staircase, which stops at its first rank-1 length, gives them."""
    ranks = oracle.correctable(K, n_max, tol)[0]
    assert all(a >= b for a, b in zip(ranks, ranks[1:])), ranks
    assert correctable_subspace(K, n_max, tol=tol).max_ranks == ranks


@pytest.mark.parametrize("tol", [1e-8, 1e-3])
@pytest.mark.parametrize("name", sorted(STAIRCASE_FAMILIES))
def test_staircase_ranks_never_rise_on_the_named_families(name, tol):
    make, n_max = STAIRCASE_FAMILIES[name]
    _check_ranks_never_rise(make(), n_max, tol)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([haar_kraus, _real_family]),
    st.integers(2, 3),
    st.integers(2, 3),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-8, 1e-3]),
)
def test_staircase_ranks_never_rise_on_random_families(make, D, d, seed, tol):
    _check_ranks_never_rise(make(D, d, seed), 3, tol)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_staircase_ranks_never_rise_on_dark_blocks(r, s, d, seed):
    """At tol 1e-8: at a loose tol the search's ranks can rise on these, as
    ``test_a_loose_search_may_find_a_dark_block_late`` shows."""
    _check_ranks_never_rise(dark_block_family(r, s, d, seed), 3, 1e-8)


def test_a_loose_search_may_find_a_dark_block_late():
    """At D >= 3 the search gives a lower bound, and at a loose tol it can
    find a near-scalar subspace at a longer length that it missed at a
    shorter one: on this D = 3 family with an exactly scalar rank-2 block the
    oracle finds (1, 1, 2).  The staircase stops at rank 1 and gives
    (1, 1, 1), also a lower bound, and the verdict, which trusts rank 1 only
    at D <= 2 or beside some w(m) < 1, stays Undetermined."""
    K = dark_block_family(2, 1, 2, 53)
    assert oracle.correctable(K, 3, 1e-3)[0] == (1, 1, 2)
    assert correctable_subspace(K, 3, tol=1e-3).max_ranks == (1, 1, 1)
    assert purity_verdict(K, 3, tol=1e-3).status == "Undetermined"


def test_block_diagonal_purity_is_undetermined():
    """The span stalls at rank 4 < 16 and the staircase stays at rank 2 on a
    subspace that is not invariant, so neither certificate nor witness is
    found.  Its dark subspace C^2 (x) v makes the true status a violation."""
    v = purity_verdict(block_diagonal(), 5)
    assert v.status == "Undetermined"
    assert v.span_ranks == (2, 4, 4, 4, 4) and v.correctable_ranks == (2,) * 5
    assert "span rank stalled at 4 < 16" in v.evidence


def test_zero_then_damping_branches_on_a_product_in_a_later_chunk():
    """With a zero operator first, every string holding symbol 0 gives a zero
    product, so the first non-scalar one is A_1^7, string 1093.  The walk
    drops the dead subtrees before it (those whose prefix holds the zero
    operator), so its first leaf is that string and the search reaches it
    first."""
    K = _zero_then_damping()
    eye = np.eye(2, dtype=complex)
    stacks = _leaf_stacks(_products(K, eye, 7, guard=3**7))
    assert stacks[0][0][0] == 1093
    want = [i for i, xs in enumerate(oracle.strings(3, 7)) if oracle.product(K.ops, eye, xs).any()]
    assert np.concatenate([index for index, _ in stacks]).tolist() == want
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
