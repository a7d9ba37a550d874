"""Properties of the one table path and the one CMI path over random Haar
families and boundaries: the engine against the brute-force oracle, and the
paper's inequalities.  Over sparse families, whose exact-zero products the
engine skips, the engine against the oracle and the dense walk.  Over both,
the submultiplicativity of w and the sandwich of Q between the second
eigenvalues."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from mpsrestrict.chain import BoundaryPair, ChainGeometry, KrausFamily, renormalize
from mpsrestrict.gibbs import ChainDistribution
from mpsrestrict.models import aklt, damping, jordan, markov
from mpsrestrict import purity, restriction, trajectories
from mpsrestrict.purity import f_series, haar_kraus, span_purity_test, w_series
from mpsrestrict.restriction import (
    _CHUNK_STRINGS,
    RestrictionContext,
    _adjoint,
    _capped_norm2,
    _grow,
    _products,
    _range_factor,
    _string_sum,
    _string_tables,
    chain_distribution,
    cmi_report,
    restriction_scan,
    window_distribution,
)
from mpsrestrict.trajectories import mean_m_check, purification_statistic

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
    # the scan walks on a fresh family, not reading the report's record
    K, _ = _family(case)
    ctx = RestrictionContext.stationary(K)
    rep = cmi_report(ctx, case["n"], case["a"], case["c"])
    scan = restriction_scan(RestrictionContext.stationary(_family(case)[0]), case["n"])
    assert rep.avg_entropy == scan.avg_entropy
    assert rep.quantum_cmi == 2.0 * scan.avg_entropy
    assert rep.avg_purity_q == scan.avg_purity_q
    assert rep.p_sum == scan.p_sum
    assert rep.f == scan.f_value


def _haar_with(kind: str, D: int, d: int, seed: int) -> KrausFamily:
    """A Haar family with one operator replaced by a zero or a rank-1 matrix."""
    ops = haar_kraus(D, d, seed).ops.copy()
    rng = np.random.default_rng([seed, 11])
    u, v = (rng.standard_normal(D) + 1j * rng.standard_normal(D) for _ in range(2))
    ops[seed % d] = 0.0 if kind == "zero" else np.outer(u, v.conj())
    return renormalize(ops)


SPARSE_FAMILIES = {
    "haar-zero": lambda D, d, seed: _haar_with("zero", D, d, seed),
    "haar-rank-1": lambda D, d, seed: _haar_with("rank-1", D, d, seed),
    "aklt": lambda *_: aklt(),
    "jordan-4": lambda *_: jordan(4),
    "damping": lambda *_: damping(0.5),
    "markov": lambda *_: markov(),
    "zero-then-damping": lambda *_: KrausFamily(
        ops=np.concatenate([np.zeros((1, 2, 2)), damping(0.5).ops])
    ),
}

SPARSE = st.fixed_dictionaries(
    {
        "family": st.sampled_from(sorted(SPARSE_FAMILIES)),
        "D": st.sampled_from([2, 3]),
        "d": st.sampled_from([2, 3]),
        "seed": st.integers(min_value=0, max_value=10**6),
        "finite": st.booleans(),
        "n": st.integers(min_value=1, max_value=6),
    }
)


def _window_oracle(ctx: RestrictionContext, m: int) -> np.ndarray:
    """The window table from per-string products, one string at a time, with
    the roots the table path walks from (the environments' range factors)
    and the table leaf's contraction on a stack of one."""
    K = ctx.kraus
    root = _range_factor(ctx.sigma)
    cap = _range_factor(ctx.f_op.conj().T @ ctx.f_op)
    root = ctx.sqrt_sigma if root is None else root
    cap = ctx.f_op if cap is None else _adjoint(cap)
    raw = [
        _capped_norm2(cap, oracle.product(K.ops, root, xs)[None])[0] / ctx.k2_for(m)
        for xs in oracle.strings(K.d, m)
    ]
    return ChainDistribution(length=m, d=K.d, table=np.array(raw)).table


@LIMITS
@given(SPARSE)
def test_pruned_engine_is_the_oracle_on_sparse_families(case):
    K = SPARSE_FAMILIES[case["family"]](case["D"], case["d"], case["seed"])
    n = min(case["n"], max(m for m in range(1, 7) if K.d**m <= 729))
    if case["finite"]:
        rng = np.random.default_rng([case["seed"], 5])
        L, R = (rng.standard_normal(K.D) + 1j * rng.standard_normal(K.D) for _ in range(2))
        b = BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R))
        ctx = RestrictionContext.from_boundaries(K, b, ChainGeometry(0, n, 0))
    else:
        ctx = RestrictionContext.stationary(K)

    assert np.array_equal(window_distribution(ctx, n).table, _window_oracle(ctx, n))
    assert restriction_scan(ctx, n) == oracle.dfs_scan(ctx, n)

    # A generic rank-1 product has a second eigenvalue of rounding size, about
    # 1e-16, whose square root the oracle's statistic adds, up to about 1e-8;
    # the engine takes such a product's nu1 nu2 from its exterior square.
    # The statistic walks before w_series records its length on the family.
    tol = 1e-7 if case["family"] == "haar-rank-1" else 1e-12
    assert abs(purification_statistic(K, n) - oracle.purification(K, n)) <= tol
    for (m, got_w), want_w in zip(w_series(K, n).values, oracle.w_values(K, n)):
        assert abs(got_w - want_w) <= 1e-12, m
    f = f_series(K, ctx.sigma, ctx.f_op, n)
    for (m, got_f), want_f in zip(f.values, oracle.f_values(K, ctx.sqrt_sigma, ctx.f_op, n)):
        assert abs(got_f - want_f) <= 1e-12, m
    assert abs(mean_m_check(K, n) - oracle.mean_m_residual(K, n)) <= 1e-12
    n_ops = max(m for m in range(1, n + 1) if K.d**m <= 125 or m == 1)
    assert span_purity_test(K, n_ops)[1] == oracle.span_ranks(K, n_ops)


BOUNDED = st.fixed_dictionaries(
    {
        "family": st.sampled_from(["haar"] + sorted(SPARSE_FAMILIES)),
        "D": st.sampled_from([2, 3, 4]),
        "d": st.sampled_from([2, 3]),
        "seed": st.integers(min_value=0, max_value=10**6),
        "finite": st.booleans(),
    }
)


def _bounded_family(case) -> KrausFamily:
    if case["family"] == "haar":
        return haar_kraus(case["D"], case["d"], case["seed"])
    return SPARSE_FAMILIES[case["family"]](case["D"], case["d"], case["seed"])


def _longest(K: KrausFamily, cap: int) -> int:
    return max(m for m in range(1, cap + 1) if K.d**m <= 729 or m == 1)


def _dense_levels(K: KrausFamily, root: np.ndarray, n: int) -> dict[int, np.ndarray]:
    """Every product of each length 0..n in lexicographic order, each formed
    from its prefix alone by ``oracle.step``: the two multiply-adds at D = 2,
    one matmul elsewhere."""
    dense = {0: root[None]}
    for m in range(1, n + 1):
        dense[m] = np.array([oracle.step(A, P) for P in dense[m - 1] for A in K.ops])
    return dense


SPLITS = st.fixed_dictionaries(
    {
        "family": st.sampled_from(["haar"] + sorted(SPARSE_FAMILIES)),
        "D": st.sampled_from([2, 3]),
        "d": st.sampled_from([2, 3]),
        "seed": st.integers(min_value=0, max_value=10**6),
        "vector": st.booleans(),
        "cap": st.integers(min_value=1, max_value=40),
        "n": st.integers(min_value=1, max_value=6),
        "depths": st.sets(st.integers(min_value=1, max_value=6), min_size=1),
    }
)


@LIMITS
@given(SPLITS)
def test_split_walks_give_the_dense_table_and_its_tree_sum_bit_for_bit(case):
    """With a cap of a few products the walk splits its runs at every depth.
    For any set of depths of a tree walked to n, each depth's table is still
    the dense per-string table, and its sum that table's tree-order sum,
    byte for byte, on dense and pruned walks alike."""
    K = _bounded_family(case)
    n = min(case["n"], _longest(K, 6))
    depths = sorted(m for m in case["depths"] if m <= n) or [n]
    root = np.eye(K.D, dtype=complex)
    if case["vector"]:
        root = np.ones((K.D, 1), dtype=complex) / np.sqrt(K.D)
    dense = _dense_levels(K, root, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(restriction, "_CHUNK_STRINGS", case["cap"])
        for leaf in (lambda W: _capped_norm2(None, W), lambda W: _adjoint(W) @ W):
            tree = _products(K, root, n, guard=K.d**n)
            tables = _string_tables(tree, depths, lambda m, W: leaf(W))
            sums = _string_sum(tree, depths, lambda m, W: leaf(W))
            for m in depths:
                table = leaf(dense[m])
                assert np.array_equal(tables[m], table), m
                assert sums[m].tobytes() == oracle.tree_sum(table, K.d).tobytes(), m


KERNEL = st.fixed_dictionaries(
    {
        "d": st.integers(min_value=1, max_value=5),
        "k": st.integers(min_value=1, max_value=12),
        "vector": st.booleans(),
        # a stack as grown, every other product of one, or every other
        # column of one
        "layout": st.sampled_from(["contiguous", "strided-products", "strided-columns"]),
        # an exactly zero operator and exactly zero prefixes give zero children
        "zero_symbol": st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        "zero_prefixes": st.lists(st.integers(min_value=0, max_value=11), max_size=3),
        "seed": st.integers(min_value=0, max_value=10**6),
    }
)


def _check_grow(case, D: int) -> None:
    """Row i*d + s of a grown stack has the bits of ``oracle.step(ops[s],
    stack[i])``, whatever the stack's length or strides, and a pruned walk
    keeps the non-zero children in that order, with their global indices."""
    d, k = case["d"], case["k"]
    r = 1 if case["vector"] else D
    rng = np.random.default_rng(case["seed"])
    ops = rng.standard_normal((d, D, D)) + 1j * rng.standard_normal((d, D, D))
    if case["zero_symbol"] is not None and case["zero_symbol"] < d:
        ops[case["zero_symbol"]] = 0.0
    base = rng.standard_normal((2 * k, D, 2 * r)) + 1j * rng.standard_normal((2 * k, D, 2 * r))
    stack = {
        "contiguous": np.ascontiguousarray(base[:k, :, :r]),
        "strided-products": base[::2, :, :r],
        "strided-columns": base[:k, :, ::2][:, :, :r],
    }[case["layout"]]
    stack[[i for i in case["zero_prefixes"] if i < k]] = 0.0
    children = [(i * d + s, oracle.step(ops[s], stack[i])) for i in range(k) for s in range(d)]
    stacked = ops.reshape(d * D, D)

    grown, index = _grow(stacked, stack, range(k), prune=False)
    assert index == range(k * d)
    assert grown.shape == (k * d, D, r)
    for row, (_, child) in zip(grown, children):
        assert row.tobytes() == child.tobytes()

    global_index = 3 * np.arange(k, dtype=np.int64) + 1  # a pruned walk's increasing indices
    grown, index = _grow(stacked, stack, global_index, prune=True)
    kept = [(global_index[j // d] * d + j % d, child) for j, child in children if child.any()]
    assert index.tolist() == [j for j, _ in kept]
    assert grown.shape == (len(kept), D, r)
    for row, (_, child) in zip(grown, kept):
        assert row.tobytes() == child.tobytes()


@settings(max_examples=200, deadline=2000)
@given(case=KERNEL, D=st.sampled_from([1, 3, 4, 5, 6, 7, 8]))
def test_grow_forms_each_child_as_its_own_product_bit_for_bit(case, D):
    """Away from D = 2, row i*d + s of a grown stack is ops[s] @ stack[i]
    with the same bits, so one BLAS call per prefix gives each product the
    bits of its own pair.  The bits are those of the BLAS core: this pin
    holds under the core it was recorded with."""
    _check_grow(case, D)


@settings(max_examples=200, deadline=2000)
@given(case=KERNEL)
def test_grow_forms_each_d2_child_by_two_multiply_adds_bit_for_bit(case):
    """At D = 2, row i*d + s of a grown stack is ops[s][:, 0] stack[i][0] +
    ops[s][:, 1] stack[i][1] with the same bits, however the stack is laid
    out.  No BLAS call forms it, so the pin holds under every BLAS core."""
    _check_grow(case, 2)


LEAF = st.fixed_dictionaries(
    {
        # (c, r): c rows of the cap (of the product with no cap), r columns,
        # c * r in {1, 2, 4, 9}
        "shape": st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (4, 1), (1, 4), (3, 3), (9, 1), (1, 9)]),
        "D": st.integers(min_value=1, max_value=5),
        # none: no cap; adjoint: the (c, D) view _adjoint gives of a (D, c) factor
        "cap": st.sampled_from(["none", "adjoint"]),
        "k": st.integers(min_value=1, max_value=_CHUNK_STRINGS * 5),
        "slices": st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=_CHUNK_STRINGS * 5),
                st.integers(min_value=0, max_value=_CHUNK_STRINGS * 5),
                st.integers(min_value=1, max_value=3),
            ),
            max_size=4,
        ),
        "zero_rows": st.lists(st.integers(min_value=0, max_value=_CHUNK_STRINGS * 5), max_size=3),
        "seed": st.integers(min_value=0, max_value=10**6),
    }
)


@settings(max_examples=60, deadline=None)
@given(LEAF)
def test_the_table_leaf_gives_each_row_the_bits_of_its_product_alone(case):
    """The window-table leaf's row for a product has the same bits in a
    stack of any size up to the tree's cap, in every sub-slice of the stack
    and alone, with no cap and with a cap that is not contiguous: a row
    depends on nothing but its own product and the cap."""
    c, r = case["shape"]
    D = c if case["cap"] == "none" else case["D"]
    k = min(case["k"], _CHUNK_STRINGS * D // r)  # at most a tree's cap of (D, r) products
    rng = np.random.default_rng(case["seed"])
    P = rng.standard_normal((k, D, r)) + 1j * rng.standard_normal((k, D, r))
    P[[i for i in case["zero_rows"] if i < k]] = 0.0
    cap = None
    if case["cap"] == "adjoint":
        cap = _adjoint(rng.standard_normal((D, c)) + 1j * rng.standard_normal((D, c)))
    rows = _capped_norm2(cap, P)
    assert rows.shape == (k,)
    for i in range(k):
        assert rows[i : i + 1].tobytes() == _capped_norm2(cap, P[i : i + 1]).tobytes(), i
    for start, stop, step in case["slices"]:
        part = slice(start, stop, step)
        assert rows[part].tobytes() == _capped_norm2(cap, P[part]).tobytes(), part


MULTI = st.fixed_dictionaries(
    {
        "family": st.sampled_from(["haar"] + sorted(SPARSE_FAMILIES)),
        "D": st.sampled_from([2, 3]),
        "d": st.sampled_from([2, 3]),
        "seed": st.integers(min_value=0, max_value=10**6),
        # stationary: square root, F = 1; bare: vector root and cap;
        # dressed: square root, F != 1
        "context": st.sampled_from(["stationary", "bare", "dressed"]),
        "cap": st.integers(min_value=1, max_value=40),
        "lengths": st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
    }
)


@LIMITS
@given(MULTI)
def test_one_walk_yields_every_level_and_each_window_table_is_the_oracles(case):
    """With a cap of a few products the walk splits its runs at every depth,
    so each level's nodes come from many runs.  The walk reports each node of
    a listed depth exactly once, in lexicographic order, for lengths
    unsorted and repeated, and each length's window table equals the
    per-string oracle bit for bit."""
    K = _bounded_family(case)
    longest = _longest(K, 6)
    lengths = [min(m, longest) for m in case["lengths"]]
    if case["context"] == "stationary":
        ctx = RestrictionContext.stationary(K)
    else:
        rng = np.random.default_rng([case["seed"], 13])
        L, R = (rng.standard_normal(K.D) + 1j * rng.standard_normal(K.D) for _ in range(2))
        b = BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R))
        flank = 1 if case["context"] == "dressed" else 0
        ctx = RestrictionContext.from_boundaries(K, b, ChainGeometry(flank, 1, flank))
    root = _range_factor(ctx.sigma)
    root = ctx.sqrt_sigma if root is None else root

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(restriction, "_CHUNK_STRINGS", case["cap"])
        tree = _products(K, root, max(lengths), guard=K.d ** max(lengths))
        dense = _dense_levels(K, root, max(lengths))
        seen = {m: [] for m in lengths}
        for m, index, stack in tree.levels(lengths):
            assert np.array_equal(stack, dense[m][index]), m
            seen[m].append(np.arange(K.d**m)[index])
        tables = {m: window_distribution(ctx, m).table for m in seen}

    for m, parts in seen.items():
        live = np.arange(K.d**m)
        if tree.prune:
            live = np.flatnonzero(dense[m].reshape(K.d**m, -1).any(axis=1))
        assert np.array_equal(np.concatenate([live[:0]] + parts), live), m
    for m, table in tables.items():
        assert np.array_equal(table, _window_oracle(ctx, m)), m


@LIMITS
@given(BOUNDED)
def test_w_is_submultiplicative(case):
    K = _bounded_family(case)
    n_max = _longest(K, 6)
    w = dict(w_series(K, n_max).values)
    for n in range(1, n_max):
        for m in range(1, n_max - n + 1):
            assert w[n + m] <= w[n] * w[m] + 1e-12, (n, m)


@LIMITS
@given(BOUNDED)
def test_q_lies_between_the_second_eigenvalues(case):
    """sum_x p(x) lam2(x) <= Q <= (D - 1) sum_x p(x) lam2(x): every eigenvalue
    below the largest lies between 0 and the second one."""
    K = _bounded_family(case)
    if case["finite"]:
        rng = np.random.default_rng([case["seed"], 3])
        L, R = (rng.standard_normal(K.D) + 1j * rng.standard_normal(K.D) for _ in range(2))
        b = BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R))
        ctx = RestrictionContext.from_boundaries(K, b, ChainGeometry(1, 2, 1))
    else:
        ctx = RestrictionContext.stationary(K)
    for n in range(1, _longest(K, 4) + 1):
        s = restriction_scan(ctx, n)
        assert s.lam2_sum_over_k2 <= s.avg_purity_q + 1e-12, n
        assert s.avg_purity_q <= (K.D - 1) * s.lam2_sum_over_k2 + 1e-12, n


@settings(max_examples=200, deadline=2000)
@given(
    D=st.integers(min_value=2, max_value=6),
    log_ratio=st.floats(min_value=-9.0, max_value=0.0),
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_the_check_route_keeps_nu1_nu2_across_its_switch(D, log_ratio, log_scale, seed):
    """W = scale U diag(1, ratio, ...) V^dag, ratio = nu2 / nu1 in [1e-9, 1]:
    the nu1 nu2 kernel, given the eigenvalues of W^dag W or of W W^dag, and
    w_series' check route are within 1e-10 of nu1 nu2, relative, on both
    sides of the switch at nu2 = nu1 / 100.  Forming W moves nu2 by about
    eps nu1, so below nu2 of about 1e-6 nu1 no double-precision route keeps
    1e-10 of nu2; the bound adds 1e-14 nu1^2 for that, which the exterior
    square keeps (about 1e-17 nu1^2) and a Gram root there would not."""
    rng = np.random.default_rng(seed)
    ratio, scale = 10.0**log_ratio, 10.0**log_scale
    s = np.concatenate([[1.0, ratio], np.sort(ratio * rng.uniform(size=D - 2))[::-1]])
    U, V = (purity._haar_unitary(D, rng) for _ in range(2))
    W = scale * (U * s) @ V.conj().T
    want = scale**2 * ratio
    for gram in (W.conj().T @ W, W @ W.conj().T):
        got = restriction._nu12(W[None], np.linalg.eigvalsh(gram)[None])[0]
        assert abs(got - want) <= 1e-10 * want + 1e-14 * scale**2
    got = purity._w_leaf(1, W[None])[0, 1]
    assert abs(got - want) <= 1e-10 * want + 1e-14 * scale**2


GRAMS = st.fixed_dictionaries(
    {
        # tiny: entries near 1e-81, so |det T| is near 1e-162 and its square
        # underflows
        "kind": st.sampled_from(["generic", "rank-1", "zero", "equal", "tiny"]),
        "k": st.integers(min_value=1, max_value=40),
        "log_scale": st.floats(min_value=-3.0, max_value=3.0),
        "seed": st.integers(min_value=0, max_value=10**6),
    }
)


@settings(max_examples=200, deadline=2000)
@given(GRAMS)
def test_the_d2_closed_forms_are_the_gram_spectrum_and_nu1_nu2(case):
    """The scans' closed forms at D = 2 give the two eigenvalues of T T^dag
    within 16 eps lambda1 of eigvalsh of the formed Gram, and |det T| within
    8 eps lambda1 of nu1 nu2 from the SVD, on Grams of rank 2, rank 1 and 0,
    with equal eigenvalues, and at a scale where |det T|^2 underflows:
    lambda2 = |det T| (|det T| / lambda1) keeps it.  Against a 50-digit
    reference the closed forms erred by at most 3.5 eps lambda1 and
    eigvalsh by 5.3, and the two sides differed by up to 9.1 here."""
    rng = np.random.default_rng(case["seed"])
    k, scale = case["k"], 10.0 ** case["log_scale"]
    ginibre = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
    u, v = (rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2)) for _ in range(2))
    T = {
        "generic": scale * ginibre,
        "rank-1": scale * u[:, :, None] * v[:, None, :].conj(),
        "zero": np.zeros((k, 2, 2), dtype=complex),
        "equal": scale * np.stack([purity._haar_unitary(2, rng) for _ in range(k)]),
        "tiny": 1e-81 * ginibre,
    }[case["kind"]]
    lam, det = restriction._spectra(T)
    want = np.linalg.eigvalsh(T @ _adjoint(T))
    nu = np.linalg.svd(T, compute_uv=False)
    eps_lam1 = np.finfo(float).eps * want[:, -1]
    assert lam.shape == want.shape and det.shape == (k,)
    assert np.all(np.abs(lam - want) <= 16 * eps_lam1[:, None])
    assert np.all(np.abs(det - nu[:, 0] * nu[:, 1]) <= 8 * eps_lam1)
    assert np.all(lam >= 0.0) and np.all(lam[:, 0] <= lam[:, 1])
    if case["kind"] == "tiny":  # so the bound above holds only for a lambda2 kept from underflow
        assert np.all(det**2 < np.finfo(float).tiny) and np.all(lam[:, 0] > 0.0)
    if case["kind"] == "zero":
        assert not lam.any() and not det.any()


def _renormalized_rank_one() -> KrausFamily:
    """renormalize of three complex rank-1 3 x 3 outer products from default_rng(3)."""
    rng = np.random.default_rng(3)
    uv = rng.standard_normal((3, 2, 3)) + 1j * rng.standard_normal((3, 2, 3))
    return renormalize([np.outer(u, v.conj()) for u, v in uv])


RANK_DEFICIENT = {
    **{f"haar-rank-1-{seed}": lambda seed=seed: _haar_with("rank-1", 3, 3, seed) for seed in range(3)},
    "jordan-4": lambda: jordan(4),
    "damping": lambda: damping(0.5),
    "renormalized-rank-1": _renormalized_rank_one,
}


@pytest.mark.parametrize("name", sorted(RANK_DEFICIENT))
def test_rank_deficient_products_take_the_exterior_square(name, monkeypatch):
    """On D >= 3 families with rank-deficient products the routes of
    w_series agree, every product with 0 < nu2 < nu1 / 200 had its exterior
    square formed, and no product with nu2 > nu1 / 50 did.  At D = 2
    (damping, whose A_1 has rank 1) w is s^n and forms no product: the only
    spectra taken are those of the d operators, whose |det| are s's terms,
    no exterior square is formed, and w(n) is the oracle's per-string SVD
    sum within 1e-12 relative."""
    K = RANK_DEFICIENT[name]()
    low, near, formed, spectra = [], [], [], []
    check, minors, closed = purity._nu12, restriction.exterior_square, purity._spectra

    def spy_check(W, lam):
        s = np.linalg.svd(W, compute_uv=False)
        ratio = np.divide(s[:, 1], s[:, 0], out=np.ones(len(W)), where=s[:, 0] > 0.0)
        low.append(int(np.count_nonzero(ratio < 5e-3)))
        near.append(int(np.count_nonzero(ratio < 2e-2)))
        return check(W, lam)

    def spy_minors(O):
        formed.append(len(O))
        return minors(O)

    def spy_spectra(T):
        spectra.append(len(T))
        return closed(T)

    # w's check route takes the kernel, which forms the squares, at D >= 3;
    # at D = 2 s's terms are the closed forms' |det| of the d operators
    monkeypatch.setattr(purity, "_nu12", spy_check)
    monkeypatch.setattr(restriction, "exterior_square", spy_minors)
    monkeypatch.setattr(purity, "_spectra", spy_spectra)
    w = w_series(K, 5)  # raises NumericalInconsistency if the routes disagree
    if K.D == 2:
        assert low == [] and formed == [] and set(spectra) == {K.d}
        for (n, got), want in zip(w.values, oracle.w_values(K, 5)):
            assert abs(got - want) <= 1e-12 * want, n
    else:
        assert 0 < sum(low) <= sum(formed) <= sum(near)


@pytest.mark.parametrize("name", sorted(RANK_DEFICIENT))
def test_the_scans_f_stays_below_w_on_rank_deficient_families(name):
    """f(n) <= w(n): the dressing by sqrt(sigma) and F contracts both
    singular values.  A rank-1 product's f takes its nu1 nu2 from the
    exterior square, not from the root of a rounding-size lambda2 (which
    read 5.6e-9 against w(2) = 2.5e-16 on the renormalized rank-1 family).
    The finite context is the bare one, whose pure boundaries give every
    product rank 1.  f_series, the same column of one walk (on a fresh
    family, so that the scans do not read its record), is held to the same
    bound."""
    K = RANK_DEFICIENT[name]()
    n_max = _longest(K, 6)
    w = dict(w_series(K, n_max).values)
    rng = np.random.default_rng(9)
    L, R = (rng.standard_normal(K.D) + 1j * rng.standard_normal(K.D) for _ in range(2))
    b = BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R))
    for context in (RestrictionContext.stationary, lambda K: RestrictionContext.from_boundaries(K, b, ChainGeometry(0, 1, 0))):
        ctx, fresh = context(K), context(RANK_DEFICIENT[name]())
        f = dict(f_series(fresh.kraus, fresh.sigma, fresh.f_op, n_max).values)
        for n in range(1, n_max + 1):
            assert restriction_scan(ctx, n).f_value <= w[n] + 1e-12, n
            assert f[n] <= w[n] + 1e-12, n


@pytest.mark.parametrize("name", sorted(RANK_DEFICIENT))
def test_the_purification_statistic_is_w_on_rank_deficient_families(name):
    """Each path's (Tr / D) sqrt(l1 l2 of M) D is nu1 nu2 of its product, so
    the statistic is w(n), to 1e-12 also where nu2 is of rounding size (a
    Gram root of M differed by up to 1.78e-8 on the rank-1 Haar families).
    Each statistic walks before w_series records its length on the family."""
    K = RANK_DEFICIENT[name]()
    n_max = _longest(K, 4)
    stats = [purification_statistic(K, n) for n in range(1, n_max + 1)]
    for (n, want), got in zip(w_series(K, n_max).values, stats):
        assert abs(got - want) <= 1e-12, n


# families of every shape the record serves, each with the longest length
# it is enumerated to here
RECORD_FAMILIES = {
    "aklt": (aklt, 6),
    "jordan-3": (lambda: jordan(3), 8),
    "damping": (lambda: damping(0.5), 8),
    **{f"haar-rank-1-{seed}": (lambda seed=seed: _haar_with("rank-1", 3, 3, seed), 6) for seed in range(3)},
    **{f"haar-D{D}": (lambda D=D: haar_kraus(D, 3, seed=D), 6) for D in (2, 3, 4)},
}


def _record(K: KrausFamily) -> dict:
    """The family's record of sums, with each length's sums as a list of
    floats, so that == compares every bit of every entry."""
    return {key: {n: s.tolist() for n, s in sums.items()} for key, sums in K._sums.items()}


def _spy(monkeypatch, name: str, modules) -> list:
    """The second argument of every call of ``name`` in ``modules``, as the
    real function runs."""
    calls = []
    real = getattr(modules[0], name)

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("name", sorted(RECORD_FAMILIES))
def test_the_recorded_w_sums_are_the_walked_ones_bit_for_bit(name, monkeypatch):
    """A D >= 3 family records the two sums of every length w_series walks.
    The statistic read from that record is the one walked on a fresh
    family, and both are w_series' check-route sum; a shorter w_series read
    from the record is a fresh one, and neither read forms a product.  A
    D = 2 family records nothing, since w is s^n: the statistic is w_series'
    value, and neither forms a product either."""
    make, n = RECORD_FAMILIES[name]
    walked = purification_statistic(make(), n)
    fresh = [w_series(make(), m).values for m in range(1, n + 1)]
    K = make()
    w_series(K, n)
    if K.D == 2:
        assert K._sums == {} and walked == fresh[-1][-1][1]
    else:
        assert K._sums["w",][n][1] == walked

    sums = _spy(monkeypatch, "_string_sum", [restriction, trajectories])
    assert purification_statistic(K, n) == walked
    assert [w_series(K, m).values for m in range(1, n + 1)] == fresh
    assert sums == []


@pytest.mark.parametrize("name", sorted(RECORD_FAMILIES))
def test_the_statistic_records_both_sums_for_w_series(name, monkeypatch):
    """On a fresh D >= 3 family the statistic walks length n with both
    routes and records the pair a fresh w_series records, so a later
    w_series walks only the shorter lengths and returns the fresh series bit
    for bit.  On a fresh D = 2 family the statistic and w_series both read
    s^n from the operators: ``_products`` is never called, in any module
    that holds it, and nothing is recorded."""
    make, n = RECORD_FAMILIES[name]
    fresh = make()
    want = w_series(fresh, n)
    K = make()
    products = _spy(monkeypatch, "_products", [restriction, purity, trajectories])
    stat = purification_statistic(K, n)
    if K.D == 2:
        assert stat == want.value_at(n) and K._sums == {} == fresh._sums
    else:
        assert stat == fresh._sums["w",][n][1]
        assert _record(K) == {("w",): {n: _record(fresh)["w",][n]}}

    walks = _spy(monkeypatch, "_string_sum", [restriction])
    assert w_series(K, n) == want
    assert walks == ([] if K.D == 2 else [[m] for m in range(1, n)])
    if K.D == 2:
        assert products == []


@pytest.mark.parametrize("name", sorted(RECORD_FAMILIES))
def test_f_series_is_the_scans_f_bit_for_bit(name, monkeypatch):
    """f_series is the f column of the scans of its context: each f(m)
    equals with == the f_value of restriction_scan's own length-m walk on a
    fresh family, and the series grows one tree, to its longest length.
    The finite context has a mixed sigma and F != 1."""
    make, n = RECORD_FAMILIES[name]
    K = make()
    rng = np.random.default_rng(5)
    L, R = (rng.standard_normal(K.D) + 1j * rng.standard_normal(K.D) for _ in range(2))
    b = BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R))

    def contexts(K: KrausFamily) -> tuple[RestrictionContext, RestrictionContext]:
        return RestrictionContext.stationary(K), RestrictionContext.from_boundaries(K, b, ChainGeometry(1, 1, 1))

    for ctx, fresh in zip(contexts(K), contexts(make())):
        trees = []
        real = restriction._products

        def spy(*args):
            trees.append(args[2])
            return real(*args)

        monkeypatch.setattr(restriction, "_products", spy)
        monkeypatch.setattr(purity, "_products", spy)
        f = f_series(K, ctx.sigma, ctx.f_op, n)
        monkeypatch.undo()
        assert trees == [n]
        assert f.values == tuple((m, restriction_scan(fresh, m).f_value) for m in range(1, n + 1))
