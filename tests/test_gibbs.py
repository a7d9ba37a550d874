import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsrestrict import gibbs
from mpsrestrict.errors import (
    EllOutOfRange,
    InvalidDistribution,
    NonPositiveMarginal,
    ShapeMismatch,
)
from mpsrestrict.gibbs import (
    ChainDistribution,
    cmi_decomposition_check,
    gibbs_distribution,
    local_hamiltonian,
    marginal,
    partition_function,
    relative_entropy,
    tail_bound_check,
)


def _random_dist(length, d, seed, floor=0.0):
    rng = np.random.default_rng(seed)
    t = rng.random(d**length) + floor
    return ChainDistribution(length=length, d=d, table=t / t.sum())


def _markov_dist(length, P, pi):
    """p(x) = pi(x1) prod_i P(x_i -> x_{i+1}): exactly 1-Markov."""
    d = P.shape[0]
    table = np.zeros(d**length)
    for idx in range(d**length):
        digits = []
        v = idx
        for _ in range(length):
            digits.append(v % d)
            v //= d
        digits.reverse()  # site 1 is the most significant digit
        p = pi[digits[0]]
        for a, b in zip(digits, digits[1:]):
            p *= P[a, b]
        table[idx] = p
    return ChainDistribution(length=length, d=d, table=table)


def test_chain_distribution_validation():
    ChainDistribution(length=2, d=2, table=np.full(4, 0.25))
    with pytest.raises(InvalidDistribution):
        ChainDistribution(length=2, d=2, table=np.full(5, 0.2))
    with pytest.raises(InvalidDistribution):
        ChainDistribution(length=1, d=2, table=np.array([0.9, 0.2]))
    with pytest.raises(InvalidDistribution):
        ChainDistribution(length=1, d=2, table=np.array([1.1, -0.1]))


def test_chain_distribution_clips_tiny_negatives():
    p = ChainDistribution(length=1, d=2, table=np.array([1.0 + 5e-13, -5e-13]))
    assert p.table[1] == 0.0
    assert p.table.sum() == pytest.approx(1.0, abs=1e-15)


_TABLES = st.integers(1, 4).flatmap(
    lambda length: st.tuples(
        st.just(length),
        st.lists(st.floats(-1e-13, 1.0), min_size=2**length, max_size=2**length),
        st.floats(-5e-10, 5e-10),
    )
)


@settings(max_examples=60, deadline=None)
@given(_TABLES)
def test_the_constructor_copies_and_adopting_gives_the_same_bits(case):
    """The public constructor leaves the caller's array as it was and
    writeable; the engine's private path normalizes its own fresh table in
    place, to the constructor's bits, and rejects what it rejects."""
    length, entries, off = case
    t = np.array(entries)
    if t.sum() <= 0.0:
        t[0] = 1.0
    t = t / t.sum() * (1.0 + off)
    before = t.copy()
    try:
        copied = ChainDistribution(length=length, d=2, table=t)
    except InvalidDistribution as e:
        with pytest.raises(InvalidDistribution, match=f"^{re.escape(str(e))}$"):
            ChainDistribution._adopt(length, 2, t.copy())
        return
    finally:
        assert np.array_equal(t, before) and t.flags.writeable
    adopted = ChainDistribution._adopt(length, 2, t.copy())
    assert adopted.table.tobytes() == copied.table.tobytes()
    assert (adopted.length, adopted.d, adopted.smoothing_eps) == (length, 2, None)
    assert not adopted.table.flags.writeable and not copied.table.flags.writeable
    assert not np.shares_memory(copied.table, t)


@pytest.mark.parametrize(
    "length, d, table",
    [(2, 2, np.full(5, 0.2)), (1, 2, np.array([0.9, 0.2])), (1, 2, np.array([1.1, -0.1])),
     (1, 2, np.array([np.nan, 1.0])), (0, 2, np.ones(1)), (1, 1, np.ones(1))],
)
def test_adopting_rejects_what_the_constructor_rejects(length, d, table):
    with pytest.raises(InvalidDistribution) as public:
        ChainDistribution(length=length, d=d, table=table.copy())
    with pytest.raises(InvalidDistribution, match=f"^{re.escape(str(public.value))}$"):
        ChainDistribution._adopt(length, d, table.copy())


def test_as_array_site_one_most_significant():
    table = np.array([0.1, 0.2, 0.3, 0.4])
    p = ChainDistribution(length=2, d=2, table=table)
    arr = p.as_array()
    assert arr[0, 1] == pytest.approx(0.2)  # string (0, 1)
    assert arr[1, 0] == pytest.approx(0.3)  # string (1, 0)


def test_marginal_against_manual_sum():
    p = _random_dist(4, 2, seed=1)
    arr = p.as_array()
    m = marginal(p, 2, 3)
    manual = arr.sum(axis=(0, 3)).ravel()
    assert np.allclose(m, manual, atol=1e-15)
    assert m.sum() == pytest.approx(1.0, abs=1e-12)


def test_marginal_window_validation():
    p = _random_dist(3, 2, seed=2)
    from mpsrestrict.errors import RangeError

    with pytest.raises(RangeError):
        marginal(p, 0, 2)
    with pytest.raises(RangeError):
        marginal(p, 2, 4)
    with pytest.raises(RangeError):
        marginal(p, 3, 2)


def test_local_hamiltonian_partition_function_is_one():
    for seed in range(5):
        p = _random_dist(5, 2, seed=seed, floor=1e-3)
        for ell in (1, 2, 3):
            h = local_hamiltonian(p, ell)
            assert partition_function(h) == pytest.approx(1.0, abs=1e-9)


def test_local_hamiltonian_range_checks():
    p = _random_dist(4, 2, seed=3)
    with pytest.raises(EllOutOfRange):
        local_hamiltonian(p, 0)
    with pytest.raises(EllOutOfRange):
        local_hamiltonian(p, 3)


def test_local_hamiltonian_rejects_zero_marginal():
    # symbol 1 never occurs at site 1, so the first window marginal vanishes
    table = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    p = ChainDistribution(length=3, d=2, table=table)
    with pytest.raises(NonPositiveMarginal):
        local_hamiltonian(p, 1)


def test_gibbs_distribution_reproduces_markov_chain():
    """A 1-Markov distribution is its own range-1 Gibbs fit."""
    P = np.array([[0.8, 0.2], [0.3, 0.7]])
    pi = np.array([0.6, 0.4])
    p = _markov_dist(5, P, pi)
    fit = gibbs_distribution(local_hamiltonian(p, 1))
    assert np.allclose(fit.table, p.table, atol=1e-12)
    assert relative_entropy(p, fit) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_known_value():
    p1 = ChainDistribution(length=1, d=2, table=np.array([0.9, 0.1]))
    p2 = ChainDistribution(length=1, d=2, table=np.array([0.5, 0.5]))
    assert relative_entropy(p1, p2) == pytest.approx(0.368064207168497, abs=1e-9)
    assert relative_entropy(p1, p1) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_of_a_p1_with_zeros_sums_over_its_support():
    """0 ln 0 = 0: the strings where p1 vanishes drop out, bit for bit."""
    t = _random_dist(4, 2, seed=5).table.copy()
    t[[0, 3, 9]] = 0.0
    p1 = ChainDistribution(length=4, d=2, table=t / t.sum())
    p2 = _random_dist(4, 2, seed=6, floor=1e-3)
    keep = p1.table > 0.0
    a, b = p1.table[keep], p2.table[keep]
    assert relative_entropy(p1, p2) == float(np.sum(a * (np.log(a) - np.log(b))))


def test_relative_entropy_requires_positive_reference():
    p1 = ChainDistribution(length=1, d=2, table=np.array([0.5, 0.5]))
    p2 = ChainDistribution(length=1, d=2, table=np.array([1.0, 0.0]))
    with pytest.raises(NonPositiveMarginal):
        relative_entropy(p1, p2)
    with pytest.raises(ShapeMismatch):
        relative_entropy(p1, _random_dist(2, 2, seed=0))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=3),
)
def test_cmi_decomposition_identity(seed, ell):
    """S(p || p^ell) equals the sliding-CMI sum for strictly positive p."""
    p = _random_dist(5, 2, seed=seed, floor=1e-3)
    lhs, rhs = cmi_decomposition_check(p, ell)
    assert abs(lhs - rhs) <= 1e-9
    assert lhs >= -1e-12


def test_cmi_decomposition_monotone_in_ell():
    p = _random_dist(6, 2, seed=10, floor=1e-3)
    values = [cmi_decomposition_check(p, ell)[0] for ell in (1, 2, 3, 4)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9


def test_tail_bound_check():
    p = _random_dist(5, 2, seed=4, floor=1e-3)
    terms_max = max(
        cmi_decomposition_check(p, 1)[1], 1e-12
    )  # rhs = sum of terms >= max term
    assert tail_bound_check(p, 1, lambda ell: terms_max)
    assert not tail_bound_check(p, 1, lambda ell: -1.0)


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(gibbs, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(gibbs, name, counted)
    return calls


@pytest.mark.parametrize("tail", [False, True])
def test_a_check_builds_its_fit_once(tail, monkeypatch):
    """h^ell, its energies and each sliding CMI term are built once per
    check, and S(p || p^ell) keeps the bits of the public calls."""
    p = _random_dist(6, 2, seed=7, floor=1e-3)
    want = relative_entropy(p, gibbs_distribution(local_hamiltonian(p, 2)))
    calls = _count_calls(monkeypatch, ["local_hamiltonian", "_energies", "_window_cmi"])
    if tail:
        assert tail_bound_check(p, 2, lambda ell: 1.0)
    else:
        assert cmi_decomposition_check(p, 2)[0] == want
    assert calls == {"local_hamiltonian": 1, "_energies": 1, "_window_cmi": 3}


def test_smoothed_records_eps():
    table = np.array([1.0, 0.0])
    p = ChainDistribution(length=1, d=2, table=table)
    q = p.smoothed(1e-8)
    assert q.smoothing_eps == 1e-8
    assert q.min_entry > 0.0
    assert q.table.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidDistribution):
        p.smoothed(0.0)


@pytest.mark.parametrize("eps", [1e-8, 0.3])
def test_smoothed_is_the_mixture_bit_for_bit(eps):
    """The mixture formed in place and adopted has the bits of the mixture
    expression passed through the public constructor."""
    t = _random_dist(5, 3, seed=7).table
    t = np.where(t < 0.002, 0.0, t)  # a quarter of the entries
    p = ChainDistribution(length=5, d=3, table=t / t.sum())
    want = ChainDistribution(length=5, d=3, table=(1.0 - eps) * p.table + eps * (1.0 / p.table.size))
    got = p.smoothed(eps)
    assert got.table.tobytes() == want.table.tobytes() and got.smoothing_eps == eps
