import numpy as np
import pytest

import oracle
from mpsrestrict import trajectories
from mpsrestrict.chain import KrausFamily
from mpsrestrict.errors import EnumerationTooLarge, ZeroProbabilityPath
from mpsrestrict.models import BUILTINS, aklt, aklt_pauli, clock, damping, jordan, markov
from mpsrestrict.purity import haar_kraus, w_series
from mpsrestrict.trajectories import (
    MartingaleTrace,
    martingale_step_check,
    mean_m_check,
    purification_statistic,
    sample_trajectories,
    sample_trajectory,
)


def test_sample_trajectory_shapes_and_normalization():
    K = aklt()
    tr = sample_trajectory(K, 6, seed=0)
    assert tr.steps == 6
    assert len(tr.m_ops) == 6 and len(tr.probs) == 6
    for M in tr.m_ops:
        assert np.trace(M).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(M)[0] >= -1e-12
    # path probabilities never increase
    for a, b in zip(tr.probs, tr.probs[1:]):
        assert b <= a + 1e-15


def test_sample_trajectory_stream_determinism():
    K = haar_kraus(3, 5, 7)
    a = sample_trajectory(K, 10, seed=3, stream=2)
    b = sample_trajectory(K, 10, seed=3, stream=2)
    assert a.outcomes == b.outcomes
    assert all(np.array_equal(x, y) for x, y in zip(a.m_ops, b.m_ops))
    c = sample_trajectory(K, 10, seed=3, stream=5)
    d = sample_trajectory(K, 10, seed=4, stream=2)
    assert a.outcomes != c.outcomes or a.outcomes != d.outcomes


def test_sampled_paths_have_positive_probability():
    # damping forbids the outcome pair (1, 1); sampling must never emit it
    K = damping(0.9)
    for stream in range(40):
        tr = sample_trajectory(K, 8, seed=11, stream=stream)
        assert (1, 1) not in zip(tr.outcomes, tr.outcomes[1:])
        assert tr.probs[-1] > 0.0


@pytest.mark.parametrize("factory", [aklt, markov, lambda: clock(3), lambda: jordan(3)])
def test_martingale_step_check_exact(factory):
    K = factory()
    tr = sample_trajectory(K, 5, seed=1)
    for k in (1, 3, 5):
        assert martingale_step_check(K, tr.outcomes[:k]) <= 1e-10


def test_martingale_step_check_rejects_zero_prefix():
    K = aklt()
    for x in [(1, 1), (0,) * 1200 + (1, 1)]:  # A_+ A_+ = 0, short and past the float floor
        with pytest.raises(ZeroProbabilityPath):
            martingale_step_check(K, x)


@pytest.mark.parametrize("n", [32, 40, 300, 1200])
def test_martingale_step_check_takes_a_prefix_of_any_small_probability(n):
    """The prefix 0^n of clock(3) has probability 9^-n, below 1e-30 from n =
    32 on, and its unscaled product underflows from about n = 680: the
    product is scaled by a power of two after each symbol, and only an
    exactly zero one is rejected."""
    assert martingale_step_check(clock(3), [0] * n) <= 1e-12


def _unscaled_residual(K: KrausFamily, x) -> float:
    """martingale_step_check's formula on the bare product A_{x_n} ... A_{x_1}."""
    W = np.eye(K.D, dtype=complex)
    for s in x:
        W = K.ops[s] @ W
    tr = float(trajectories._capped_norm2(None, W[None])[0])
    M = W.conj().T @ W / tr
    total = np.zeros_like(M)
    for y in range(K.d):
        V = K.ops[y] @ W
        total = total + V.conj().T @ V / tr
    return float(np.linalg.norm(total - M, 2))


@pytest.mark.parametrize(
    "factory,x",
    [(aklt, [0, 1, 2]), (lambda: clock(3), [0] * 5), (lambda: clock(3), [1, 4, 7])],
)
def test_martingale_step_check_keeps_its_bits_on_short_prefixes(factory, x):
    """Scaling by a power of two changes no bit of M or of its successors:
    the residual is that of the unscaled product, computed on the same
    machine, so it holds under any BLAS kernel."""
    K = factory()
    assert martingale_step_check(K, x).hex() == _unscaled_residual(K, x).hex()


@pytest.mark.parametrize(
    "factory",
    [aklt, aklt_pauli, jordan, markov, clock, damping, lambda: haar_kraus(3, 5, 0), lambda: haar_kraus(4, 3, 1)],
)
def test_martingale_step_check_is_the_unscaled_residual_on_sampled_prefixes(factory):
    """The same bit identity on prefixes of length 1 to 39 drawn by the
    sampler, so each has positive probability."""
    K = factory()
    outcomes, _, _ = sample_trajectories(K, 39, 7, range(20))
    for path, n in zip(outcomes, np.random.default_rng(7).integers(1, 40, size=20)):
        x = path[:n].tolist()
        assert martingale_step_check(K, x).hex() == _unscaled_residual(K, x).hex(), x


def test_a_long_trajectory_keeps_its_operators_past_the_float_floor():
    """A clock(3) path has probability 9^-n, which leaves the normal floats
    near n = 323; the sampler carries its running product scaled by powers
    of two, so every M stays finite with trace 1, and each path probability
    is exact until it rounds to a subnormal or zero."""
    outcomes, m_ops, probs = sample_trajectories(clock(3), 400, 0, range(2))
    assert outcomes.shape == (2, 400)
    assert np.all(np.isfinite(m_ops))
    assert np.allclose(np.trace(m_ops, axis1=2, axis2=3), 1.0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(probs[:, :300], np.broadcast_to(9.0 ** -np.arange(1, 301), (2, 300)), rtol=1e-12)
    assert np.all(probs[:, 340:] == 0.0)


@pytest.mark.parametrize(
    "factory,n",
    [(aklt, 5), (lambda: haar_kraus(3, 5, 0), 4), (lambda: jordan(4), 5)],
)
def test_mean_m_is_maximally_mixed(factory, n):
    assert mean_m_check(factory(), n) <= 1e-10


def test_mean_m_guard():
    with pytest.raises(EnumerationTooLarge):
        mean_m_check(clock(3), 10, guard=100)


@pytest.mark.parametrize(
    "factory", [aklt, lambda: haar_kraus(3, 5, 2), lambda: damping(0.5)]
)
def test_purification_statistic_equals_w(factory):
    """E[sqrt(l1 l2)] * D over paths reproduces the decay series w(n): the
    statistic takes w's check route, the series reports the singular values
    of the bare products.  Each statistic walks before w_series records its
    length on the family."""
    K = factory()
    stats = {n: purification_statistic(K, n) for n in (1, 3, 5)}
    w = w_series(K, 5)
    for n, got in stats.items():
        assert got == pytest.approx(w.value_at(n), abs=1e-9)


def test_martingale_trace_validation():
    with pytest.raises(ValueError):
        MartingaleTrace(outcomes=(0,), m_ops=(np.eye(2),), probs=(0.5,))
    with pytest.raises(ValueError):
        MartingaleTrace(outcomes=(0, 1), m_ops=(np.eye(2) / 2,), probs=(0.5,))
    tr = MartingaleTrace(outcomes=(0,), m_ops=(np.eye(2) / 2,), probs=(0.5,))
    assert tr.steps == 1


def test_trajectory_length_validation():
    with pytest.raises(ValueError):
        sample_trajectory(aklt(), 0, seed=0)


SAMPLED_FAMILIES = {
    "aklt": aklt,  # A_+ A_+ = 0: zero-weight continuations
    "aklt-pauli": BUILTINS["aklt-pauli"],
    "damping": lambda: damping(0.5),
    "markov": markov,
    "jordan-3": lambda: jordan(3),
    "clock-3": lambda: clock(3),
    "haar-D4-d3": lambda: haar_kraus(4, 3, 1),
    "haar-D2-d5": lambda: haar_kraus(2, 5, 3),
}


def _assert_is_the_oracle(K, n, seed, streams, outcomes, m_ops, probs):
    for i, s in enumerate(streams):
        want = oracle.sample_trajectory(K, n, seed, s)
        assert tuple(outcomes[i].tolist()) == want.outcomes, s
        assert all(np.array_equal(a, b) for a, b in zip(m_ops[i], want.m_ops)), s
        assert tuple(probs[i].tolist()) == want.probs, s


@pytest.mark.parametrize("family", sorted(SAMPLED_FAMILIES))
def test_sample_trajectories_is_the_scalar_loop_bit_for_bit(family):
    K = SAMPLED_FAMILIES[family]()
    streams = range(200)
    outcomes, m_ops, probs = sample_trajectories(K, 12, 5, streams)
    assert outcomes.shape == probs.shape == (200, 12)
    assert m_ops.shape == (200, 12, K.D, K.D)
    _assert_is_the_oracle(K, 12, 5, streams, outcomes, m_ops, probs)
    one = sample_trajectory(K, 12, 5, stream=7)
    assert one.outcomes == tuple(outcomes[7].tolist())
    assert all(np.array_equal(a, b) for a, b in zip(one.m_ops, m_ops[7]))
    assert one.probs == tuple(probs[7].tolist())


def test_sample_trajectories_rows_do_not_depend_on_the_other_streams():
    K = haar_kraus(3, 3, 2)
    whole = sample_trajectories(K, 6, 9, range(10))
    part = sample_trajectories(K, 6, 9, [8, 3])
    for a, b in zip(whole, part):
        assert np.array_equal(a[[8, 3]], b)


class _FixedDraws:
    """Stands in for a stream's generator: hands out the given uniforms in
    order, one at a time or as an array."""

    def __init__(self, u):
        self._u = list(u)

    def random(self, size=None):
        if size is None:
            return self._u.pop(0)
        out, self._u = np.array(self._u[:size]), self._u[size:]
        return out


@pytest.mark.parametrize(
    "K,u,first",
    [
        # weights 1/2, 1/2: a uniform on the boundary 0.5 draws the upper outcome
        (KrausFamily(ops=np.array([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]]) / np.sqrt(2.0)), 0.5, 1),
        # conditional weight 7.5e-16 < _WEIGHT_CUTOFF: the last uniform below 1
        # lands in it unless it is dropped
        (damping(1.5e-15), np.nextafter(1.0, 0.0), 0),
    ],
    ids=["boundary", "cutoff"],
)
def test_sample_trajectories_draws_on_the_edges_as_the_scalar_loop(monkeypatch, K, u, first):
    draws = [[u, 0.25, u], [0.25, u, 0.75]]
    monkeypatch.setattr(trajectories, "_rng_for", lambda seed, stream: _FixedDraws(draws[stream]))
    outcomes, m_ops, probs = sample_trajectories(K, 3, 0, [0, 1])
    assert outcomes[0, 0] == first
    _assert_is_the_oracle(K, 3, 0, [0, 1], outcomes, m_ops, probs)


def test_sample_trajectories_caps_where_the_scalar_loop_does(monkeypatch):
    # seven equal weights and a zero one: at steps 1 and 2 the cumulative
    # weights end below 1, so the largest double below 1 is capped onto the
    # last outcome of positive weight, 6, not onto the zero operator
    K = KrausFamily(ops=np.array([np.eye(2) / np.sqrt(7.0)] * 7 + [np.zeros((2, 2))]))
    last = np.nextafter(1.0, 0.0)
    draws = [[0.5, last], [0.5, 0.5]]
    monkeypatch.setattr(trajectories, "_rng_for", lambda seed, stream: _FixedDraws(draws[stream]))
    outcomes, m_ops, probs = sample_trajectories(K, 2, 0, [0, 1])
    assert outcomes.tolist() == [[3, 6], [3, 3]]
    _assert_is_the_oracle(K, 2, 0, [0, 1], outcomes, m_ops, probs)


@pytest.mark.parametrize(
    "weights",
    [[0.9704494067485071, 0.07140859705348279, 0.0], [0.7827604679261685, 0.2512675781710818, 1e-17]],
    ids=["zero", "cut"],
)
def test_a_uniform_past_the_rounded_sum_draws_no_dropped_outcome(weights):
    """The conditional weights' cumulative sum rounds below 1, and the last
    outcome's weight is 0 or under _WEIGHT_CUTOFF: the largest uniform below
    1 draws the last outcome of positive weight."""
    assert trajectories._draw(np.array([weights]), np.array([np.nextafter(1.0, 0.0)])).tolist() == [1]


def test_a_family_with_a_zero_operator_samples_no_zero_weight_branch(monkeypatch):
    """haar_kraus(2, 2, 25) and a zero operator, with every uniform the
    largest double below 1: at step 2 the cumulative weights end below 1,
    and both samplers cap the draw at outcome 1, where a cap at d - 1 drew
    the zero operator and raised ZeroProbabilityPath."""
    K = KrausFamily(ops=np.concatenate([haar_kraus(2, 2, 25).ops, np.zeros((1, 2, 2))]))
    last = np.nextafter(1.0, 0.0)
    monkeypatch.setattr(trajectories, "_rng_for", lambda seed, stream: _FixedDraws([last] * 6))
    outcomes, m_ops, probs = sample_trajectories(K, 6, 0, [0])
    assert outcomes.tolist() == [[1] * 6]
    _assert_is_the_oracle(K, 6, 0, [0], outcomes, m_ops, probs)


def test_sample_trajectories_rejects_a_first_step_with_no_weight():
    """The zero family passes its normalization check only at atol >= 1, and
    none of its first steps has weight."""
    K = KrausFamily(ops=np.zeros((2, 2, 2)), atol=2.0)
    with pytest.raises(ZeroProbabilityPath, match=r"all continuations of \(\) have zero weight"):
        sample_trajectories(K, 3, 0, [0, 1])


def test_sample_trajectories_of_no_stream_are_empty():
    outcomes, m_ops, probs = sample_trajectories(aklt(), 3, 0, [])
    assert outcomes.shape == probs.shape == (0, 3) and m_ops.shape == (0, 3, 2, 2)


def test_sampled_purification_is_w_within_four_standard_errors():
    """Trajectories are drawn with the path weights Tr(W^dag W)/D, so the
    sample mean of D sqrt(l1 l2) of M_n estimates w(n), and first outcomes
    are drawn with Tr(A_y^dag A_y)/D."""
    K, n, T = haar_kraus(4, 3, 1), 6, 4000
    outcomes, m_ops, _ = sample_trajectories(K, n, 2024, range(T))
    lam = np.clip(np.linalg.eigvalsh(m_ops[:, -1]), 0.0, None)
    stat = K.D * np.sqrt(lam[:, -1] * lam[:, -2])
    se = stat.std(ddof=1) / np.sqrt(T)
    assert abs(stat.mean() - w_series(K, n).value_at(n)) <= 4.0 * se
    p = np.einsum("yij,yij->y", K.ops.conj(), K.ops).real / K.D
    freq = np.bincount(outcomes[:, 0], minlength=K.d) / T
    assert np.all(np.abs(freq - p) <= 4.0 * np.sqrt(p * (1.0 - p) / T))
