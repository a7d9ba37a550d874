"""The input contract: lengths, tolerances, guards and matrices are checked
by shared checks, before any work, with one documented exception type each."""

import dataclasses

import numpy as np
import pytest

from mpsrestrict import (
    BoundaryPair,
    KrausFamily,
    RestrictionContext,
    aklt,
    binary_entropy,
    damping,
    exterior_square,
    g_func,
    gram_rank,
    herm_eigen,
    singular_values,
    sqrt_env,
    von_neumann_entropy,
)
from mpsrestrict import restriction
from mpsrestrict.cli import main
from mpsrestrict.errors import (
    EnumerationTooLarge,
    FNotContractive,
    NotDensityOperator,
    NotPSD,
    OutOfRange,
)
from mpsrestrict.purity import (
    correctable_subspace,
    f_series,
    haar_kraus,
    product_set,
    purity_verdict,
    span_purity_test,
    w_series,
)
from mpsrestrict.restriction import (
    average_entropy,
    average_purity_q,
    chain_distribution,
    cmi_report,
    quantum_cmi,
    restriction_scan,
    window_distribution,
)
from mpsrestrict.trajectories import (
    mean_m_check,
    purification_statistic,
    sample_trajectories,
    sample_trajectory,
)

_K = aklt()
_CTX = RestrictionContext.stationary(_K)
_EDGE = np.array([1.0, 1.0]) / np.sqrt(2.0)

# every public entry point that takes a length, as a call of that length
LENGTH_ENTRY_POINTS = {
    "restriction_scan": lambda n: restriction_scan(_CTX, n),
    "average_entropy": lambda n: average_entropy(_CTX, n),
    "quantum_cmi": lambda n: quantum_cmi(_CTX, n),
    "average_purity_q": lambda n: average_purity_q(_CTX, n),
    "window_distribution": lambda n: window_distribution(_CTX, n),
    "chain_distribution": lambda n: chain_distribution(damping(0.5), BoundaryPair(L=_EDGE, R=_EDGE), n),
    "cmi_report": lambda n: cmi_report(_CTX, n),
    "product_set": lambda n: product_set(_K, n),
    "span_purity_test": lambda n: span_purity_test(_K, n),
    "correctable_subspace": lambda n: correctable_subspace(_K, n),
    "purity_verdict": lambda n: purity_verdict(_K, n),
    "w_series": lambda n: w_series(_K, n),
    "f_series": lambda n: f_series(_K, _CTX.sigma, _CTX.f_op, n),
    "mean_m_check": lambda n: mean_m_check(_K, n),
    "purification_statistic": lambda n: purification_statistic(_K, n),
    "sample_trajectory": lambda n: sample_trajectory(_K, n, seed=0),
    "sample_trajectories": lambda n: sample_trajectories(_K, n, 0, [0, 1]),
}


def _same(a, b) -> bool:
    """Equal values of equal types, through dataclasses, sequences and arrays."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", sorted(LENGTH_ENTRY_POINTS))
@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_a_bad_length_is_out_of_range_before_any_product(name, n, monkeypatch):
    def no_products(*args, **kwargs):
        raise AssertionError("a product was formed before the length was checked")

    monkeypatch.setattr(restriction, "_grow", no_products)
    with pytest.raises(OutOfRange) as exc:
        LENGTH_ENTRY_POINTS[name](n)
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("name", sorted(LENGTH_ENTRY_POINTS))
def test_an_integral_float_length_is_that_integer(name):
    assert _same(LENGTH_ENTRY_POINTS[name](2.0), LENGTH_ENTRY_POINTS[name](2))


def test_only_the_guard_raises_enumeration_too_large():
    for n in (0, -1):
        with pytest.raises(OutOfRange):
            w_series(_K, n)
    with pytest.raises(EnumerationTooLarge):
        w_series(_K, 3, guard=26)
    assert w_series(_K, 3, guard=float("inf")) == w_series(_K, 3)


def _transposed(a: np.ndarray) -> np.ndarray:
    t = np.swapaxes(a, -1, -2)
    assert not t.flags.c_contiguous
    return t


def test_transposed_input_is_accepted_as_its_contiguous_copy():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = _transposed(X + X.conj().T)
    rho = _transposed(X @ X.conj().T / np.trace(X @ X.conj().T))
    ops = _transposed(np.ascontiguousarray(_transposed(haar_kraus(3, 2, seed=1).ops)))

    def copy(a):
        return np.ascontiguousarray(a)

    assert np.array_equal(KrausFamily(ops=ops).ops, KrausFamily(ops=copy(ops)).ops)
    a, b = herm_eigen(H), herm_eigen(copy(H))
    assert np.array_equal(a.values, b.values) and np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(singular_values(_transposed(X)).values, singular_values(copy(X.T)).values)
    assert von_neumann_entropy(rho) == von_neumann_entropy(copy(rho))
    assert gram_rank(list(ops)) == gram_rank([copy(A) for A in ops]) == 2
    assert np.array_equal(exterior_square(_transposed(X)), exterior_square(copy(X.T)))


def test_a_broadcast_kraus_family_is_accepted():
    ops = np.broadcast_to(np.eye(2) / np.sqrt(2), (2, 2, 2))
    assert np.array_equal(KrausFamily(ops=ops).ops, np.stack([np.eye(2) / np.sqrt(2)] * 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrices_are_rejected_with_their_documented_type(bad):
    eye = np.eye(2, dtype=complex)
    poisoned = np.array([[0.5, 0.0], [0.0, bad]], dtype=complex)
    with pytest.raises(NotDensityOperator):
        RestrictionContext(kraus=_K, sigma=poisoned, f_op=eye, k2=1.0)
    with pytest.raises(FNotContractive):
        RestrictionContext(kraus=_K, sigma=eye / 2, f_op=poisoned, k2=1.0)
    with pytest.raises(NotPSD):
        sqrt_env(poisoned)
    with pytest.raises(NotDensityOperator):
        f_series(_K, poisoned, eye, 2)
    with pytest.raises(FNotContractive):
        f_series(_K, eye / 2, poisoned, 2)


def test_nan_scalars_are_rejected():
    nan = float("nan")
    with pytest.raises(OutOfRange):
        KrausFamily(ops=_K.ops, atol=nan)
    with pytest.raises(OutOfRange):
        KrausFamily(ops=np.stack([np.eye(2), np.eye(2)]), atol=nan)  # residual sqrt(2)
    with pytest.raises(EnumerationTooLarge):
        restriction._check_guard(3, 40, nan)
    with pytest.raises(EnumerationTooLarge):
        w_series(_K, 2, guard=nan)
    with pytest.raises(OutOfRange):
        correctable_subspace(_K, 2, budget=nan)
    for fn in (binary_entropy, g_func):
        with pytest.raises(OutOfRange):
            fn(nan)


def test_analyze_computes_the_fixed_point_twice(monkeypatch, tmp_path):
    """Once for the stationary context, which carries it, and once for the
    report's fixed-point block; not once more per row."""
    from mpsrestrict import chain, cli

    calls = []

    def counted(K):
        calls.append(K)
        return chain.fixed_point(K)

    monkeypatch.setattr(restriction, "fixed_point", counted)
    monkeypatch.setattr(cli, "fixed_point", counted)
    assert main(["analyze", "--builtin", "aklt", "--nmax", "4", "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 2
