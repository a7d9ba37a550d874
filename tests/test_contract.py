"""The input contract: lengths, tolerances, guards and matrices are checked
by shared checks, before any work, with one documented exception type each."""

import dataclasses
import inspect
import time
from pathlib import Path

import numpy as np
import pytest

import mpsrestrict
from mpsrestrict import (
    BoundaryPair,
    KrausFamily,
    RestrictionContext,
    aklt,
    binary_entropy,
    clock,
    damping,
    exterior_square,
    g_func,
    gram_rank,
    herm_eigen,
    jordan,
    left_environment,
    markov,
    right_environment,
    singular_values,
    sqrt_env,
    transfer_adjoint_apply,
    transfer_apply,
    von_neumann_entropy,
)
from mpsrestrict import restriction
from mpsrestrict.cli import main
from mpsrestrict.errors import (
    EllOutOfRange,
    EnumerationTooLarge,
    FNotContractive,
    InvalidDistribution,
    NonSquare,
    NotDensityOperator,
    NotPSD,
    OutOfRange,
    RangeError,
    ShapeMismatch,
    SymbolOutOfRange,
)
from mpsrestrict.gibbs import (
    ChainDistribution,
    cmi_decomposition_check,
    local_hamiltonian,
    marginal,
    tail_bound_check,
)
from mpsrestrict.linalg import clock_shift_basis
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
from mpsrestrict.restriction import (
    average_entropy,
    average_purity_q,
    chain_distribution,
    cmi_report,
    post_measurement_spectrum,
    quantum_cmi,
    restriction_scan,
    string_probability,
    window_distribution,
)
from mpsrestrict.trajectories import (
    martingale_step_check,
    mean_m_check,
    purification_statistic,
    sample_trajectories,
    sample_trajectory,
)

_K = aklt()
_CTX = RestrictionContext.stationary(_K)
_EDGE = np.array([1.0, 1.0]) / np.sqrt(2.0)


def _fresh_ctx() -> RestrictionContext:
    return RestrictionContext.stationary(aklt())


# every public entry point that takes a length, as a call of that length; a
# family records the w sums and each context's scans of the lengths it has
# walked, so the calls that read those records take a fresh family and walk
# every time
LENGTH_ENTRY_POINTS = {
    "restriction_scan": lambda n: restriction_scan(_fresh_ctx(), n),
    "average_entropy": lambda n: average_entropy(_fresh_ctx(), n),
    "quantum_cmi": lambda n: quantum_cmi(_fresh_ctx(), n),
    "average_purity_q": lambda n: average_purity_q(_fresh_ctx(), n),
    "window_distribution": lambda n: window_distribution(_CTX, n),
    "chain_distribution": lambda n: chain_distribution(damping(0.5), BoundaryPair(L=_EDGE, R=_EDGE), n),
    "cmi_report": lambda n: cmi_report(_fresh_ctx(), n),
    "product_set": lambda n: product_set(_K, n),
    "span_purity_test": lambda n: span_purity_test(_K, n),
    "correctable_subspace": lambda n: correctable_subspace(_K, n),
    "purity_verdict": lambda n: purity_verdict(aklt(), n),
    "w_series": lambda n: w_series(aklt(), n),
    "f_series": lambda n: f_series(aklt(), _CTX.sigma, _CTX.f_op, n),
    "mean_m_check": lambda n: mean_m_check(_K, n),
    "purification_statistic": lambda n: purification_statistic(aklt(), n),
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
@pytest.mark.parametrize("n", [0, -1, 2.5, True])
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


# the entry points of LENGTH_ENTRY_POINTS that enumerate under the guard
ENUMERATORS = sorted(set(LENGTH_ENTRY_POINTS) - {"span_purity_test", "sample_trajectory", "sample_trajectories"})


@pytest.mark.parametrize("name", ENUMERATORS)
@pytest.mark.parametrize("n", [10**4, 10**7])
def test_a_long_length_fails_the_guard_at_once(name, n):
    """Past the guard's bit length d^n is neither formed nor written in
    decimal (3^10000 has 4772 digits, more than Python converts), so the
    guard fails at once and names the power."""
    start = time.perf_counter()
    with pytest.raises(EnumerationTooLarge, match=r"d\^n = \d+\^\d+ exceeds the guard"):
        LENGTH_ENTRY_POINTS[name](n)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", ["10000", "10000000"])
def test_analyze_at_a_long_length_exits_with_the_guard(n):
    start = time.perf_counter()
    assert main(["analyze", "--builtin", "aklt", "--nmax", n]) == 2
    assert time.perf_counter() - start < 1.0


def test_the_guard_keeps_its_edges():
    """A NaN guard fails and an infinite one passes at every length; a short
    d^n is written in decimal, and d = 1 is compared however long n is."""
    nan, inf = float("nan"), float("inf")
    for d, n in ((1, 4), (3, 40), (3, 10**7)):
        with pytest.raises(EnumerationTooLarge):
            restriction._check_guard(d, n, nan)
        restriction._check_guard(d, n, inf)
    with pytest.raises(EnumerationTooLarge, match=r"d\^n = 243 exceeds the guard 242$"):
        restriction._check_guard(3, 5, 242)
    restriction._check_guard(3, 5, 243)
    restriction._check_guard(1, 10**7, 1)
    with pytest.raises(EnumerationTooLarge):
        restriction._check_guard(1, 10**7, 0.5)


def test_only_the_guard_raises_enumeration_too_large():
    for n in (0, -1):
        with pytest.raises(OutOfRange):
            w_series(_K, n)
    with pytest.raises(EnumerationTooLarge):
        w_series(_K, 3, guard=26)
    assert w_series(_K, 3, guard=float("inf")) == w_series(aklt(), 3)


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


_EYE = np.eye(2, dtype=complex)
_E0 = np.array([1.0, 0.0])

# bad matrices and boundary vectors for a family with D = 2; "wrong-size" is
# a valid 3x3 density operator and contraction, wrong only in its size
BAD_MATRICES = {
    "nan": np.array([[0.5, 0.0], [0.0, np.nan]]),
    "inf": np.array([[0.5, 0.0], [0.0, np.inf]]),
    "non-square": np.full((2, 3), 0.25),
    "wrong-size": np.eye(3) / 3,
    "nan-vector": np.array([np.nan, 0.0]),
    "inf-vector": np.array([np.inf, 0.0]),
    "wrong-size-vector": np.array([1.0, 0.0, 0.0]),
}
_SQUARE = ("nan", "inf", "non-square", "wrong-size")
_ANY_SIZE = ("nan", "inf", "non-square")
_VECTOR = ("nan-vector", "inf-vector", "wrong-size-vector")

# every public entry point that takes a square matrix or a boundary vector, as
# "function-parameter": the call on a bad argument and the error each bad kind
# raises (sizes bound by the family are checked against D = 2)
MATRIX_ENTRY_POINTS = {
    "RestrictionContext-sigma": (
        lambda M: RestrictionContext(kraus=_K, sigma=M, f_op=_EYE),
        dict.fromkeys(_SQUARE, NotDensityOperator),
    ),
    "RestrictionContext-f_op": (
        lambda M: RestrictionContext(kraus=_K, sigma=_EYE / 2, f_op=M),
        dict.fromkeys(_SQUARE, FNotContractive),
    ),
    "f_series-sigma": (lambda M: f_series(_K, M, _EYE, 2), dict.fromkeys(_SQUARE, NotDensityOperator)),
    "f_series-F": (lambda M: f_series(_K, _EYE / 2, M, 2), dict.fromkeys(_SQUARE, FNotContractive)),
    "transfer_apply-chi": (lambda M: transfer_apply(_K, M), dict.fromkeys(_SQUARE, ShapeMismatch)),
    "transfer_adjoint_apply-Q": (lambda M: transfer_adjoint_apply(_K, M), dict.fromkeys(_SQUARE, ShapeMismatch)),
    "sqrt_env-M": (sqrt_env, dict.fromkeys(_ANY_SIZE, NotPSD)),
    "von_neumann_entropy-rho": (von_neumann_entropy, dict.fromkeys(_ANY_SIZE, NotDensityOperator)),
    "herm_eigen-H": (herm_eigen, {"nan": ShapeMismatch, "inf": ShapeMismatch, "non-square": NonSquare}),
    "left_environment-L": (lambda v: left_environment(_K, v, 0), dict.fromkeys(_VECTOR, ShapeMismatch)),
    "right_environment-R": (lambda v: right_environment(_K, v, 0), dict.fromkeys(_VECTOR, ShapeMismatch)),
    "BoundaryPair-L": (
        lambda v: BoundaryPair(L=v, R=_E0),
        {"nan-vector": OutOfRange, "inf-vector": OutOfRange, "wrong-size-vector": ShapeMismatch},
    ),
    "BoundaryPair-R": (
        lambda v: BoundaryPair(L=_E0, R=v),
        {"nan-vector": OutOfRange, "inf-vector": OutOfRange, "wrong-size-vector": ShapeMismatch},
    ),
}
# the parameter names that hold a square matrix or a boundary vector
_MATRIX_PARAMETERS = {"chi", "Q", "M", "H", "rho", "sigma", "F", "f_op", "L", "R"}


@pytest.mark.parametrize(
    "name,kind", [(name, kind) for name, (_, errors) in sorted(MATRIX_ENTRY_POINTS.items()) for kind in errors]
)
def test_a_bad_matrix_raises_its_documented_error(name, kind):
    """NaN, Inf, a non-square or a mis-sized argument raises the entry point's
    named error, not a numpy error or a result full of NaN."""
    call, errors = MATRIX_ENTRY_POINTS[name]
    with pytest.raises(errors[kind]):
        call(BAD_MATRICES[kind])


def test_every_public_matrix_entry_point_is_in_the_registry():
    """A new public function or class that takes a square matrix or a boundary
    vector must join MATRIX_ENTRY_POINTS, and so the checks above.
    TransferFixedPoint is a result that fixed_point builds, not an input."""
    taken = set()
    for name in mpsrestrict.__all__:
        obj = getattr(mpsrestrict, name)
        if callable(obj) and name != "TransferFixedPoint":
            try:
                params = inspect.signature(obj).parameters
            except ValueError:  # an exception class, which has no signature
                continue
            taken |= {f"{name}-{p}" for p in params if p in _MATRIX_PARAMETERS}
    assert taken == set(MATRIX_ENTRY_POINTS)


def test_a_mis_sized_sigma_is_named_as_sigma():
    """sigma is judged by its own rule before F, so a mis-sized sigma raises
    NotDensityOperator naming sigma, even when F is mis-sized too."""
    with pytest.raises(NotDensityOperator, match="sigma must be 2x2"):
        RestrictionContext(kraus=_K, sigma=np.eye(3) / 3, f_op=np.eye(3))


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
    for fn in (binary_entropy, g_func):
        with pytest.raises(OutOfRange):
            fn(nan)


# every public entry point that takes a tolerance or a scalar in [0, 1], as a
# call on it, with the name its error gives the argument
SCALAR_ENTRY_POINTS = {
    "purity_verdict-tol": (lambda v: purity_verdict(_K, 3, tol=v), "tol"),
    "KrausFamily-atol": (lambda v: KrausFamily(ops=_K.ops, atol=v), "atol"),
    "g_func-t": (g_func, "t"),
    "binary_entropy-t": (binary_entropy, "t"),
    "damping-gamma": (damping, "gamma"),
}


@pytest.mark.parametrize("name", sorted(SCALAR_ENTRY_POINTS))
@pytest.mark.parametrize("value", [True, False, None, "0.5", 0.5 + 0j, np.bool_(True)])
def test_a_scalar_that_is_not_a_real_number_is_out_of_range(name, value):
    """A bool is not read as 0 or 1, and None, a string or a complex number
    raises the named error, naming the argument, not a TypeError."""
    call, what = SCALAR_ENTRY_POINTS[name]
    with pytest.raises(OutOfRange, match=what):
        call(value)


@pytest.mark.parametrize("name", sorted(SCALAR_ENTRY_POINTS))
def test_a_real_scalar_of_any_type_is_accepted(name):
    call, _ = SCALAR_ENTRY_POINTS[name]
    for value in (0, 0.5, np.float64(0.5), np.float32(0.5), np.int64(1)):
        call(value)


_FINITE_MODEL = str(Path(__file__).parent / "golden" / "haar_d3_d3_finite_model.json")


@pytest.mark.parametrize(
    "source", [["--builtin", "aklt"], ["--model", _FINITE_MODEL]], ids=["stationary", "finite"]
)
def test_analyze_computes_the_fixed_point_once(monkeypatch, tmp_path, source):
    """The family computes its transfer fixed point once
    (``KrausFamily._fixed_point``): a stationary context is built from it,
    a finite chain's report reads it for its fixed-point block, and no row
    computes it again.  Two stationary contexts of one family share it."""
    from mpsrestrict import chain

    calls = []
    real = chain.fixed_point  # bound before patching, so the spy does not call itself

    def counted(K):
        calls.append(K)
        return real(K)

    monkeypatch.setattr(chain, "fixed_point", counted)
    assert main(["analyze", *source, "--nmax", "4", "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1
    K = damping(0.5)
    RestrictionContext.stationary(K)
    RestrictionContext.stationary(K)
    assert len(calls) == 2 and calls[1] is K


_NAN = float("nan")

# a bad argument to a model constructor or a boundary pair: the call, the named
# error (a ValueError too), a word of its message, and the CLI flags, if any,
# that pass the same argument (exit 3)
BAD_MODEL_ARGUMENTS = {
    "jordan-float": (lambda: jordan(2.5), OutOfRange, "dim", None),
    "jordan-zero": (lambda: jordan(0), OutOfRange, "dim", ["--builtin", "jordan", "--dim", "0"]),
    "clock-float": (lambda: clock(2.5), OutOfRange, "dim", None),
    "clock-one": (lambda: clock(1), OutOfRange, "dim", ["--builtin", "clock", "--dim", "1"]),
    "damping-nan": (lambda: damping(_NAN), OutOfRange, "gamma", ["--builtin", "damping", "--gamma", "nan"]),
    "markov-nan": (
        lambda: markov([[_NAN, 1.0], [0.0, 1.0]]),
        InvalidDistribution,
        "transition matrix contains NaN",
        ["--builtin", "markov", "--p", "nan,1;0,1"],
    ),
    "markov-negative": (
        lambda: markov([[1.5, -0.5], [0.0, 1.0]]),
        InvalidDistribution,
        "non-negative",
        ["--builtin", "markov", "--p", "1.5,-0.5;0,1"],
    ),
    "markov-not-square": (lambda: markov([[1.0, 0.0]]), InvalidDistribution, "square", None),
    "markov-empty": (lambda: markov(np.zeros((0, 0))), InvalidDistribution, "non-empty", None),
    "boundary-norm": (lambda: BoundaryPair(L=2 * _E0, R=_E0), OutOfRange, "boundary vector L", None),
    "boundary-nan": (lambda: BoundaryPair(L=_E0, R=np.array([_NAN, 0.0])), OutOfRange, "boundary vector R", None),
}


@pytest.mark.parametrize("case", sorted(BAD_MODEL_ARGUMENTS))
def test_a_bad_model_argument_raises_its_named_error(case):
    call, error, words, flags = BAD_MODEL_ARGUMENTS[case]
    with pytest.raises(error, match=words) as exc:
        call()
    assert isinstance(exc.value, ValueError)
    if flags is not None:
        assert main(["sample", *flags, "--nmax", "1"]) == 3


# every public entry point that takes a measurement string, as a call on it
STRING_ENTRY_POINTS = {
    "string_probability": lambda x: string_probability(_CTX, x),
    "post_measurement_spectrum": lambda x: post_measurement_spectrum(_CTX, x),
    "martingale_step_check": lambda x: martingale_step_check(_K, x),
}


@pytest.mark.parametrize("name", sorted(STRING_ENTRY_POINTS))
@pytest.mark.parametrize("symbol", [0.5, 1.9, _NAN, float("inf"), None, "1", -1, 3])
def test_a_bad_symbol_is_out_of_range(name, symbol):
    """A fractional symbol is not cut to an integer, and NaN, inf and None
    raise the named error, not a bare ValueError, OverflowError or TypeError."""
    with pytest.raises(SymbolOutOfRange):
        STRING_ENTRY_POINTS[name]([1, symbol])


@pytest.mark.parametrize("name", sorted(STRING_ENTRY_POINTS))
@pytest.mark.parametrize("string", [5, 3, None, 2.5])
def test_a_string_that_is_not_a_sequence_is_out_of_range(name, string):
    """A measurement string that cannot be iterated raises the named error,
    not a bare TypeError."""
    with pytest.raises(SymbolOutOfRange, match="not a sequence"):
        STRING_ENTRY_POINTS[name](string)


@pytest.mark.parametrize("name", sorted(STRING_ENTRY_POINTS))
def test_integral_symbols_are_those_integers(name):
    call = STRING_ENTRY_POINTS[name]
    assert _same(call([1.0, np.int64(0)]), call([1, 0]))


_P = ChainDistribution(length=4, d=2, table=np.full(16, 1 / 16))

# a non-integral index to a Gibbs function: the call and its named error
BAD_GIBBS_INDICES = {
    "length": (lambda v: ChainDistribution(length=v, d=2, table=np.full(4, 0.25)), InvalidDistribution),
    "d": (lambda v: ChainDistribution(length=2, d=v, table=np.full(4, 0.25)), InvalidDistribution),
    "ell": (lambda v: local_hamiltonian(_P, v), EllOutOfRange),
    "window-first": (lambda v: marginal(_P, v, 2), RangeError),
    "window-last": (lambda v: marginal(_P, 1, v), RangeError),
    "decomposition-ell": (lambda v: cmi_decomposition_check(_P, v), EllOutOfRange),
    "tail-bound-ell": (lambda v: tail_bound_check(_P, v, lambda ell: 1.0), EllOutOfRange),
}


@pytest.mark.parametrize("case", sorted(BAD_GIBBS_INDICES))
@pytest.mark.parametrize("value", [1.5, _NAN, float("inf"), None, 0])
def test_a_bad_gibbs_index_raises_its_named_error(case, value):
    call, error = BAD_GIBBS_INDICES[case]
    with pytest.raises(error):
        call(value)


# a dimension, series length, seed or stream that is not an integer >= 1
# (>= 0 for a seed or a stream)
BAD_DIMENSIONS = {
    "clock_shift_basis": lambda v: clock_shift_basis(v),
    "build_r_operator": lambda v: build_r_operator(v),
    "haar_kraus-D": lambda v: haar_kraus(v, 2, 1),
    "haar_kraus-d": lambda v: haar_kraus(2, v, 1),
    "haar_kraus-seed": lambda v: haar_kraus(2, 2, v),
    "constructive_purity_family-D": lambda v: constructive_purity_family(v),
    "constructive_purity_family-d": lambda v: constructive_purity_family(3, v),
    "DecaySeries.from_values-n": lambda v: DecaySeries.from_values([(1, 0.5), (v, 0.25)]),
    "estimate_rate-n": lambda v: estimate_rate([(1, 0.5), (v, 0.25)]),
    "sample_trajectory-seed": lambda v: sample_trajectory(_K, 5, seed=v),
    "sample_trajectory-stream": lambda v: sample_trajectory(_K, 5, seed=7, stream=v),
    "sample_trajectories-stream": lambda v: sample_trajectories(_K, 3, 0, [0, v]),
}


@pytest.mark.parametrize("case", sorted(BAD_DIMENSIONS))
@pytest.mark.parametrize("value", [2.5, 5.5, _NAN, float("inf"), None, -1, True])
def test_a_bad_dimension_is_out_of_range(case, value):
    with pytest.raises(OutOfRange):
        BAD_DIMENSIONS[case](value)


def test_a_negative_seed_is_named_by_sample(capsys):
    assert main(["sample", "--builtin", "aklt", "--nmax", "1", "--seed", "-1"]) == 3
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err


def test_an_integral_float_dimension_is_that_integer():
    assert len(clock_shift_basis(3.0)) == 9
    assert np.array_equal(build_r_operator(3.0), build_r_operator(3))
    assert np.array_equal(haar_kraus(2.0, 3.0, 1.0).ops, haar_kraus(2, 3, 1).ops)
    assert np.array_equal(constructive_purity_family(3.0, 5.0).ops, constructive_purity_family(3, 5).ops)
    assert _same(sample_trajectory(_K, 5, seed=7.0, stream=2.0), sample_trajectory(_K, 5, seed=7, stream=2))
