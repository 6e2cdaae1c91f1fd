"""The public gram and lyapunov entry points refuse malformed input with a
library error: a non-finite or wrong-length array, or a non-finite scalar,
raises a SwlyapError, never a numpy error, a warning or a NaN result.  The
public constructors refuse an ill-typed field with a StructuralError at its
path, and never truncate a mode id."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swlyap import (
    DiagonalGroupMode,
    NormSpec,
    PiecewiseConstantFn,
    ShiftAmplifyMode,
    SignalFamily,
    StructuralError,
    SwitchingSignal,
    SwlyapError,
    argmax_set,
    augment_system,
    candidates_from_family,
    directional_derivative,
    enumerate_family,
    euclidean_state,
    family_max,
    generalized_derivative,
    lyapunov_solve,
    matrix_mode,
    segment_energy,
    trajectory_cost,
    v_max,
    v_sup,
    v_tilde,
    v_tilde_single_mode,
)
from swlyap.gram import GramOperator
from swlyap.presets import commuting_diag_pair

PAIR = commuting_diag_pair()
FAM = SignalFamily((0.5,), 1, (0, 1))
SIGNALS = tuple(enumerate_family(FAM))
CANDS = candidates_from_family(PAIR, FAM)
GOOD = euclidean_state([1.0, 0.5])
MODE = PAIR.modes[0]

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FINITE = st.floats(-4.0, 4.0)
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def v_family(y):
    return family_max(PAIR, SIGNALS, y, 1.0)[1]


@st.composite
def bad_vectors(draw, dim=2):
    """A vector of the wrong length, or of length ``dim`` with a non-finite entry."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 4).filter(lambda n: n != dim))
        return np.array(draw(st.lists(FINITE, min_size=n, max_size=n)), dtype=float)
    v = draw(st.lists(FINITE, min_size=dim, max_size=dim))
    v[draw(st.integers(0, dim - 1))] = draw(NON_FINITE)
    return np.array(v)


@st.composite
def bad_matrices(draw):
    """A matrix that is not square, or a Hurwitz one with a non-finite entry."""
    if draw(st.booleans()):
        rows, cols = draw(st.sampled_from([(1, 2), (2, 1), (2, 3), (0, 0)]))
        entries = draw(st.lists(FINITE, min_size=rows * cols, max_size=rows * cols))
        return np.array(entries, dtype=float).reshape(rows, cols)
    n = draw(st.integers(1, 3))
    M = -np.eye(n)
    M[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(NON_FINITE)
    return M


VECTOR_CALLS = {
    "v_max": lambda x: v_max(CANDS, x),
    "argmax_set": lambda x: argmax_set(CANDS, x),
    "directional_derivative state": lambda x: directional_derivative(CANDS, x, GOOD),
    "directional_derivative direction": lambda x: directional_derivative(CANDS, GOOD, x),
    "trajectory_cost": lambda x: trajectory_cost(PAIR, SIGNALS[-1], x, 1.0),
    "family_max": lambda x: family_max(PAIR, SIGNALS, x, 1.0),
    "v_sup": lambda x: v_sup(PAIR, x, FAM, 1.0),
    "v_tilde": lambda x: v_tilde(PAIR, x, FAM, 1.0),
    "v_tilde_single_mode": lambda x: v_tilde_single_mode(MODE, 1.0, x, 1.0),
    "generalized_derivative": lambda x: generalized_derivative(v_family, PAIR, 0, x),
}

MATRIX_CALLS = {
    "lyapunov_solve A": lambda M: lyapunov_solve(M, np.eye(max(len(M), 1))),
    "lyapunov_solve Q": lambda M: lyapunov_solve(-np.eye(max(len(M), 1)), M),
    "segment_energy": lambda M: segment_energy(M, 1.0),
    "GramOperator": lambda M: GramOperator(M, SwitchingSignal()),
}

SCALAR_CALLS = {
    "segment_energy d": lambda s: segment_energy(-np.eye(2), s),
    "trajectory_cost horizon": lambda s: trajectory_cost(PAIR, SIGNALS[-1], GOOD, s),
    "family_max horizon": lambda s: family_max(PAIR, SIGNALS, GOOD, s),
    "v_sup horizon": lambda s: v_sup(PAIR, GOOD, FAM, s),
    "v_tilde horizon": lambda s: v_tilde(PAIR, GOOD, FAM, s),
    "v_tilde_single_mode mu": lambda s: v_tilde_single_mode(MODE, s, GOOD, 1.0),
    "v_tilde_single_mode horizon": lambda s: v_tilde_single_mode(MODE, 1.0, GOOD, s),
    "argmax_set tol": lambda s: argmax_set(CANDS, GOOD, s),
    "directional_derivative tol": lambda s: directional_derivative(CANDS, GOOD, GOOD, s),
    "augment_system mu": lambda s: augment_system(PAIR, s),
}


def assert_library_error(call, arg):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SwlyapError):
            call(arg)


@pytest.mark.parametrize("name", sorted(VECTOR_CALLS))
@SETTINGS
@given(x=bad_vectors())
def test_bad_vectors_raise_library_errors(name, x):
    assert_library_error(VECTOR_CALLS[name], x)


@pytest.mark.parametrize("name", sorted(MATRIX_CALLS))
@SETTINGS
@given(M=bad_matrices())
def test_bad_matrices_raise_library_errors(name, M):
    assert_library_error(MATRIX_CALLS[name], M)


@pytest.mark.parametrize("name", sorted(SCALAR_CALLS))
@SETTINGS
@given(s=NON_FINITE)
def test_non_finite_scalars_raise_library_errors(name, s):
    assert_library_error(SCALAR_CALLS[name], s)


# -- constructors ---------------------------------------------------------------

# What no constructor takes as a mode id: not a number, a boolean, or a number
# that is not a nonnegative integer.
BAD_IDS = st.sampled_from([1j, "1", None, [0], True, False, np.bool_(True), math.nan,
                           math.inf, -math.inf, 0.5, 2.5, -1, -1.0])
# What no constructor takes as a number.  A boolean is refused where one scalar
# is read; inside an array numpy reads it as 0 or 1, as it does everywhere.
NOT_NUMBERS = st.sampled_from([1j, np.complex128(1j), "1", "x", None, [1.0]])
NOT_SCALARS = NOT_NUMBERS | st.sampled_from([True, np.bool_(False)])
RAGGED_MATRICES = st.sampled_from([[[-1.0, 0.0], [0.0]], [[-1.0], [0.0, -1.0]], [[-1.0], -1.0],
                                   [], [[]]])
# A bare number is not a 1x1 matrix at any matrix argument.
BARE_NUMBERS = st.sampled_from([2.0, -1.0, 1, np.float64(-1.0)])
ILL_TYPED_MATRICES = (RAGGED_MATRICES | BARE_NUMBERS
                      | NOT_NUMBERS.map(lambda v: [[-1.0, v], [0.0, -1.0]]))
ILL_TYPED_VECTORS = (st.sampled_from([[[1.0], [2.0, 3.0]], [1.0, [2.0]], []])
                     | NOT_NUMBERS.map(lambda v: [1.0, v]))

ID_CALLS = {
    "SwitchingSignal segment mode": lambda v: SwitchingSignal(((v, 0.5),), 0),
    "SwitchingSignal tail": lambda v: SwitchingSignal(((0, 0.5),), v),
    "SignalFamily max_switches": lambda v: SignalFamily((0.5,), v, (0,)),
    "SignalFamily mode id": lambda v: SignalFamily((0.5,), 1, (0, v)),
}

SCALAR_ARGS = {
    "SwitchingSignal dwell": lambda v: SwitchingSignal(((0, v),), 0),
    "SignalFamily dwell": lambda v: SignalFamily((0.5, v), 1, (0,)),
    "DiagonalGroupMode mu": DiagonalGroupMode,
    "ShiftAmplifyMode factor": lambda v: ShiftAmplifyMode(0.0, 1.0, "left", 0.0, 0.5, v),
    "NormSpec p": NormSpec,
    "PiecewiseConstantFn break": lambda v: PiecewiseConstantFn(0.0, 1.0, (v,), (1.0, 2.0)),
    "segment_energy d": lambda v: segment_energy([[-1.0]], v),
}

MATRIX_ARGS = {
    "matrix_mode": matrix_mode,
    "segment_energy": lambda M: segment_energy(M, 1.0),
    "lyapunov_solve A": lambda M: lyapunov_solve(M, [[1.0]]),
    "lyapunov_solve Q": lambda M: lyapunov_solve([[-1.0]], M),
}


def assert_structural_error(call, arg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructuralError):
            call(arg)


@pytest.mark.parametrize("name", sorted(ID_CALLS))
@SETTINGS
@given(v=BAD_IDS)
def test_bad_mode_ids_raise_structural_errors(name, v):
    assert_structural_error(ID_CALLS[name], v)


@pytest.mark.parametrize("name", sorted(SCALAR_ARGS))
@SETTINGS
@given(v=NOT_SCALARS)
def test_ill_typed_scalars_raise_structural_errors(name, v):
    assert_structural_error(SCALAR_ARGS[name], v)


@pytest.mark.parametrize("name", sorted(MATRIX_ARGS))
@SETTINGS
@given(M=ILL_TYPED_MATRICES)
def test_ill_typed_matrices_raise_structural_errors(name, M):
    assert_structural_error(MATRIX_ARGS[name], M)


@SETTINGS
@given(x=ILL_TYPED_VECTORS)
def test_ill_typed_vectors_raise_structural_errors(x):
    assert_structural_error(euclidean_state, x)


def test_structural_errors_name_the_field():
    cases = [
        (lambda: SwitchingSignal(((0, 0.5), (0.5, 1.0)), 0), "segments[1].mode: "),
        (lambda: SwitchingSignal(((0, 0.5), (1, 1j)), 0), "segments[1].dwell: "),
        (lambda: SwitchingSignal(((0, 0.5, 1),), 0), "segments[0]: "),
        (lambda: SwitchingSignal((), math.nan), "tail: "),
        (lambda: SignalFamily((0.5,), math.inf, (0,)), "max_switches: "),
        (lambda: SignalFamily((0.5,), 1, (0, math.nan)), "modes[1]: "),
        (lambda: SignalFamily((0.5, "x"), 1, (0,)), "dwells[1]: "),
        (lambda: matrix_mode([[-1.0, 0.0], [1j, -1.0]]), "A[1][0]: "),
        (lambda: DiagonalGroupMode("x"), "mu: "),
        (lambda: segment_energy(2.0, 1.0), "A must be a nonempty square matrix"),
        (lambda: lyapunov_solve(-1.0, 1.0), "A must be a nonempty square matrix"),
    ]
    for call, prefix in cases:
        with pytest.raises(StructuralError) as exc:
            call()
        assert str(exc.value).startswith(prefix), exc.value


@pytest.mark.parametrize("one", [1, 1.0, np.int64(1), np.int32(1), np.float64(1.0),
                                 np.float32(1.0)], ids=repr)
def test_integral_and_numpy_ids_are_ids(one):
    sig = SwitchingSignal(((one, 0.5), (0, np.float32(0.25))), one)
    assert sig == SwitchingSignal(((1, 0.5), (0, 0.25)), 1)
    assert all(type(m) is int and type(d) is float for m, d in sig.segments)
    assert type(sig.tail_mode) is int
    fam = SignalFamily((np.float64(0.5),), one, (0, one))
    assert fam == SignalFamily((0.5,), 1, (0, 1))
    assert tuple(enumerate_family(fam)) == tuple(enumerate_family(SignalFamily((0.5,), 1, (0, 1))))
