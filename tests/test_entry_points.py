"""The public gram and lyapunov entry points refuse malformed input with a
library error: a non-finite or wrong-length array, or a non-finite scalar,
raises a SwlyapError, never a numpy error, a warning or a NaN result."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swlyap import (
    SignalFamily,
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
