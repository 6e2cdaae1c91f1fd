"""The strict JSON readers accept everything the writers emit:
``from_json(to_json(x)) == x`` for random modes, norms, signals, piecewise
states and systems, read back from the text a file would hold."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from swlyap.semigroups import (
    DiagonalGroupMode,
    HalfLineShiftMode,
    MatrixMode,
    ShiftAmplifyMode,
    mode_from_json,
    mode_to_json,
)
from swlyap.state_space import NormSpec, PiecewiseConstantFn, state_from_json
from swlyap.switching import SwitchedSystem, SwitchingSignal

ROUND_TRIPS = settings(max_examples=150, deadline=None, derandomize=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def through_file(obj):
    return json.loads(json.dumps(obj))


def sorted_points(k):
    """k sorted finite floats, the first strictly below the last."""
    return st.lists(FINITE, min_size=k, max_size=k).map(sorted).filter(lambda p: p[0] < p[-1])


@st.composite
def matrix_modes(draw, n):
    row = st.lists(FINITE, min_size=n, max_size=n).map(tuple)
    return MatrixMode(tuple(draw(st.lists(row, min_size=n, max_size=n))))


@st.composite
def shift_modes(draw):
    lo, alo, ahi, hi = draw(sorted_points(4))
    direction = draw(st.sampled_from(["left", "right"]))
    return ShiftAmplifyMode(lo, hi, direction, alo, ahi, draw(POSITIVE))


GROUP_MODES = st.builds(DiagonalGroupMode, POSITIVE)
TRANSPORT_MODES = shift_modes() | st.just(HalfLineShiftMode()) | GROUP_MODES
MODES = st.integers(1, 4).flatmap(matrix_modes) | TRANSPORT_MODES
NORMS = st.builds(NormSpec, st.floats(1.0, allow_infinity=False), st.just("lp")) | st.builds(
    NormSpec, FINITE, st.just("euclidean"))


@st.composite
def systems(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        modes = st.lists(matrix_modes(n) | GROUP_MODES, min_size=1, max_size=3)
        return SwitchedSystem(draw(modes), NormSpec.euclidean())
    modes = draw(st.lists(TRANSPORT_MODES, min_size=1, max_size=3))
    return SwitchedSystem(modes, NormSpec(draw(st.floats(1.0, 1e6))))


@st.composite
def piecewise(draw):
    k = draw(st.integers(0, 4))
    lo, *breaks, hi = draw(sorted_points(k + 2))
    values = draw(st.lists(FINITE, min_size=k + 1, max_size=k + 1))
    return PiecewiseConstantFn(lo, hi, tuple(breaks), tuple(values))


SIGNALS = st.builds(
    SwitchingSignal,
    st.lists(st.tuples(st.integers(0, 9), POSITIVE), max_size=4).map(tuple),
    st.integers(0, 9),
)


@ROUND_TRIPS
@given(mode=MODES)
def test_mode_round_trip(mode):
    assert mode_from_json(through_file(mode_to_json(mode))) == mode


@ROUND_TRIPS
@given(norm=NORMS)
def test_norm_round_trip(norm):
    assert NormSpec.from_json(through_file(norm.to_json())) == norm


@ROUND_TRIPS
@given(sig=SIGNALS)
def test_signal_round_trip(sig):
    assert SwitchingSignal.from_json(through_file(sig.to_json())) == sig


@ROUND_TRIPS
@given(f=piecewise())
def test_piecewise_state_round_trip(f):
    doc = through_file(f.to_json())
    assert PiecewiseConstantFn.from_json(doc) == f
    assert state_from_json(doc) == f


@ROUND_TRIPS
@given(system=systems())
def test_system_round_trip(system):
    doc = {"modes": [mode_to_json(m) for m in system.modes], "norm": system.norm.to_json()}
    assert SwitchedSystem.from_json(through_file(doc)) == system
