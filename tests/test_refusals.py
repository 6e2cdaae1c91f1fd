"""The refusals that the rest of the suite never reaches: each public call or
record raises its ``SwlyapError`` subclass, and the message starts as stated."""

import math

import numpy as np
import pytest

from swlyap.certificates import (
    ConditionReport,
    DecayBound,
    GrowthBound,
    NormEquivalence,
    fit_decay,
    fit_growth,
    norm_ratio_samples,
)
from swlyap.errors import ContractViolation, EstimationError, StructuralError
from swlyap.gram import ArgmaxSet, lyapunov_solve
from swlyap.lyapunov import family_max
from swlyap.semigroups import (
    DiagonalGroupMode,
    HalfLineShiftMode,
    MatrixMode,
    ShiftAmplifyMode,
    apply,
    mode_state_kind,
    mode_to_json,
)
from swlyap.state_space import NormSpec, state_norm
from swlyap.switching import SignalFamily, SwitchedSystem, SwitchingSignal

SCALAR = SwitchedSystem((MatrixMode(((-1.0,),)),), NormSpec.euclidean())
ONE = np.array([1.0])
ZEROS = [(0.5, 0.0, None), (1.0, 0.0, None)]  # norm_ratio_samples' (t, ratio, signal)

# (id, call, error class, message start)
REFUSALS = [
    ("growth-M", lambda: GrowthBound(0.5, 1.0), StructuralError, "growth constant M"),
    ("growth-omega", lambda: GrowthBound(2.0, 0.0), StructuralError, "growth rate omega"),
    ("decay-K", lambda: DecayBound(0.5, 1.0), StructuralError, "decay constant K"),
    ("decay-mu", lambda: DecayBound(2.0, -1.0), StructuralError, "decay rate mu"),
    ("equivalence-c-above-C", lambda: NormEquivalence(2.0, 1.0), StructuralError,
     "need 0 < c <= C"),
    ("equivalence-c-zero", lambda: NormEquivalence(0.0, 1.0), StructuralError,
     "need 0 < c <= C"),
    ("ratio-samples-empty-grid",
     lambda: norm_ratio_samples(SCALAR, SignalFamily((1.0,), 0, (0,)), [], [ONE]),
     ContractViolation, "need at least one time point"),
    ("fit-growth-zeros", lambda: fit_growth(ZEROS), EstimationError, "all sampled norms are zero"),
    ("fit-decay-zeros", lambda: fit_decay(ZEROS), EstimationError, "all sampled norms are zero"),
    ("report-equivalence", lambda: ConditionReport().equivalence(), EstimationError,
     "no nonzero samples"),
    ("lyapunov-sizes", lambda: lyapunov_solve(-np.eye(2), np.eye(3)), StructuralError,
     "A and Q must be square matrices of the same size"),
    ("argmax-empty", lambda: ArgmaxSet((), 1e-9), StructuralError, "argmax set cannot be empty"),
    ("family-max-no-signal", lambda: family_max(SCALAR, [], ONE, 1.0), ContractViolation,
     "need at least one signal"),
    ("matrix-nan", lambda: MatrixMode(((math.nan,),)), StructuralError, "A: entries must be finite"),
    ("matrix-inf", lambda: MatrixMode(((0.0, 1.0), (math.inf, 0.0))), StructuralError,
     "A: entries must be finite"),
    ("shift-domain", lambda: ShiftAmplifyMode(1.0, 1.0, "left", 1.0, 1.0, 2.0), StructuralError,
     "domain: must satisfy lo < hi"),
    ("shift-factor", lambda: ShiftAmplifyMode(0.0, 1.0, "left", 0.0, 0.25, 0.0), StructuralError,
     "factor: must be positive and finite"),
    ("kind-of-a-non-mode", lambda: mode_state_kind(object()), StructuralError,
     "unknown mode type object"),
    ("apply-a-non-mode", lambda: apply(object(), 1.0, ONE), StructuralError,
     "unknown mode type object"),
    ("json-of-a-non-mode", lambda: mode_to_json(object()), StructuralError,
     "unknown mode type object"),
    ("group-on-a-list", lambda: apply(DiagonalGroupMode(1.0), 1.0, [1.0]), StructuralError,
     "unknown state type list"),
    ("norm-of-a-list", lambda: state_norm([1.0], NormSpec.euclidean()), StructuralError,
     "unknown state type list"),
    ("signal-segments-an-int", lambda: SwitchingSignal(3, 0), StructuralError,
     "segments: must be a sequence of (mode, dwell) pairs"),
    ("function-system-euclidean-norm",
     lambda: SwitchedSystem((HalfLineShiftMode(),), NormSpec.euclidean()), StructuralError,
     "function-space modes require an L^p norm"),
]


@pytest.mark.parametrize("call,error,start", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusal(call, error, start):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(start)
