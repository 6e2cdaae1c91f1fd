"""Worst-case Lyapunov analysis of switched semigroup systems.

Simulates switched evolution operators exactly on piecewise-constant
transport data and to matrix-exponential accuracy on coordinate data,
searches finite signal families for worst-case trajectory energy, and turns
the resulting bounds into exponential growth/decay certificates.
"""

from .certificates import (
    ConditionReport,
    DatkoCertificate,
    DecayBound,
    FitRefusal,
    GrowthBound,
    NormEquivalence,
    condition_report,
    datko_certificate,
    fit_decay,
    fit_growth,
    gronwall_certificate,
    norm_ratio_samples,
)
from .errors import (
    ContractViolation,
    DegenerateInputError,
    EstimationError,
    FamilySizeError,
    InvalidStateError,
    StructuralError,
    SwlyapError,
    UnstableTailError,
    UnsupportedOperation,
)
from .gram import (
    ArgmaxSet,
    GramOperator,
    argmax_set,
    candidates_from_family,
    directional_derivative,
    gram_of_signal,
    lyapunov_solve,
    segment_energy,
    v_max,
)
from .lyapunov import (
    LyapunovEstimate,
    augment_system,
    family_max,
    generalized_derivative,
    trajectory_cost,
    v_sup,
    v_tilde,
    v_tilde_single_mode,
)
from .semigroups import (
    DiagonalGroupMode,
    HalfLineShiftMode,
    MatrixMode,
    ShiftAmplifyMode,
    apply,
    matrix_mode,
)
from .state_space import (
    NormSpec,
    PiecewiseConstantFn,
    canonicalize,
    euclidean_state,
    lp_norm,
    state_norm,
)
from .switching import (
    SignalFamily,
    SwitchedSystem,
    SwitchingSignal,
    distinct_trajectories,
    enumerate_family,
    evolve,
    family_size,
    operator_norm_witness,
    shift_signal,
)

__version__ = "0.1.0"
