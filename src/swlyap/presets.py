"""Ready-made systems, signals, and witnesses used by the CLI and the tests."""

from __future__ import annotations

import math

from .semigroups import HalfLineShiftMode, ShiftAmplifyMode, matrix_mode
from .state_space import NormSpec, PiecewiseConstantFn
from .switching import SwitchedSystem, SwitchingSignal

__all__ = [
    "blowup_transport_pair",
    "alternating_signal",
    "blowup_witnesses",
    "cascade_system",
    "cascade_signal",
    "edge_witness",
    "half_line_system",
    "scalar_mode_system",
    "commuting_diag_pair",
]


def blowup_transport_pair() -> SwitchedSystem:
    """Two nilpotent transport modes on [-1, 1] that double mass crossing 0.

    Mode 0 translates left, mode 1 right; each alone is dead after time 2,
    yet alternating them every delta multiplies the norm of hinge-adjacent
    mass by 2 per switch, so no uniform decay bound can hold.
    """
    left = ShiftAmplifyMode(-1.0, 1.0, "left", -1.0, 0.0, 2.0)
    right = ShiftAmplifyMode(-1.0, 1.0, "right", 0.0, 1.0, 2.0)
    return SwitchedSystem((left, right), NormSpec(1.0))


def alternating_signal(delta: float, t_max: float) -> SwitchingSignal:
    """Alternate modes 0/1 from mode 0 with dwell delta, with segments covering [0, t_max]."""
    k = max(1, math.ceil(t_max / delta - 1e-12))
    return SwitchingSignal(tuple((i % 2, delta) for i in range(k)), k % 2)


def blowup_witnesses(max_m: int = 8):
    """Indicators of [0, 4^-m] on [-1, 1]: mass adjacent to the doubling hinge."""
    return [
        PiecewiseConstantFn.indicator(-1.0, 1.0, 0.0, 4.0**-m) for m in range(1, max_m + 1)
    ]


def cascade_system(n_modes: int, p: float = 2.0) -> SwitchedSystem:
    """Left transport on [0, 1] where mode j amplifies by 2^{1/p} at 4^{-(j+1)}.

    Every mode is nilpotent past time 1 and the whole-trajectory energy obeys
    a uniform integral bound, yet chaining modes 0, 1, ..., n-1 along a
    geometric switching schedule multiplies an edge witness by 2^{n/p}: the
    integral bound alone certifies nothing about uniform growth.
    """
    modes = tuple(
        ShiftAmplifyMode(0.0, 1.0, "left", 0.0, 4.0 ** -(j + 1), 2.0 ** (1.0 / p))
        for j in range(n_modes)
    )
    return SwitchedSystem(modes, NormSpec(p))


def cascade_signal(n: int) -> SwitchingSignal:
    """Geometric schedule driving an edge witness through n amplifications.

    Mode j runs on [1 - 4^-j, 1 - 4^-(j+1)), j = 0..n-1, after which the tail
    returns to mode 0 whose amplification point has already been passed.
    """
    segments = tuple((k - 1, 3.0 * 4.0**-k) for k in range(1, n + 1))
    return SwitchingSignal(segments, 0)


def edge_witness(eps: float) -> PiecewiseConstantFn:
    """Indicator of [1 - eps, 1] on [0, 1], the mass that rides the full cascade."""
    return PiecewiseConstantFn.indicator(0.0, 1.0, 1.0 - eps, 1.0)


def half_line_system(p: float = 1.0) -> SwitchedSystem:
    """Single left-translation mode on the half line: strongly stable, norm 1."""
    return SwitchedSystem((HalfLineShiftMode(),), NormSpec(p))


def scalar_mode_system(rates) -> SwitchedSystem:
    """One 1x1 matrix mode per rate, on the Euclidean line."""
    return SwitchedSystem(
        tuple(matrix_mode([[r]]) for r in rates), NormSpec.euclidean()
    )


def commuting_diag_pair() -> SwitchedSystem:
    """The commuting stable pair diag(-1, -2), diag(-2, -1)."""
    return SwitchedSystem(
        (matrix_mode([[-1.0, 0.0], [0.0, -2.0]]), matrix_mode([[-2.0, 0.0], [0.0, -1.0]])),
        NormSpec.euclidean(),
    )
