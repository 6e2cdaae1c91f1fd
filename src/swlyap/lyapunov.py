"""Trajectory energy and the worst-case Lyapunov functionals.

Two candidate functionals are computed over a finite signal family:

* ``v_sup``   sup over signals of the whole-trajectory energy
  integral(0, inf) ||x(t)||^2 dt, reported with the maximizing signal.
* ``v_tilde`` integral of the pointwise-in-time sup of ||x(t)||^2 over the
  family, always >= the v_sup value on the same family.

Both are lower bounds of the corresponding suprema over all signals; the
family truncation is the only gap.  Segment energies are closed-form for the
scalar group and for transport (between structural events ||x(t)||_p^p is
linear in time there), and adaptive Simpson for matrix modes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .bounds import DecayBound
from .errors import ContractViolation, EstimationError
from .semigroups import DiagonalGroupMode, MatrixMode, apply, transport_events
from .state_space import NormSpec, PiecewiseConstantFn, lp_norm_pow, state_norm
from .switching import (
    SignalFamily,
    SwitchedSystem,
    SwitchingSignal,
    enumerate_family,
    evolve,
    walk,
)

__all__ = [
    "LyapunovEstimate",
    "DerivativeEstimate",
    "trajectory_cost",
    "v_sup",
    "v_tilde",
    "v_tilde_single_mode",
    "generalized_derivative",
    "augment_system",
    "default_derivative_grid",
]

DEFAULT_HORIZON = 10.0
_V_TILDE_POINTS = 801  # time points of the v_tilde grid on [0, horizon]
_SINGLE_MODE_POINTS = 2001  # time points of the v_tilde_single_mode grid
_QUAD_RTOL = 1e-9  # relative tolerance of the adaptive Simpson matrix energies
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class LyapunovEstimate:
    """Value of a worst-case functional at one state.

    ``value`` is a certified lower bound of the true supremum (family
    truncation); ``value + tail_bound``, when the tail bound is present,
    is an upper bound for the witness's own infinite-horizon integral.
    """

    value: float
    witness: SwitchingSignal
    horizon: float
    tail_bound: float | None = None
    kind: str = "V"
    upper_bound: float | None = None

    def to_json(self) -> dict:
        return {**asdict(self), "witness": self.witness.to_json(), "bound_direction": "lower"}


@dataclass(frozen=True)
class DerivativeEstimate:
    """Sampled difference-quotient bound for the generalized derivative.

    The reported value is the minimum of (V(T_j(t)x) - V(x)) / t over the
    grid, an upper bound surrogate for the liminf as t tends to 0.
    """

    mode_id: int
    value: float
    t_grid: tuple


def default_derivative_grid() -> tuple:
    return tuple(2.0**-k for k in range(4, 21))


# -- quadrature ----------------------------------------------------------------


def _adaptive_simpson(g, a: float, b: float) -> float:
    """Adaptive Simpson to _QUAD_RTOL, relative to the whole-interval estimate.

    The budget is split classically (eps halves with the interval), which both
    terminates on dead stretches of a decayed integrand and keeps refinement
    decisions scale-invariant, so scaling the integrand scales the result.
    A step that is not finite raises EstimationError: no refinement could
    converge on it.
    """
    fa, fm, fb = g(a), g(0.5 * (a + b)), g(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    eps0 = _QUAD_RTOL * (abs(whole) + 1e-300)

    def rec(a, b, fa, fm, fb, whole, eps, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = g(lm), g(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        fine = left + right
        if not math.isfinite(fine):
            raise EstimationError(f"matrix energy integrand is not finite on [{a:g}, {b:g}]")
        if depth <= 0 or abs(fine - whole) <= 15.0 * eps:
            return fine + (fine - whole) / 15.0
        return rec(a, m, fa, flm, fm, left, 0.5 * eps, depth - 1) + rec(
            m, b, fm, frm, fb, right, 0.5 * eps, depth - 1
        )

    return rec(a, b, fa, fm, fb, whole, eps0, 36)


# -- per-segment energy ---------------------------------------------------------


def _mean_pow(sa: float, sb: float, q: float) -> float:
    """Mean over [0, 1] of (sa + (sb - sa) u)^q for sa, sb >= 0.

    Written around the larger end, hi^q (1 - r^{q+1}) / ((q + 1)(1 - r)) with
    r = lo / hi, through expm1 and log1p so near-equal ends lose no digits.
    """
    hi, lo = (sa, sb) if sa >= sb else (sb, sa)
    if hi == 0.0:
        return 0.0
    delta = (hi - lo) / hi
    if delta == 1.0:  # lo is zero or below the last digit of hi
        return hi**q / (q + 1.0)
    if delta == 0.0:
        return hi**q
    return hi**q * -math.expm1((q + 1.0) * math.log1p(-delta)) / ((q + 1.0) * delta)


def _transport_energy(sys, mode, d: float, f: PiecewiseConstantFn, end) -> float:
    """integral(0, d) of ||T(tau) f||^2 dtau, exact from the event cuts.

    ``end`` is T(d) f.  Between events s(tau) = ||T(tau) f||_p^p is linear,
    so each stretch integrates s^{2/p} in closed form from its end values.
    """
    p = sys.norm.p
    events = transport_events(mode, f, d)
    cuts = [0.0] + events + [d]
    s = [lp_norm_pow(f, p)]
    s += [lp_norm_pow(apply(mode, tau, f), p) for tau in events]
    s.append(lp_norm_pow(end, p))
    total = 0.0
    for a, b, sa, sb in zip(cuts[:-1], cuts[1:], s[:-1], s[1:]):
        if p == 2.0:
            total += 0.5 * (b - a) * (sa + sb)
        elif p == 1.0:
            total += (b - a) * (sa * sa + sa * sb + sb * sb) / 3.0
        else:
            total += (b - a) * _mean_pow(sa, sb, 2.0 / p)
    return total


def _segment_energy(sys, mode, d: float, x, end) -> float:
    """integral(0, d) of ||T(tau) x||^2 dtau, where ``end`` is T(d) x."""
    if d <= 0.0:
        return 0.0
    if isinstance(mode, DiagonalGroupMode):
        n2 = state_norm(x, sys.norm) ** 2
        return n2 * (1.0 - math.exp(-2.0 * mode.mu * d)) / (2.0 * mode.mu)
    if isinstance(mode, MatrixMode):
        if mode.dim == 1:
            a = mode.rows[0][0]
            n2 = float(x[0]) ** 2
            if a == 0.0:
                return n2 * d
            return n2 * math.expm1(2.0 * a * d) / (2.0 * a)

        def g(tau):
            y = apply(mode, tau, x)
            return float(y @ y)

        return _adaptive_simpson(g, 0.0, d)
    return _transport_energy(sys, mode, d, x, end)


def trajectory_cost(
    sys: SwitchedSystem,
    sig: SwitchingSignal,
    x,
    horizon: float,
    decay: DecayBound | None = None,
):
    """Energy integral(0, horizon) ||x(t)||^2 dt along one signal.

    Returns ``(integral, tail_bound)``.  The tail bound covers
    integral(horizon, inf) via the decay envelope when one is supplied
    (K^2 ||x(horizon)||^2 / (2 mu)); otherwise it is None and the result
    is flagged untailed by its absence.
    """
    if horizon <= 0:
        raise ContractViolation("horizon must be positive")
    total = 0.0
    final_state = x
    try:
        for mode, step, start, final_state in walk(sys, sig, horizon, x):
            total += _segment_energy(sys, mode, step, start, final_state)
    except OverflowError:  # a closed form left the double range
        total = math.inf
    if not math.isfinite(total):
        raise EstimationError("trajectory energy is not finite")
    tail = None
    if decay is not None:
        n2 = state_norm(final_state, sys.norm) ** 2
        tail = decay.K**2 * n2 / (2.0 * decay.mu)
    return total, tail


# -- worst-case functionals ------------------------------------------------------


def _default_horizon(decay: DecayBound | None) -> float:
    if decay is None:
        return DEFAULT_HORIZON
    return max(DEFAULT_HORIZON, 5.0 / decay.mu)


def _refine_dwells(sys, x, sig, cost, horizon, step, max_evals=60):
    """Greedy local search: perturb each dwell by +-step while it improves."""
    best_sig, best_cost = sig, cost
    evals = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        for i, (mode_id, dwell) in enumerate(best_sig.segments):
            for delta in (step, -step):
                d_new = dwell + delta
                if d_new <= 0.0:
                    continue
                segs = list(best_sig.segments)
                segs[i] = (mode_id, d_new)
                cand = SwitchingSignal(tuple(segs), best_sig.tail_mode)
                c, _ = trajectory_cost(sys, cand, x, horizon)
                evals += 1
                if c > best_cost * (1.0 + _TIE_RTOL) + 1e-300:
                    best_sig, best_cost = cand, c
                    improved = True
    return best_sig, best_cost


def v_sup(
    sys: SwitchedSystem,
    x,
    fam: SignalFamily | None = None,
    horizon: float | None = None,
    decay: DecayBound | None = None,
    refine: bool = True,
) -> LyapunovEstimate:
    """Maximize the trajectory energy over a finite signal family.

    The result is a lower bound for the true sup over all signals; ties are
    broken by enumeration order, so equal-cost signals report the earliest.
    When a decay envelope is supplied the estimate also carries the certified
    upper bound (K^2 / (2 mu)) ||x||^2 and a tail bound for the witness.
    """
    if fam is None:
        fam = SignalFamily.default(sys.n_modes)
    if horizon is None:
        horizon = _default_horizon(decay)
    best_sig, best_cost = None, -1.0
    for sig in enumerate_family(fam):
        c, _ = trajectory_cost(sys, sig, x, horizon)
        if c > best_cost * (1.0 + _TIE_RTOL) + 1e-300:
            best_sig, best_cost = sig, c
    if refine and best_sig.segments:
        step = 0.5 * min(fam.dwell_grid)
        best_sig, best_cost = _refine_dwells(
            sys, x, best_sig, best_cost, horizon, step
        )
    _, tail = trajectory_cost(sys, best_sig, x, horizon, decay)
    upper = None
    if decay is not None:
        upper = decay.K**2 / (2.0 * decay.mu) * state_norm(x, sys.norm) ** 2
    return LyapunovEstimate(best_cost, best_sig, horizon, tail, "V", upper)


def v_tilde(
    sys: SwitchedSystem,
    x,
    fam: SignalFamily | None = None,
    horizon: float = DEFAULT_HORIZON,
) -> LyapunovEstimate:
    """Integral of the pointwise-in-time sup of the squared norm over a family.

    Dominates the v_sup value on the same family up to quadrature error.  The
    reported witness is the single family signal with the largest energy on
    the same grid.
    """
    if fam is None:
        fam = SignalFamily.default(sys.n_modes)
    grid = np.linspace(0.0, horizon, _V_TILDE_POINTS)
    signals = list(enumerate_family(fam))
    norms2 = np.empty((len(signals), grid.size))
    for i, sig in enumerate(signals):
        norms2[i] = [state_norm(evolve(sys, sig, float(t), x), sys.norm) ** 2 for t in grid]
    pointwise_sup = norms2.max(axis=0)
    value = float(np.trapezoid(pointwise_sup, grid))
    per_signal = np.trapezoid(norms2, grid, axis=1)
    witness = signals[int(np.argmax(per_signal))]
    return LyapunovEstimate(value, witness, float(grid[-1]), None, "V_tilde")


def v_tilde_single_mode(mode, mu: float, x, horizon: float = DEFAULT_HORIZON) -> float:
    """Explicit single-mode variant with the scalar group folded in.

    Evaluates integral(0, horizon) of max over s in [0, tau] of
    e^{2 mu (s - tau)} ||T(s) x||^2, by a running-max recursion over the grid.
    """
    if mu <= 0:
        raise ContractViolation("mu must be positive")
    grid = np.linspace(0.0, horizon, _SINGLE_MODE_POINTS)
    spec = NormSpec(2.0) if isinstance(x, PiecewiseConstantFn) else NormSpec.euclidean()
    g = np.array([state_norm(apply(mode, float(t), x), spec) ** 2 for t in grid])
    m = np.empty_like(g)
    m[0] = g[0]
    for i in range(1, grid.size):
        m[i] = max(m[i - 1] * math.exp(-2.0 * mu * (grid[i] - grid[i - 1])), g[i])
    return float(np.trapezoid(m, grid))


def generalized_derivative(
    v, sys: SwitchedSystem, mode_id: int, x, t_grid=None
) -> DerivativeEstimate:
    """Difference-quotient estimate of the generalized derivative along one mode.

    ``v`` is any evaluator mapping states to values.  The minimum quotient over
    the decreasing grid upper-bounds the liminf, which is the conservative
    direction when checking a decay condition of the form <= -||x||^2.
    """
    if t_grid is None:
        t_grid = default_derivative_grid()
    t_grid = tuple(sorted((float(t) for t in t_grid), reverse=True))
    if not t_grid or t_grid[-1] <= 0:
        raise ContractViolation("t grid must be positive")
    if t_grid[-1] < 1e-12:
        raise ContractViolation("smallest step is below the machine-safe threshold")
    mode = sys.mode(mode_id)
    v0 = v(x)
    value = math.inf
    for t in t_grid:
        q = (v(apply(mode, t, x)) - v0) / t
        if q < value:
            value = q
    return DerivativeEstimate(mode_id, value, t_grid)


def augment_system(sys: SwitchedSystem, mu: float) -> SwitchedSystem:
    """Append the scalar group e^{-mu t} I as an extra mode.

    The new mode commutes with every other mode, so any time its signal spends
    in it contributes exactly a factor e^{-mu t*} to the state norm.
    """
    if mu <= 0:
        raise ContractViolation("mu must be positive")
    return replace(sys, modes=sys.modes + (DiagonalGroupMode(mu),))
