"""Trajectory energy and the worst-case Lyapunov functionals.

Two candidate functionals are computed over a finite signal family:

* ``v_sup``   the largest trajectory energy integral(0, horizon) ||x(t)||^2 dt
  found over the family, reported with the maximizing signal.
* ``v_tilde`` the sum over equal time cells of the family's largest exact energy on
  each, between the scan's largest energy and the integral of the pointwise max.

Both are lower bounds of the corresponding suprema over all signals and all
time; the family and the horizon are the gap.  Segment energies are closed
form for the scalar group and 1x1 matrix modes (one scalar kernel) and for
transport (between structural events ||x(t)||_p^p is linear in time there).
Larger matrix modes run adaptive Simpson one level at a time, carrying every
node state with one step exponential per level, read from the mode's own
memo (``MatrixMode.exp``), so every evaluation on one system shares them.
"""

from __future__ import annotations

import bisect
import itertools
import math

from .errors import ContractViolation, EstimationError, Record
from .semigroups import DiagonalGroupMode, MatrixMode, apply, transport_events
from .state_space import NormSpec, PiecewiseConstantFn, lp_norm_pow, state_norm
from .switching import (
    SignalFamily, SwitchedSystem, SwitchingSignal, distinct_trajectories, enumerate_family,
    evolve, walk,
)

__all__ = [
    "LyapunovEstimate", "trajectory_cost", "family_max", "v_sup", "v_tilde",
    "v_tilde_single_mode", "generalized_derivative", "augment_system",
]

DEFAULT_HORIZON = 10.0
_CELLS = 800  # equal cells of [0, horizon] in v_tilde and v_tilde_single_mode
_QUAD_RTOL = 1e-9  # Simpson tolerance of matrix energies, relative to the 3-point estimate
_TIE_RTOL = 1e-12
_REFINE_MAX_EVALS = 60  # energy evaluations of one v_sup dwell refinement
DERIVATIVE_STEPS = tuple(2.0**-k for k in range(4, 21))  # generalized_derivative's quotient steps


class LyapunovEstimate(Record):
    """Value of a worst-case functional at one state.

    ``value`` is a lower bound of the true supremum over all signals: the
    family and the finite ``horizon`` are the gap.  ``witness`` is the family
    signal of largest energy (dwell-refined, for ``v_sup``, whose value it is).
    """

    value: float
    witness: SwitchingSignal
    horizon: float
    kind: str = "V"

    def to_json(self) -> dict:
        return {**self._asdict(), "witness": self.witness.to_json(), "bound_direction": "lower"}


# -- quadrature ----------------------------------------------------------------


def _matrix_energy(mode: MatrixMode, d: float, x: np.ndarray, end: np.ndarray) -> float:
    """integral(0, d) of ||e^{tau A} x||^2 dtau, where ``end`` is e^{dA} x.

    Adaptive Simpson to _QUAD_RTOL, relative to the whole-interval estimate,
    run one level at a time: level j keeps its k unfinished intervals (width
    d / 2^j) as one block Y = [left states | midpoint states] of 2k columns,
    and one product with the step exponential e^{A d / 2^(j+2)},
    ``mode.exp(0.5 * h)`` for the level's half width h, carries them all to
    their quarter points.  The budget halves with the interval, which both
    terminates on dead stretches of a decayed integrand and keeps refinement
    decisions scale-invariant.  The pieces are summed by fsum, which rounds
    correctly in any order.  An interval that is not finite, or still open
    after level 36, raises EstimationError naming it: no error bound holds there.
    """
    import numpy as np
    pieces = []
    with np.errstate(over="ignore", invalid="ignore"):
        mid = mode.exp(0.5 * d) @ x
        Y, lo = np.stack((x, mid), axis=1), np.zeros(1)
        fa, fm, fb = np.array([x @ x]), np.array([mid @ mid]), np.array([end @ end])
        whole = d / 6.0 * (fa + 4.0 * fm + fb)
        eps = _QUAD_RTOL * (abs(whole[0]) + 1e-300)
        for level in range(37):
            h = d * 0.5 ** (level + 1)  # half the width of this level's intervals
            Q = mode.exp(0.5 * h) @ Y  # [left quarter points | right quarter points]
            q2, k = (Q * Q).sum(axis=0), fa.size
            flm, frm = q2[:k], q2[k:]
            left, right = h / 6.0 * (fa + 4.0 * flm + fm), h / 6.0 * (fm + 4.0 * frm + fb)
            fine = left + right
            done = np.abs(fine - whole) <= 15.0 * eps  # false wherever fine is not finite
            bad, go = ~np.isfinite(fine), ~done
            if bad.any() or (level == 36 and go.any()):
                what = "integrand is not finite" if bad.any() else "did not converge in 36 levels"
                a = lo[bad if bad.any() else go].min()
                raise EstimationError(f"matrix energy {what} on [{a:g}, {a + 2.0 * h:g}]")
            pieces.extend(fine[done] + (fine[done] - whole[done]) / 15.0)
            if not go.any():
                break
            # the left child is (a, lm, m), the right child (m, rm, b)
            go2 = np.concatenate((go, go))
            Y = np.concatenate((Y[:, go2], Q[:, go2]), axis=1)
            fa, fm, fb, whole, lo = [
                np.concatenate((u[go], v[go]))
                for u, v in ((fa, fm), (flm, frm), (fm, fb), (left, right), (lo, lo + h))
            ]
            eps *= 0.5
    return math.fsum(pieces)


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


def _transport_energy(norm, mode, d: float, f: PiecewiseConstantFn, end) -> float:
    """integral(0, d) of ||T(tau) f||^2 dtau, exact from the event cuts.

    ``end`` is T(d) f.  Between events s(tau) = ||T(tau) f||_p^p is linear,
    so each stretch integrates s^{2/p} in closed form from its end values.
    """
    p = norm.p
    events = transport_events(mode, f, d)
    cuts = [0.0] + events + [d]
    s = [lp_norm_pow(y, p) for y in (f, *(apply(mode, tau, f) for tau in events), end)]
    total = 0.0
    for a, b, sa, sb in zip(cuts[:-1], cuts[1:], s[:-1], s[1:]):
        if p == 2.0:
            total += 0.5 * (b - a) * (sa + sb)
        elif p == 1.0:
            total += (b - a) * (sa * sa + sa * sb + sb * sb) / 3.0
        else:
            total += (b - a) * _mean_pow(sa, sb, 2.0 / p)
    return total


def _scalar_energy(n2: float, a: float, d: float) -> float:
    """integral(0, d) of n2 e^{2 a tau} dtau as n2 d expm1(2ad) / (2ad), which keeps
    every digit for small |2ad| and is n2 d when 2ad is zero or underflows."""
    x = 2.0 * a * d
    return n2 * d if x == 0.0 else n2 * d * (math.expm1(x) / x)


def _segment_energy(norm: NormSpec, mode, d: float, x, end) -> float:
    """integral(0, d) of ||T(tau) x||^2 dtau, ``end`` being T(d) x; inf past the double range."""
    try:
        if isinstance(mode, DiagonalGroupMode):
            return _scalar_energy(state_norm(x, norm) ** 2, -mode.mu, d)
        if isinstance(mode, MatrixMode):
            if mode.dim == 1:
                return _scalar_energy(state_norm(x, norm) ** 2, mode.rows[0][0], d)
            return _matrix_energy(mode, d, x, end)
        return _transport_energy(norm, mode, d, x, end)
    except OverflowError:
        return math.inf


def trajectory_cost(sys: SwitchedSystem, sig: SwitchingSignal, x, horizon: float) -> float:
    """Energy integral(0, horizon) ||x(t)||^2 dt along one signal.

    The horizon must be positive and finite; an energy that is not finite
    raises EstimationError.
    """
    if not 0.0 < horizon < math.inf:  # also refuses NaN
        raise ContractViolation("horizon must be positive and finite")
    state_norm(x, sys.norm)  # raises InvalidStateError on a non-finite state
    total = 0.0
    for mode, step, start, end in walk(sys, sig, horizon, x):
        total += _segment_energy(sys.norm, mode, step, start, end)
    if not math.isfinite(total):
        raise EstimationError("trajectory energy is not finite")
    return total


# -- worst-case functionals ------------------------------------------------------


def _refine_dwells(sys, x, sig, cost, horizon, step):
    """Greedy local search: perturb each dwell by +-step while it improves."""
    best_sig, best_cost = sig, cost
    evals = 0
    improved = True
    while improved and evals < _REFINE_MAX_EVALS:
        improved = False
        for i, (mode_id, dwell) in enumerate(best_sig.segments):
            for delta in (step, -step):
                d_new = dwell + delta
                if d_new <= 0.0:
                    continue
                segs = list(best_sig.segments)
                segs[i] = (mode_id, d_new)
                cand = SwitchingSignal(tuple(segs), best_sig.tail_mode)
                c = trajectory_cost(sys, cand, x, horizon)
                evals += 1
                if c > best_cost * (1.0 + _TIE_RTOL) + 1e-300:
                    best_sig, best_cost = cand, c
                    improved = True
    return best_sig, best_cost


def family_max(sys: SwitchedSystem, signals, x, horizon: float) -> tuple:
    """``(signal, energy)`` of the largest trajectory energy among ``signals``.

    Each signal's energy is integrated once, in input order.  Ties go to the
    earliest signal: a later one wins only above a 1e-12 relative margin.
    """
    best_sig, best_cost = None, -1.0
    for sig in signals:
        c = trajectory_cost(sys, sig, x, horizon)
        if c > best_cost * (1.0 + _TIE_RTOL) + 1e-300:
            best_sig, best_cost = sig, c
    if best_sig is None:
        raise ContractViolation("need at least one signal")
    return best_sig, best_cost


def v_sup(
    sys: SwitchedSystem,
    x,
    fam: SignalFamily | None = None,
    horizon: float = DEFAULT_HORIZON,
) -> LyapunovEstimate:
    """Maximize the trajectory energy over a finite signal family.

    The result is a lower bound for the true sup over all signals.  The scan
    is ``family_max`` over every family signal, repeated trajectories
    included, so ties go to the earliest signal.  A witness with segments
    then has its dwells refined by a greedy +-(half the finest dwell) search.
    Each energy is integrated once: the value is the one the scan or the
    refinement found, and the witness is not re-integrated.
    """
    if fam is None:
        fam = SignalFamily.default(sys.n_modes)
    best_sig, best_cost = family_max(sys, enumerate_family(fam), x, horizon)
    if best_sig.segments:
        step = 0.5 * min(fam.dwell_grid)
        best_sig, best_cost = _refine_dwells(sys, x, best_sig, best_cost, horizon, step)
    return LyapunovEstimate(best_cost, best_sig, horizon)


def _cell_edges(horizon: float) -> list:
    """The edges k horizon / _CELLS, k = 0 .. _CELLS, of the equal cells of [0, horizon]."""
    return [horizon * k / _CELLS for k in range(_CELLS)] + [horizon]


def _cell_energies(sys: SwitchedSystem, sig: SwitchingSignal, x, edges: list) -> list:
    """Exact energy of ``sig``'s trajectory from ``x`` on each cell between ``edges``, its
    pieces split at the switch times and each started from the state evolved from t = 0."""
    switches = itertools.accumulate(d for _, d in sig.segments)  # summed as active_mode sums them
    times = sorted(set(edges).union(s for s in switches if s < edges[-1]))
    states, energies = [evolve(sys, sig, t, x) for t in times], [0.0] * _CELLS
    for u, v, start, end in zip(times, times[1:], states, states[1:]):
        cell, mode = bisect.bisect_right(edges, u) - 1, sys.mode(sig.active_mode(u))
        energies[cell] += _segment_energy(sys.norm, mode, v - u, start, end)
    return energies


def v_tilde(
    sys: SwitchedSystem,
    x,
    fam: SignalFamily | None = None,
    horizon: float = DEFAULT_HORIZON,
) -> LyapunovEstimate:
    """Sum over _CELLS equal cells of [0, horizon] of the family's largest exact energy on each:
    at least the witness's energy (the largest, the earliest on a tie) and, up to the kernels'
    tolerance, at most the integral of the family's pointwise max of the squared norm."""
    if not 0.0 <= horizon < math.inf:  # also refuses NaN
        raise ContractViolation("horizon must be finite and nonnegative")
    if fam is None:
        fam = SignalFamily.default(sys.n_modes)
    state_norm(x, sys.norm)  # raises InvalidStateError on a non-finite state
    edges = _cell_edges(float(horizon))
    signals = list(distinct_trajectories(enumerate_family(fam)))
    cells = [_cell_energies(sys, sig, x, edges) for sig in signals]
    totals = [math.fsum(energies) for energies in cells]
    value = math.fsum(map(max, zip(*cells)))
    if not math.isfinite(value):
        raise EstimationError("v_tilde energy is not finite")
    return LyapunovEstimate(value, signals[totals.index(max(totals))], edges[-1], "V_tilde")


def v_tilde_single_mode(mode, mu: float, x, horizon: float = DEFAULT_HORIZON) -> float:
    """Explicit single-mode variant with the scalar group folded in: a lower bound of the
    integral over [0, horizon] of m(tau) = max over s <= tau of e^{2 mu (s - tau)} ||T(s) x||^2,
    adding on each of _CELLS equal cells the larger of its exact energy and m's running max
    over the cell edges so far times the integral of e^{-2 mu tau} over the cell's width."""
    if not 0.0 < mu < math.inf:  # also refuses NaN
        raise ContractViolation("mu must be positive and finite")
    if not 0.0 <= horizon < math.inf:
        raise ContractViolation("horizon must be finite and nonnegative")
    spec = NormSpec(2.0) if isinstance(x, PiecewiseConstantFn) else NormSpec.euclidean()
    state_norm(x, spec)  # raises InvalidStateError on a non-finite state
    edges, rate, cells, j = _cell_edges(float(horizon)), 2.0 * mu, [], 0
    states = [apply(mode, t, x) for t in edges]
    g = [n * n for n in (state_norm(y, spec) for y in states)]  # inf, not OverflowError
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        carried = g[j] * math.exp(-rate * (a - edges[j]))  # the running max at a
        if g[k] >= carried:
            j, carried = k, g[k]
        exact = _segment_energy(spec, mode, b - a, states[k], states[k + 1])
        cells.append(max(exact, carried * -math.expm1(-rate * (b - a)) / rate))
    value = math.fsum(cells)
    if not math.isfinite(value):
        raise EstimationError("v_tilde_single_mode energy is not finite")
    return value


def generalized_derivative(
    v, sys: SwitchedSystem, mode_id: int, x, v0: float | None = None
) -> float:
    """Generalized derivative along one mode, estimated so as to err upward.

    ``v`` is any evaluator mapping states to values, q(t) = (v(T_j(t)x) - v(x)) / t
    is evaluated at each of DERIVATIVE_STEPS, 2^-4 down to h = 2^-20, and the three
    smallest give the Richardson extrapolants r = 2 q(h) - q(2h), r' = 2 q(2h) - q(4h).
    The result max(q(h), r) + |r - r'|, padded by their spread, is never below q(h):
    a coarse negative quotient cannot pass a decay check while v increases.  ``v0`` is
    ``v(x)`` when the caller already holds it; when None it is evaluated here,
    so ``v`` runs once per step plus once for x.
    """
    mode = sys.mode(mode_id)
    if v0 is None:
        v0 = v(x)
    *_, q4h, q2h, qh = [(v(apply(mode, t, x)) - v0) / t for t in DERIVATIVE_STEPS]
    r, r_prev = 2.0 * qh - q2h, 2.0 * q2h - q4h
    return max(qh, r) + abs(r - r_prev)


def augment_system(sys: SwitchedSystem, mu: float) -> SwitchedSystem:
    """Append the scalar group e^{-mu t} I as an extra mode.

    The new mode commutes with every other mode, so any time its signal spends
    in it contributes exactly a factor e^{-mu t*} to the state norm.
    """
    if mu <= 0:
        raise ContractViolation("mu must be positive")
    return SwitchedSystem(sys.modes + (DiagonalGroupMode(mu),), sys.norm)
