"""Fitting and composing stability certificates from sampled evidence.

The fits here are empirical: they majorize the samples they saw, which are
themselves lower bounds of suprema over all signals.  Every fitted constant
should therefore be read as "lower-confidence" evidence, in contrast to the
closed-form certificate composition (Datko chain, Gronwall constants, group
lower bound) which is exact given its inputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import DatkoCertificate, DecayBound, GrowthBound, NormEquivalence
from .errors import ContractViolation, EstimationError, SwlyapError
from .lyapunov import default_derivative_grid, generalized_derivative
from .state_space import state_norm
from .switching import SignalFamily, SwitchedSystem, enumerate_family, evolve

__all__ = [
    "FitRefusal",
    "fit_growth",
    "fit_decay",
    "datko_certificate",
    "gronwall_certificate",
    "group_lower_bound",
    "SampleCheck",
    "ConditionReport",
    "condition_report",
    "EMPIRICAL_PROVENANCE",
]

EMPIRICAL_PROVENANCE = "empirical - lower-confidence (majorizes samples, not the true sup)"
_KAPPA_TOL = 0.05  # derivative slack: each quotient must stay below -||x||^2 (1 - _KAPPA_TOL)
_GROWTH_CHECK_GRID = (0.5, 1.0, 2.0, 4.0)  # times at which a growth envelope is checked
_T1_FACTOR = 1.01  # the Datko horizon t1 as a multiple of the dwell scale t0


@dataclass(frozen=True)
class FitRefusal:
    """Returned by fit_decay when the sampled norms do not decay."""

    reason: str
    t: float
    value: float
    signal: object

    def to_json(self) -> dict:
        signal = self.signal.to_json() if self.signal is not None else None
        return {**asdict(self), "refused": True, "signal": signal}


def _norm_ratio_samples(sys, fam, time_grid, witnesses, extra_signals=()):
    """Per time point ``(t, ratio, signal)``: the sup norm ratio over (signal,
    witness) pairs, and its signal."""
    time_grid = [float(t) for t in time_grid]
    if not time_grid:
        raise ContractViolation("need at least one time point")
    signals = list(enumerate_family(fam)) + list(extra_signals)
    wnorms = []
    for w in witnesses:
        nw = state_norm(w, sys.norm)
        if nw == 0.0:
            raise ContractViolation("witness states must be nonzero")
        wnorms.append(nw)
    samples = []
    for t in time_grid:
        best, arg = 0.0, None
        for sig in signals:
            for w, nw in zip(witnesses, wnorms):
                r = state_norm(evolve(sys, sig, t, w), sys.norm) / nw
                if r > best:
                    best, arg = r, sig
        samples.append((t, best, arg))
    return samples


def _log_slope(ts, rs):
    pts = [(t, math.log(r)) for t, r in zip(ts, rs) if r > 0.0]
    if len(pts) < 2:
        raise EstimationError("not enough nonzero samples to fit an exponential")
    t = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(t, y, 1)
    return float(slope), float(intercept)


def fit_growth(
    sys: SwitchedSystem, fam: SignalFamily, time_grid, witnesses, extra_signals=()
) -> GrowthBound:
    """Least-squares exponential envelope M e^{omega t} majorizing all samples."""
    samples = _norm_ratio_samples(sys, fam, time_grid, witnesses, extra_signals)
    rs = [s[1] for s in samples]
    if max(rs) == 0.0:
        raise EstimationError("all sampled norms are zero; nothing to fit")
    slope, _ = _log_slope([s[0] for s in samples], rs)
    omega = max(slope, 1e-6)
    m = max(r * math.exp(-omega * t) for t, r, _ in samples)
    M = max(1.0, m) * (1.0 + 1e-9)
    return GrowthBound(M, omega)


def fit_decay(sys: SwitchedSystem, fam: SignalFamily, time_grid, witnesses, extra_signals=()):
    """Fit K e^{-mu t} majorizing the samples, or refuse if they do not decay.

    Refusal is triggered when the sampled sup norm has nonnegative trend over
    the last decade of the grid (t >= t_max / 10); the refusal carries the
    worst sample and its signal.
    """
    samples = _norm_ratio_samples(sys, fam, time_grid, witnesses, extra_signals)
    rs = [s[1] for s in samples]
    if max(rs) == 0.0:
        raise EstimationError("all sampled norms are zero; nothing to fit")
    t_max = max(s[0] for s in samples)
    tail = [s for s in samples if s[0] >= t_max / 10.0]
    worst = max(tail, key=lambda s: s[1])
    try:
        tail_slope, _ = _log_slope([s[0] for s in tail], [s[1] for s in tail])
    except EstimationError:
        tail_slope = -math.inf  # everything in the tail already reached zero
    if tail_slope >= 0.0:
        return FitRefusal(
            "sampled sup norm is nondecreasing over the last decade of the grid", *worst
        )
    slope, _ = _log_slope([s[0] for s in samples], rs)
    if slope >= 0.0:
        return FitRefusal("sampled sup norm grows over the grid", *worst)
    mu = -slope
    K = max(1.0, max(r * math.exp(mu * t) for t, r, _ in samples))
    return DecayBound(K * (1.0 + 1e-12), mu)


def datko_certificate(
    growth: GrowthBound,
    C_int: float,
    p: float,
    k: float,
    beta: float = 0.5,
) -> DatkoCertificate:
    """Compose the integral-to-exponential constant chain.

    Given a growth envelope (validity prerequisite), an integral constant
    C_int with exponent p, and a uniform trajectory bound k, a contraction
    target beta < 1 determines rho = beta / k, the dwell scale
    t0 = C_int / rho^p, the fixed horizon t1 = 1.01 t0, and the decay pair
    mu = -ln(beta) / t1, K = k / beta.
    """
    if not isinstance(growth, GrowthBound):
        raise ContractViolation("a growth envelope is required for the chain to be valid")
    if not 0.0 < beta < 1.0:
        raise ContractViolation("beta must lie in (0, 1)")
    if k < 1.0:
        raise ContractViolation("uniform trajectory bound k must be >= 1")
    if C_int <= 0.0:
        raise ContractViolation("integral constant must be positive")
    if p < 1.0:
        raise ContractViolation("exponent p must be >= 1")
    rho = beta / k
    t0 = C_int / rho**p
    t1 = _T1_FACTOR * t0
    mu = -math.log(beta) / t1
    return DatkoCertificate(p, C_int, k, rho, beta, t0, t1, k / beta, mu)


def gronwall_certificate(eq: NormEquivalence, conservative: bool = False) -> DecayBound:
    """Decay envelope implied by two-sided norm comparability.

    The default follows the stated constants K = sqrt(C/c), mu = 1/(2c).
    With ``conservative=True`` the rate is 1/(2C) instead, which is what a
    direct comparison argument on V along trajectories actually yields; the
    default rate can overstate the decay whenever c < C (see the acceptance
    suite, criterion 8, for a system where the difference is observable).
    """
    K = max(1.0, math.sqrt(eq.C / eq.c))
    mu = 1.0 / (2.0 * eq.C) if conservative else 1.0 / (2.0 * eq.c)
    return DecayBound(K, mu)


def group_lower_bound(mu: float) -> float:
    """Comparability constant contributed by the scalar group e^{-mu t} I.

    Equals integral(0, inf) of the squared inverse of the backward-flow norm,
    which is 1 / (2 mu) in closed form.
    """
    if mu <= 0:
        raise ContractViolation("mu must be positive")
    return 1.0 / (2.0 * mu)


@dataclass(frozen=True)
class SampleCheck:
    """Per-state outcome of the functional checks."""

    norm2: float
    v_value: float
    ratio: float | None  # v / ||x||^2, None for the zero state
    derivative_ok: bool
    derivative_values: tuple
    vacuous: bool = False


@dataclass
class ConditionReport:
    """Summary of which stability conditions the sampled evidence supports.

    supports['B'] means: upper comparability of the functional plus the
    per-mode derivative check, plus the growth envelope when one is given.
    supports['C'] additionally needs the lower comparability.  supports['A']
    is inferred from either (the two converse routes), never measured
    directly here.
    """

    samples: list = field(default_factory=list)
    c_hat: float | None = None
    C_hat: float | None = None
    upper_ok: bool = False
    lower_ok: bool = False
    derivative_ok: bool = False
    growth: GrowthBound | None = None
    growth_ok: bool | None = None
    supports: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def equivalence(self) -> NormEquivalence:
        if self.c_hat is None or self.C_hat is None:
            raise EstimationError("no nonzero samples, no equivalence constants")
        return NormEquivalence(self.c_hat, self.C_hat)

    def to_json(self) -> dict:
        return {
            "c_hat": self.c_hat,
            "C_hat": self.C_hat,
            "upper_ok": self.upper_ok,
            "lower_ok": self.lower_ok,
            "derivative_ok": self.derivative_ok,
            "growth": self.growth.to_json() if self.growth else None,
            "growth_ok": self.growth_ok,
            "kappa_tol": _KAPPA_TOL,
            "supports": dict(self.supports),
            "notes": list(self.notes),
            "n_samples": len(self.samples),
            "provenance": EMPIRICAL_PROVENANCE,
        }


def condition_report(
    sys: SwitchedSystem,
    v,
    samples,
    fam: SignalFamily | None = None,
    growth: GrowthBound | None = None,
    deriv_grid=None,
) -> ConditionReport:
    """Check comparability and derivative conditions of an evaluator on samples.

    ``v`` maps states to functional values.  Per sample the report records
    the ratio v / ||x||^2 and whether every mode's difference quotient stays
    below -||x||^2 (1 - kappa_tol), with kappa_tol = 0.05.  Library errors
    raised by the evaluator are recorded per sample rather than aborting the
    sweep; any other exception is a bug and propagates.
    """
    if not samples:
        raise ContractViolation("need at least one sample state")
    if deriv_grid is None:
        deriv_grid = default_derivative_grid()
    report = ConditionReport(growth=growth)
    ratios = []
    deriv_all_ok = True
    for x in samples:
        n2 = state_norm(x, sys.norm) ** 2
        if n2 == 0.0:
            report.samples.append(SampleCheck(0.0, 0.0, None, True, (), vacuous=True))
            continue
        try:
            val = v(x)
            dvals = []
            ok = True
            for j in range(sys.n_modes):
                est = generalized_derivative(v, sys, j, x, deriv_grid)
                dvals.append(est.value)
                if not est.value <= -n2 * (1.0 - _KAPPA_TOL):
                    ok = False
            report.samples.append(SampleCheck(n2, val, val / n2, ok, tuple(dvals)))
            ratios.append(val / n2)
            deriv_all_ok = deriv_all_ok and ok
        except SwlyapError as exc:  # recorded, not fatal
            report.notes.append(f"evaluator failed on a sample: {exc}")
            deriv_all_ok = False
    if ratios:
        report.c_hat = min(ratios)
        report.C_hat = max(ratios)
        report.upper_ok = math.isfinite(report.C_hat)
        report.lower_ok = report.c_hat > 0.0
    report.derivative_ok = deriv_all_ok
    if growth is not None:
        witnesses = [x for x in samples if state_norm(x, sys.norm) > 0.0]
        family = fam if fam is not None else SignalFamily.default(sys.n_modes)
        ok = True
        for t, r, _ in _norm_ratio_samples(sys, family, _GROWTH_CHECK_GRID, witnesses):
            if r > growth.at(t) * (1.0 + 1e-9):
                ok = False
        report.growth_ok = ok
    supports_c = report.upper_ok and report.lower_ok and report.derivative_ok
    supports_b = report.upper_ok and report.derivative_ok and (report.growth_ok is True)
    if report.upper_ok and growth is None:
        report.notes.append(
            "V-bound without growth bound is insufficient: upper comparability and "
            "a decaying derivative alone do not rule out norm blow-up"
        )
    report.supports = {"A": supports_b or supports_c, "B": supports_b, "C": supports_c}
    return report
