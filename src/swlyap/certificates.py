"""Stability certificates: growth and decay envelopes, norm equivalence and the
Datko chain, and the fits and compositions that build them.

The fits are empirical: they majorize the samples they saw, which are
themselves lower bounds of suprema over all signals.  Every fitted constant
should therefore be read as "lower-confidence" evidence, in contrast to the
closed-form certificate composition (Datko chain, Gronwall constants), which
is exact given its inputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ContractViolation, EstimationError, StructuralError, SwlyapError
from .lyapunov import generalized_derivative
from .state_space import state_norm
from .switching import (
    SignalFamily,
    SwitchedSystem,
    distinct_trajectories,
    enumerate_family,
    evolve,  # unused here: perfbench/tracer.py checks that certificates binds it
    operator_norm_witness,
)

__all__ = [
    "GrowthBound",
    "DecayBound",
    "NormEquivalence",
    "DatkoCertificate",
    "FitRefusal",
    "norm_ratio_samples",
    "fit_growth",
    "fit_decay",
    "datko_certificate",
    "gronwall_certificate",
    "ConditionReport",
    "condition_report",
    "EMPIRICAL_PROVENANCE",
]

EMPIRICAL_PROVENANCE = "empirical - lower-confidence (majorizes samples, not the true sup)"
_KAPPA_TOL = 0.05  # derivative slack: each quotient must stay below -||x||^2 (1 - _KAPPA_TOL)
_GROWTH_CHECK_GRID = (0.5, 1.0, 2.0, 4.0)  # times at which a growth envelope is checked
_T1_FACTOR = 1.01  # the Datko horizon t1 as a multiple of the dwell scale t0


@dataclass(frozen=True)
class GrowthBound:
    """Uniform exponential growth envelope: operator norms <= M e^{omega t}."""

    M: float
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "M", float(self.M))
        object.__setattr__(self, "omega", float(self.omega))
        if not (self.M >= 1.0 and math.isfinite(self.M)):
            raise StructuralError("growth constant M must be >= 1")
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise StructuralError("growth rate omega must be positive")

    def at(self, t: float) -> float:
        return self.M * math.exp(self.omega * t)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DecayBound:
    """Uniform exponential decay envelope: operator norms <= K e^{-mu t}."""

    K: float
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "K", float(self.K))
        object.__setattr__(self, "mu", float(self.mu))
        if not (self.K >= 1.0 and math.isfinite(self.K)):
            raise StructuralError("decay constant K must be >= 1")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise StructuralError("decay rate mu must be positive")

    def at(self, t: float) -> float:
        return self.K * math.exp(-self.mu * t)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class NormEquivalence:
    """Two-sided comparability c ||x||^2 <= V(x) <= C ||x||^2."""

    c: float
    C: float

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "C", float(self.C))
        if not (0 < self.c <= self.C and math.isfinite(self.C)):
            raise StructuralError("need 0 < c <= C")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DatkoCertificate:
    """The full constant chain of the integral-to-exponential argument.

    From a uniform trajectory bound k and an integral constant C_int with
    exponent p, choosing a contraction target beta in (0, 1) yields the
    dwell scale t0 = C_int / rho^p with rho = beta / k, a fixed t1 > t0,
    and the decay pair mu = -ln(beta)/t1, K.  ``datko_certificate`` builds
    and checks it.
    """

    p: float
    C_int: float
    k: float
    rho: float
    beta: float
    t0: float
    t1: float
    K: float
    mu: float

    def decay(self) -> DecayBound:
        return DecayBound(max(self.K, 1.0), self.mu)

    def to_json(self) -> dict:
        return asdict(self)


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


def norm_ratio_samples(sys: SwitchedSystem, fam: SignalFamily, time_grid, witnesses) -> list:
    """Per time point ``(t, ratio, signal)``: the largest ``operator_norm_witness``
    over the family's distinct trajectories, and the first signal that reaches
    it.  Both fits take this list."""
    time_grid = [float(t) for t in time_grid]
    if not time_grid:
        raise ContractViolation("need at least one time point")
    signals = list(distinct_trajectories(enumerate_family(fam)))
    witnesses = list(witnesses)
    samples = []
    for t in time_grid:
        best, arg = 0.0, None
        for sig in signals:
            r = operator_norm_witness(sys, sig, t, witnesses)
            if r > best:
                best, arg = r, sig
        samples.append((t, best, arg))
    return samples


def _log_slope(samples) -> float:
    pts = [(t, math.log(r)) for t, r, _ in samples if r > 0.0]
    if len(pts) < 2:
        raise EstimationError("not enough nonzero samples to fit an exponential")
    t = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    return float(np.polyfit(t, y, 1)[0])


def fit_growth(samples) -> GrowthBound:
    """Least-squares exponential envelope M e^{omega t} majorizing all
    ``norm_ratio_samples``."""
    rs = [s[1] for s in samples]
    if max(rs) == 0.0:
        raise EstimationError("all sampled norms are zero; nothing to fit")
    slope = _log_slope(samples)
    omega = max(slope, 1e-6)
    m = max(r * math.exp(-omega * t) for t, r, _ in samples)
    M = max(1.0, m) * (1.0 + 1e-9)
    return GrowthBound(M, omega)


def fit_decay(samples):
    """Fit K e^{-mu t} majorizing ``norm_ratio_samples``, or refuse if they do
    not decay.

    Refusal is triggered when the sampled sup norm has nonnegative trend over
    the last decade of the grid (t >= t_max / 10); the refusal carries the
    worst sample and its signal.
    """
    rs = [s[1] for s in samples]
    if max(rs) == 0.0:
        raise EstimationError("all sampled norms are zero; nothing to fit")
    t_max = max(s[0] for s in samples)
    tail = [s for s in samples if s[0] >= t_max / 10.0]
    worst = max(tail, key=lambda s: s[1])
    try:
        tail_slope = _log_slope(tail)
    except EstimationError:
        tail_slope = -math.inf  # everything in the tail already reached zero
    if tail_slope >= 0.0:
        return FitRefusal(
            "sampled sup norm is nondecreasing over the last decade of the grid", *worst
        )
    slope = _log_slope(samples)
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
    mu = -ln(beta) / t1, K = k / beta.  The one check of the chain: a NaN input
    fails a contract; an input past the double range, or a chain outside the
    positive finite doubles, raises EstimationError.
    """
    if not isinstance(growth, GrowthBound):
        raise ContractViolation("a growth envelope is required for the chain to be valid")
    if not 0.0 < beta < 1.0:
        raise ContractViolation("beta must lie in (0, 1)")
    if not k >= 1.0:
        raise ContractViolation("uniform trajectory bound k must be >= 1")
    if not C_int > 0.0:
        raise ContractViolation("integral constant must be positive")
    if not p >= 1.0:
        raise ContractViolation("exponent p must be >= 1")
    try:
        p, C_int, k, beta = float(p), float(C_int), float(k), float(beta)
    except OverflowError:  # an integer past the double range
        raise EstimationError("Datko chain input leaves the double range") from None
    rho = beta / k
    try:
        t0 = C_int / rho**p
    except ZeroDivisionError:  # rho^p underflowed
        t0 = math.inf
    t1 = _T1_FACTOR * t0
    mu = -math.log(beta) / t1
    K = k / beta
    if not (0.0 < t0 < t1 < math.inf and 0.0 < mu and K < math.inf):
        raise EstimationError(f"Datko chain leaves the double range: t0 = {t0:g}, "
                              f"t1 = {t1:g}, mu = {mu:g}, K = {K:g}")
    return DatkoCertificate(p, C_int, k, rho, beta, t0, t1, K, mu)


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


@dataclass
class ConditionReport:
    """Summary of which stability conditions the sampled evidence supports.

    supports['B'] means: upper comparability of the functional plus the
    per-mode derivative check, plus the growth envelope when one is given.
    supports['C'] additionally needs the lower comparability.  supports['A']
    is inferred from either (the two converse routes), never measured
    directly here.
    """

    n_samples: int = 0  # the zero samples and those the evaluator did not fail on
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
        return {**asdict(self), "kappa_tol": _KAPPA_TOL, "provenance": EMPIRICAL_PROVENANCE}


def condition_report(
    sys: SwitchedSystem,
    v,
    samples,
    fam: SignalFamily,
    growth: GrowthBound | None = None,
) -> ConditionReport:
    """Check comparability and derivative conditions of an evaluator on samples.

    ``v`` maps states to functional values; it runs once at each sample and
    once per mode and derivative step, the sample's own value being shared by
    every mode's quotients.  Every mode's quotients are evaluated, and each
    must stay below -||x||^2 (1 - kappa_tol), with kappa_tol = 0.05.  Library
    errors raised by the evaluator are recorded per sample rather than
    aborting the sweep; any other exception is a bug and propagates.  A
    ``growth`` envelope is checked at t = 0.5, 1, 2 and 4, extrapolated past a
    shorter fitted grid, against the sup norm ratio over the family's distinct
    trajectories and the nonzero samples; with no nonzero sample (one whose
    squared norm is not 0) ``growth_ok`` stays None.
    """
    if not samples:
        raise ContractViolation("need at least one sample state")
    report = ConditionReport(growth=growth)
    ratios, nonzero = [], []
    deriv_all_ok = True
    for x in samples:
        n2 = state_norm(x, sys.norm) ** 2
        if n2 == 0.0:
            report.n_samples += 1
            continue
        nonzero.append(x)
        try:
            val = v(x)
            dvals = [generalized_derivative(v, sys, j, x, v0=val) for j in range(sys.n_modes)]
            report.n_samples += 1
            ratios.append(val / n2)
            deriv_all_ok = deriv_all_ok and all(d <= -n2 * (1.0 - _KAPPA_TOL) for d in dvals)
        except SwlyapError as exc:  # recorded, not fatal
            report.notes.append(f"evaluator failed on a sample: {exc}")
            deriv_all_ok = False
    if ratios:
        report.c_hat = min(ratios)
        report.C_hat = max(ratios)
        report.upper_ok = math.isfinite(report.C_hat)
        report.lower_ok = report.c_hat > 0.0
    report.derivative_ok = deriv_all_ok
    if growth is not None and nonzero:
        sweep = norm_ratio_samples(sys, fam, _GROWTH_CHECK_GRID, nonzero)
        report.growth_ok = all(r <= growth.at(t) * (1.0 + 1e-9) for t, r, _ in sweep)
    supports_c = report.upper_ok and report.lower_ok and report.derivative_ok
    supports_b = report.upper_ok and report.derivative_ok and (report.growth_ok is True)
    if report.upper_ok and growth is None:
        report.notes.append(
            "V-bound without growth bound is insufficient: upper comparability and "
            "a decaying derivative alone do not rule out norm blow-up"
        )
    report.supports = {"A": supports_b or supports_c, "B": supports_b, "C": supports_c}
    return report
