"""Certificate constant bundles: growth, decay, norm equivalence, Datko chain."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import StructuralError

__all__ = ["GrowthBound", "DecayBound", "NormEquivalence", "DatkoCertificate"]


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
