"""Exact algebra of piecewise-constant functions and coordinate states.

Piecewise-constant functions on a bounded interval are the state type for
the transport modes; plain 1-D numpy arrays are the states of the
finite-dimensional (Euclidean) modes.  All breakpoint arithmetic is plain
double arithmetic, so dyadic data (breakpoints k/2^m, dyadic shifts) is
handled exactly and structural equality of canonical forms doubles as
functional equality.

Everything here is immutable and the operations are pure, so they are safe
to call concurrently.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import le

import numpy as np

from .errors import InvalidStateError, StructuralError, json_list, json_number, json_object

__all__ = [
    "PiecewiseConstantFn",
    "NormSpec",
    "lp_norm",
    "canonicalize",
    "euclidean_state",
    "state_from_json",
    "state_norm",
]


def _check_structure(lo: float, hi: float, breaks: tuple, values: tuple) -> None:
    """Raise StructuralError unless the domain is finite with lo < hi, there is one
    more value than breaks, and the breaks are finite, sorted and inside the domain.
    Valid fields pass one test at C speed; only a failure runs the loop naming it."""
    isfinite = math.isfinite
    if (isfinite(lo) and isfinite(hi) and lo < hi and len(values) == len(breaks) + 1
            and all(map(isfinite, breaks)) and all(map(le, breaks, breaks[1:]))
            and (not breaks or lo <= breaks[0] and breaks[-1] <= hi)):
        return
    if not (isfinite(lo) and isfinite(hi)):
        raise StructuralError("domain endpoints must be finite")
    if not lo < hi:
        raise StructuralError("domain_lo must be strictly below domain_hi")
    if len(values) != len(breaks) + 1:
        raise StructuralError(f"need {len(breaks) + 1} values for {len(breaks)} "
                              f"breakpoints, got {len(values)}")
    for prev, b in zip((lo, *breaks), breaks):
        if not isfinite(b):
            raise StructuralError("breakpoints must be finite")
        if b < prev:
            raise StructuralError("breakpoints must be sorted")
    raise StructuralError("breakpoints must lie within the domain")


@dataclass(frozen=True)
class PiecewiseConstantFn:
    """A real function on [domain_lo, domain_hi] that is constant between breakpoints.

    ``values[i]`` is the value on the half-open piece ``[edge_i, edge_{i+1})``
    where the edges are ``domain_lo, *breaks, domain_hi``.  By convention the
    function is identically zero outside its domain; evaluation respects that.

    The constructor converts its fields to floats and :meth:`_from_floats` takes
    the float tuples a kernel built as they are; both run :func:`_check_structure`.
    :func:`canonicalize` merges equal neighbours and drops zero-width pieces;
    ``==`` on canonical functions is function equality.
    """

    domain_lo: float
    domain_hi: float
    breaks: tuple = ()
    values: tuple = (0.0,)

    def __post_init__(self):
        object.__setattr__(self, "domain_lo", float(self.domain_lo))
        object.__setattr__(self, "domain_hi", float(self.domain_hi))
        object.__setattr__(self, "breaks", tuple(map(float, self.breaks)))
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        _check_structure(self.domain_lo, self.domain_hi, self.breaks, self.values)

    # -- constructors ---------------------------------------------------

    @classmethod
    def _from_floats(cls, lo: float, hi: float, breaks: tuple, values: tuple):
        """The constructor's check without its float conversion or dataclass ``__init__``."""
        _check_structure(lo, hi, breaks, values)
        f = object.__new__(cls)
        f.__dict__.update(domain_lo=lo, domain_hi=hi, breaks=breaks, values=values)
        return f

    @classmethod
    def zero(cls, domain_lo: float, domain_hi: float) -> "PiecewiseConstantFn":
        return cls(domain_lo, domain_hi, (), (0.0,))

    @classmethod
    def constant(cls, domain_lo: float, domain_hi: float, value: float) -> "PiecewiseConstantFn":
        return cls(domain_lo, domain_hi, (), (float(value),))

    @classmethod
    def indicator(
        cls, domain_lo: float, domain_hi: float, lo: float, hi: float, value: float = 1.0
    ) -> "PiecewiseConstantFn":
        """Indicator of [lo, hi) within the domain, scaled by ``value``."""
        if math.isnan(lo) or math.isnan(hi):
            raise StructuralError("indicator bounds must not be NaN")
        lo = max(float(lo), float(domain_lo))
        hi = min(float(hi), float(domain_hi))
        if not lo < hi:
            return cls.zero(domain_lo, domain_hi)
        breaks = []
        values = []
        if lo > domain_lo:
            breaks.append(lo)
            values.append(0.0)
        values.append(float(value))
        if hi < domain_hi:
            breaks.append(hi)
            values.append(0.0)
        return canonicalize(cls(domain_lo, domain_hi, tuple(breaks), tuple(values)))

    # -- queries ---------------------------------------------------------

    @property
    def domain(self) -> tuple:
        return (self.domain_lo, self.domain_hi)

    def edges(self) -> tuple:
        return (self.domain_lo,) + self.breaks + (self.domain_hi,)

    def pieces(self):
        """Yield (lo, hi, value) triples covering the domain."""
        edges = self.edges()
        for i, v in enumerate(self.values):
            yield edges[i], edges[i + 1], v

    def at(self, s: float) -> float:
        """Point evaluation, with the zero-outside-the-domain convention."""
        if s < self.domain_lo or s >= self.domain_hi:
            return 0.0
        return self.values[bisect_right(self.breaks, s)]

    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "domain": [self.domain_lo, self.domain_hi],
            "breaks": list(self.breaks),
            "values": list(self.values),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PiecewiseConstantFn":
        obj = json_object(obj, "an object with 'domain', 'breaks' and 'values'",
                          "domain", "breaks", "values")
        lo, hi = json_list(obj["domain"], "domain", json_number, "a [lo, hi] pair of numbers", 2)
        breaks, values = (json_list(obj[key], key, json_number, "a list of numbers")
                          for key in ("breaks", "values"))
        return cls(lo, hi, tuple(breaks), tuple(values))


@dataclass(frozen=True)
class NormSpec:
    """Which norm the state space carries.

    ``kind == "lp"`` means the L^p norm with exponent ``p`` on piecewise
    functions; ``kind == "euclidean"`` means the 2-norm on coordinate states.
    """

    p: float = 2.0
    kind: str = "lp"

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        if self.kind not in ("lp", "euclidean"):
            raise StructuralError("kind: must be 'lp' or 'euclidean'")
        if self.kind == "lp" and not (math.isfinite(self.p) and self.p >= 1.0):
            raise StructuralError("p: must satisfy 1 <= p < infinity")

    @classmethod
    def euclidean(cls) -> "NormSpec":
        return cls(2.0, "euclidean")

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p}

    @classmethod
    def from_json(cls, obj: dict) -> "NormSpec":
        obj = json_object(obj, "an object with 'kind' and 'p'")
        return cls(json_number(obj.get("p", 2.0), "p"), obj.get("kind", "lp"))


def canonicalize(f: PiecewiseConstantFn) -> PiecewiseConstantFn:
    """Merge adjacent equal-value pieces and drop zero-width pieces.

    Idempotent; returns ``f`` itself when it is already canonical, so the
    result compares equal structurally iff it is equal as a function.
    """
    # a valid domain has positive width, so some piece survives
    pieces = [(lo, hi, v) for lo, hi, v in f.pieces() if hi > lo]
    merged = [list(pieces[0])]
    for lo, hi, v in pieces[1:]:
        if v == merged[-1][2]:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi, v])
    breaks = tuple(p[0] for p in merged[1:])
    values = tuple(p[2] for p in merged)
    if breaks == f.breaks and values == f.values:
        return f
    return PiecewiseConstantFn._from_floats(f.domain_lo, f.domain_hi, breaks, values)


def lp_norm_pow(f: PiecewiseConstantFn, p: float) -> float:
    """The p-th power of the L^p norm, sum of |v|^p * piece length; raises
    InvalidStateError when the sum is not finite, as any non-finite value makes it."""
    total = 0.0
    if p == 1.0:
        for lo, hi, v in f.pieces():
            total += abs(v) * (hi - lo)
    elif p == 2.0:
        for lo, hi, v in f.pieces():
            total += v * v * (hi - lo)
    else:
        try:
            for lo, hi, v in f.pieces():
                total += abs(v) ** p * (hi - lo)
        except OverflowError:  # |v|^p past the double range
            total = math.inf
    if not math.isfinite(total):
        raise InvalidStateError("L^p norm is not finite")
    return total


def lp_norm(f: PiecewiseConstantFn, spec: NormSpec) -> float:
    """L^p norm of ``f``.  Exact for dyadic data up to double rounding."""
    if spec.kind != "lp":
        raise StructuralError("piecewise functions carry an L^p norm, not a Euclidean one")
    p = spec.p
    total = lp_norm_pow(f, p)
    if p == 1.0:
        return total
    if p == 2.0:
        return math.sqrt(total)
    return total ** (1.0 / p)


def euclidean_state(coords) -> np.ndarray:
    """Validate and normalize a coordinate state to a float 1-D array."""
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise StructuralError("coordinate state must be a nonempty 1-D vector")
    if not np.all(np.isfinite(x)):
        raise InvalidStateError("coordinate state has non-finite entries")
    return x


def state_from_json(obj: dict):
    """A coordinate state from ``{"coords": [...]}``, else a piecewise-constant one."""
    if isinstance(obj, dict) and "coords" in obj:
        coords = json_list(obj["coords"], "coords", json_number, "a list of numbers")
        return euclidean_state(coords)
    if isinstance(obj, dict) and {"domain", "breaks", "values"} <= obj.keys():
        return PiecewiseConstantFn.from_json(obj)
    raise StructuralError(
        "must be an object with 'coords', or with 'domain', 'breaks' and 'values'"
    )


def state_norm(x, spec: NormSpec) -> float:
    """Norm of a state under ``spec``, dispatching on the state kind."""
    if isinstance(x, PiecewiseConstantFn):
        return lp_norm(x, spec)
    if isinstance(x, np.ndarray):
        if spec.kind != "euclidean":
            raise StructuralError("coordinate states require a Euclidean norm spec")
        with np.errstate(over="ignore"):  # rescaled below when it overflows
            n = float(np.linalg.norm(x))
        if math.isinf(n) and np.isfinite(x).all():
            # the plain norm squares unscaled and overflows past ~1.3e154
            s = float(np.max(np.abs(x)))
            n = s * float(np.linalg.norm(x / s))
        if not math.isfinite(n):
            raise InvalidStateError("coordinate state norm is not finite")
        return n
    raise StructuralError(f"unknown state type {type(x).__name__}")
