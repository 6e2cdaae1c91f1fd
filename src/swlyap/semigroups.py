"""The mode zoo: each family of evolution operators T(t) used by the library.

Four kinds of modes are supported:

* ``MatrixMode``        e^{tA} on R^n, via ``expm``: scaling and squaring with
  Pade approximants (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).
* ``ShiftAmplifyMode``  translation on a bounded interval that multiplies by a
  fixed factor exactly once, when a characteristic strictly crosses the
  amplification edge.  With the edge at an interior point this reproduces the
  "doubling at the hinge" transport pair on [-1, 1]; with the edge at 4^{-j}
  on [0, 1] it reproduces the amplifying cascade family.  The once-per-crossing
  rule is what makes the family an exact semigroup: T(t+s) = T(t) T(s) holds
  piece by piece on dyadic data.
* ``DiagonalGroupMode`` the scalar group e^{-mu t} I (invertible for every t).
* ``HalfLineShiftMode`` left translation on the half line with truncation at 0;
  strongly stable but with operator norm identically 1.

Transport is implemented directly on the piecewise representation, so dyadic
breakpoints evolve with exact double arithmetic.  All operations are pure.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ContractViolation,
    EstimationError,
    StructuralError,
    json_list,
    json_number,
    json_object,
)
from .state_space import PiecewiseConstantFn, canonicalize

__all__ = [
    "MatrixMode",
    "ShiftAmplifyMode",
    "DiagonalGroupMode",
    "HalfLineShiftMode",
    "matrix_mode",
    "apply",
    "expm",
    "transport_events",
    "mode_state_kind",
    "mode_to_json",
    "mode_from_json",
]


@dataclass(frozen=True)
class MatrixMode:
    """Finite-dimensional mode x' = Ax, evolved by the matrix exponential."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise StructuralError("A: must be a nonempty square matrix")
        if not all(math.isfinite(v) for r in rows for v in r):
            raise StructuralError("A: entries must be finite")

    @cached_property
    def matrix(self) -> np.ndarray:
        a = np.array(self.rows, dtype=float)
        a.setflags(write=False)
        return a

    @cached_property
    def dim(self) -> int:
        return len(self.rows)


def matrix_mode(A) -> MatrixMode:
    a = np.atleast_2d(np.asarray(A, dtype=float))
    return MatrixMode(tuple(tuple(row) for row in a))


@dataclass(frozen=True)
class ShiftAmplifyMode:
    """Transport on [domain_lo, domain_hi] with once-per-crossing amplification.

    direction "left" moves mass toward domain_lo; the crossing edge is
    ``amplify_hi``.  direction "right" moves mass toward domain_hi; the
    crossing edge is ``amplify_lo``.  Mass leaving the domain is discarded
    (zero extension), which makes every such mode nilpotent: T(t) = 0 once
    t reaches the domain length.
    """

    domain_lo: float
    domain_hi: float
    direction: str
    amplify_lo: float
    amplify_hi: float
    factor: float

    def __post_init__(self):
        for name in ("domain_lo", "domain_hi", "amplify_lo", "amplify_hi", "factor"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.direction not in ("left", "right"):
            raise StructuralError("direction: must be 'left' or 'right'")
        if not self.domain_lo < self.domain_hi:
            raise StructuralError("domain: must satisfy lo < hi")
        if not (self.domain_lo <= self.amplify_lo <= self.amplify_hi <= self.domain_hi):
            raise StructuralError("amplify: must be an interval inside the domain")
        if not (self.factor > 0 and math.isfinite(self.factor)):
            raise StructuralError("factor: must be positive and finite")

    @property
    def edge(self) -> float:
        """The spatial point whose crossing triggers the amplification."""
        return self.amplify_hi if self.direction == "left" else self.amplify_lo

    @property
    def domain(self) -> tuple:
        return (self.domain_lo, self.domain_hi)


@dataclass(frozen=True)
class DiagonalGroupMode:
    """The scalar group T(t) = e^{-mu t} I, defined for all real t."""

    mu: float

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise StructuralError("mu: must be positive and finite")


@dataclass(frozen=True)
class HalfLineShiftMode:
    """Left translation (T(t)f)(s) = f(s+t) on the half line, truncated at 0.

    This is left transport on the state's own domain [0, hi] with its edge at
    0 and factor 1, so it never amplifies.
    """

    direction = "left"
    edge = 0.0
    factor = 1.0


def mode_state_kind(mode) -> str:
    """'euclidean', 'function', or 'any' (scalar modes act on both)."""
    if isinstance(mode, MatrixMode):
        return "euclidean"
    if isinstance(mode, (ShiftAmplifyMode, HalfLineShiftMode)):
        return "function"
    if isinstance(mode, DiagonalGroupMode):
        return "any"
    raise StructuralError(f"unknown mode type {type(mode).__name__}")


# -- matrix exponential ---------------------------------------------------------

# For each Pade degree m = 3, 5, 7, 9: theta_m, the largest ||A||_1 at which
# the [m/m] approximant of e^A is accurate to unit roundoff in double
# precision, and the approximant's coefficients b_0..b_m (Higham 2005).
_PADE = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1,
     (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    (2.097847961257068e0,
     (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
      110880.0, 3960.0, 90.0, 1.0)),
)
_THETA_13 = 5.371920351148152e0
_B13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def _pade(A: np.ndarray, b: tuple) -> tuple:
    """The odd part U and even part V of the [m/m] Pade numerator, m = len(b) - 1 <= 9."""
    ident = np.eye(A.shape[0])
    A2 = A @ A
    power, odd, even = ident, b[1] * ident, b[0] * ident
    for j in range(2, len(b), 2):
        power = power @ A2
        odd = odd + b[j + 1] * power
        even = even + b[j] * power
    return A @ odd, even


def _pade13(A: np.ndarray) -> tuple:
    """U and V of the [13/13] approximant, from A^2, A^4 and A^6 alone."""
    b = _B13
    ident = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    return U, V


def expm(A) -> np.ndarray:
    """e^A of a square matrix by scaling and squaring (Higham 2005).

    The lowest Pade degree whose theta_m bounds ||A||_1 is used directly;
    above theta_13, A is scaled by 2^-s into it and the result squared s
    times.  A non-finite entry in A or in e^A raises EstimationError.
    """
    A = np.asarray(A, dtype=float)
    norm = float(np.abs(A).sum(axis=0).max())  # not finite iff an entry is not
    if not math.isfinite(norm):
        raise EstimationError("matrix exponential of a non-finite matrix")
    for theta, b in _PADE:
        if norm <= theta:
            U, V = _pade(A, b)
            return np.linalg.solve(V - U, V + U)
    s = max(0, math.ceil(math.log2(norm / _THETA_13)))
    U, V = _pade13(A / 2.0**s)
    X = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            X = X @ X
    if not np.isfinite(X).all():
        raise EstimationError(f"matrix exponential is not finite (||A||_1 = {norm:.3g})")
    return X


# -- matrix exponential cache -------------------------------------------------

_EXPM_CACHE: dict = {}
_EXPM_CACHE_MAX = 200_000


def _expm(A: np.ndarray, t: float) -> np.ndarray:
    key = (A.tobytes(), A.shape[0], t)
    hit = _EXPM_CACHE.get(key)
    if hit is not None:
        return hit
    val = expm(A * t)
    if len(_EXPM_CACHE) >= _EXPM_CACHE_MAX:
        _EXPM_CACHE.clear()
    _EXPM_CACHE[key] = val
    return val


# -- transport kernel ----------------------------------------------------------


def _transport(mode, t: float, f: PiecewiseConstantFn) -> PiecewiseConstantFn:
    """Translate ``f`` by ``t`` and amplify the window of crossed characteristics.

    Output pieces lie between the shifted edges of ``f`` and the window ends.
    Each piece is valued at its midpoint, which keeps dyadic data exact, and
    merged into its left neighbour when equal, so the result is canonical as
    built.
    """
    if isinstance(mode, HalfLineShiftMode):
        if f.domain_lo != 0.0:
            raise StructuralError("half-line states must live on [0, hi]")
    elif f.domain != mode.domain:
        raise StructuralError(
            f"state domain {f.domain} does not match mode domain {mode.domain}"
        )
    if t == 0.0:
        return canonicalize(f)
    lo, hi = f.domain
    if t >= hi - lo:
        return PiecewiseConstantFn._from_floats(lo, hi, (), (0.0,))
    # output s carries f(s + shift); amplified on [w_lo, w_hi), the points
    # whose characteristic crossed the edge during [0, t]
    c, g = mode.edge, mode.factor
    shift, w_lo, w_hi = (t, c - t, c) if mode.direction == "left" else (-t, c, c + t)
    cand = {b - shift for b in f.edges()}
    cand.update((w_lo, w_hi))
    pts = sorted(x for x in cand if lo < x < hi)
    pts.append(hi)
    f_breaks, f_values = f.breaks, f.values
    breaks, values = [], []
    a = lo
    for b in pts:
        m = 0.5 * (a + b)
        s = m + shift
        v = f_values[bisect_right(f_breaks, s)] if lo <= s < hi else 0.0
        if v != 0.0 and w_lo <= m < w_hi:
            v *= g
        if not values or v != values[-1]:
            breaks.append(a)
            values.append(v)
        a = b
    return PiecewiseConstantFn._from_floats(lo, hi, tuple(breaks[1:]), tuple(values))


def transport_events(mode, f: PiecewiseConstantFn, d: float) -> list:
    """Times in (0, d) where the piecewise structure of T(tau) f changes.

    Between consecutive events every L^p norm power of T(tau) f is linear
    in tau: an edge of ``f`` meets the domain end or the amplification edge,
    or the window meets the domain end.
    """
    A, B = f.domain
    c = mode.edge
    if mode.direction == "left":
        ev = {b - e for b in f.edges() for e in (A, c)}
        ev.add(c - A)
    else:
        ev = {e - b for b in f.edges() for e in (B, c)}
        ev.add(B - c)
    ev.add(B - A)
    return sorted(t for t in ev if 0.0 < t < d)


# -- public operations ---------------------------------------------------------


def apply(mode, t: float, x):
    """Evolve the state ``x`` by ``mode`` for a finite duration ``t >= 0``.

    Matrix modes require a coordinate state, transport modes a piecewise
    function on the mode's spatial domain; the scalar group acts on either.
    """
    if not 0.0 <= t < math.inf:  # also refuses NaN
        raise ContractViolation("evolution time must be finite and nonnegative")
    if isinstance(mode, MatrixMode):
        if not isinstance(x, np.ndarray):
            raise StructuralError("matrix modes act on coordinate states")
        if x.shape != (mode.dim,):
            raise StructuralError(
                f"state dimension {x.shape} does not match mode dimension {mode.dim}"
            )
        return _expm(mode.matrix, t) @ x
    if isinstance(mode, DiagonalGroupMode):
        scale = math.exp(-mode.mu * t)
        if isinstance(x, np.ndarray):
            return x * scale
        if isinstance(x, PiecewiseConstantFn):
            return canonicalize(
                PiecewiseConstantFn._from_floats(
                    x.domain_lo, x.domain_hi, x.breaks, tuple(v * scale for v in x.values)
                )
            )
        raise StructuralError(f"unknown state type {type(x).__name__}")
    if isinstance(mode, (ShiftAmplifyMode, HalfLineShiftMode)):
        if not isinstance(x, PiecewiseConstantFn):
            raise StructuralError("transport modes act on piecewise-constant states")
        return _transport(mode, t, x)
    raise StructuralError(f"unknown mode type {type(mode).__name__}")


# -- serialization --------------------------------------------------------------


def mode_to_json(mode) -> dict:
    if isinstance(mode, MatrixMode):
        return {"kind": "matrix", "A": [list(r) for r in mode.rows]}
    if isinstance(mode, ShiftAmplifyMode):
        return {
            "kind": "shift_amplify",
            "domain": [mode.domain_lo, mode.domain_hi],
            "direction": mode.direction,
            "amplify": [mode.amplify_lo, mode.amplify_hi],
            "factor": mode.factor,
        }
    if isinstance(mode, DiagonalGroupMode):
        return {"kind": "diagonal_group", "mu": mode.mu}
    if isinstance(mode, HalfLineShiftMode):
        return {"kind": "half_line_shift"}
    raise StructuralError(f"unknown mode type {type(mode).__name__}")


def _row(value, path):
    return json_list(value, path, json_number, "a list of numbers")


def _interval(value, path):
    return json_list(value, path, json_number, "a [lo, hi] pair of numbers", 2)


def mode_from_json(obj: dict):
    """The mode ``mode_to_json`` wrote; errors name the field, as in ``A[0][1]: ...``."""
    need = "an object with a 'kind'"
    kind = json_object(obj, need, "kind")["kind"]
    if kind == "matrix":
        A = json_object(obj, need, "A")["A"]
        return MatrixMode(tuple(json_list(A, "A", _row, "a list of rows of numbers")))
    if kind == "shift_amplify":
        json_object(obj, need, "domain", "direction", "amplify", "factor")
        lo, hi = _interval(obj["domain"], "domain")
        alo, ahi = _interval(obj["amplify"], "amplify")
        factor = json_number(obj["factor"], "factor")
        return ShiftAmplifyMode(lo, hi, obj["direction"], alo, ahi, factor)
    if kind == "diagonal_group":
        return DiagonalGroupMode(json_number(json_object(obj, need, "mu")["mu"], "mu"))
    if kind == "half_line_shift":
        return HalfLineShiftMode()
    raise StructuralError(f"unknown mode kind {kind!r}")
