"""The mode zoo: each family of evolution operators T(t) used by the library.

Four kinds of modes are supported:

* ``MatrixMode``        e^{tA} on R^n, via ``expm``: scaling and squaring with
  one [13/13] Pade approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).
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

The one memo is per matrix mode: ``MatrixMode.exp(t)`` keeps each e^{tA} it
computes in the mode's own ``__dict__``, cleared once it holds 4,096, and
lives and dies with the mode.  No module-level state changes.
"""

from __future__ import annotations

import math
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

_EXP_MEMO_MAX = 4096  # exponentials one MatrixMode keeps; a full memo is cleared


@dataclass(frozen=True)
class MatrixMode:
    """Finite-dimensional mode x' = Ax, evolved by the matrix exponential."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(map(tuple, json_list(self.rows, "A", _row, "a list of rows of numbers")))
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

    @cached_property
    def _exps(self) -> dict:
        return {}

    def exp(self, t: float) -> np.ndarray:
        """e^{tA} as a read-only array, from ``expm(A * t)`` once per ``t``."""
        hit = self._exps.get(t)
        if hit is None:
            if len(self._exps) >= _EXP_MEMO_MAX:
                self._exps.clear()
            hit = self._exps[t] = expm(self.matrix * t)
            hit.setflags(write=False)
        return hit


def matrix_mode(A) -> MatrixMode:
    """The mode x' = Ax of a square matrix given as nested sequences or an array."""
    return MatrixMode(A)


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
            object.__setattr__(self, name, json_number(getattr(self, name), name))
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
        object.__setattr__(self, "mu", json_number(self.mu, "mu"))
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

# theta_13, the largest ||A||_1 at which the [13/13] Pade approximant of e^A
# is accurate to unit roundoff in double precision, and the approximant's
# coefficients b_0..b_13 divided by b_0 (Higham 2005), so that A = 0 gives
# V = I and U = 0, and e^0 = I exactly.
_THETA_13 = 5.371920351148152e0
_B13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
))


def expm(A) -> np.ndarray:
    """e^A of a square matrix by scaling and squaring (Al-Mohy and Higham,
    SIAM J. Matrix Anal. Appl. 31, 2009).

    One approximant, [13/13] Pade from A^2, A^4 and A^6.  Above theta_13, A is
    scaled by 2^-s and the result squared s times, with s the least that
    brings eta = min(max(d_6, d_8), max(d_8, d_10)) within theta_13, where
    d_k = ||A^k||_1^(1/k) <= ||A||_1: a matrix whose powers grow slowly is not
    overscaled.  For triangular A each squaring's diagonal is recomputed as
    exp of the scaled diagonal.  A non-finite entry in A or in e^A raises
    EstimationError.
    """
    A = np.asarray(A, dtype=float)
    norm = float(np.abs(A).sum(axis=0).max())  # not finite iff an entry is not
    if not math.isfinite(norm):
        raise EstimationError("matrix exponential of a non-finite matrix")
    eta = norm
    if norm > _THETA_13:
        with np.errstate(over="ignore", invalid="ignore"):
            P4 = (P2 := A @ A) @ P2
            P8 = P4 @ P4
            d = [np.linalg.norm(P, 1) ** (1 / k) for P, k in ((P4 @ P2, 6), (P8, 8), (P8 @ P2, 10))]
        if np.isfinite(d).all():  # an overflowed power keeps eta = ||A||_1
            eta = min(max(d[0], d[1]), max(d[1], d[2]))
    s = math.ceil(math.log2(eta / _THETA_13)) if eta > _THETA_13 else 0
    diag = np.diag(A) if not (np.tril(A, -1).any() and np.triu(A, 1).any()) else None
    A = A / 2.0**s
    b = _B13
    ident = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    X = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(s - 1, -1, -1):
            X = X @ X
            if diag is not None:  # triangular: squaring would cost the diagonal 2^s ulps
                np.fill_diagonal(X, np.exp(diag * 2.0**-k))
    if not np.isfinite(X).all():
        raise EstimationError(f"matrix exponential is not finite (||A||_1 = {norm:.3g})")
    return X


# -- transport kernel ----------------------------------------------------------


def _transport(mode, t: float, f: PiecewiseConstantFn) -> PiecewiseConstantFn:
    """Translate ``f`` by ``t`` and amplify the window of crossed characteristics.

    One sort of the shifted edges of ``f`` and the window ends gives the output
    cuts; one walk over them values each piece at its midpoint (exact on dyadic
    data), read through an index that only moves right over the breaks of ``f``,
    and merges equal neighbours, so the result is canonical as built.
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
    # output s carries f(s + shift), times g on [w_lo, w_hi): it crossed the edge by t
    c, g = mode.edge, mode.factor
    shift, w_lo, w_hi = (t, c - t, c) if mode.direction == "left" else (-t, c, c + t)
    cuts = sorted([b - shift for b in f.edges()] + [w_lo, w_hi, hi])
    f_breaks, f_values, n = f.breaks, f.values, len(f.breaks)
    breaks, values = [], []
    a, j = lo, 0
    for b in cuts:
        if not a < b <= hi:
            continue
        m = 0.5 * (a + b)
        s = m + shift  # never decreases, so j = bisect_right(f_breaks, s)
        while j < n and f_breaks[j] <= s:
            j += 1
        v = f_values[j] if lo <= s < hi else 0.0
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
        return mode.exp(t) @ x
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
        return MatrixMode(json_object(obj, need, "A")["A"])
    if kind == "shift_amplify":
        json_object(obj, need, "domain", "direction", "amplify", "factor")
        lo, hi = _interval(obj["domain"], "domain")
        alo, ahi = _interval(obj["amplify"], "amplify")
        return ShiftAmplifyMode(lo, hi, obj["direction"], alo, ahi, obj["factor"])
    if kind == "diagonal_group":
        return DiagonalGroupMode(json_object(obj, need, "mu")["mu"])
    if kind == "half_line_shift":
        return HalfLineShiftMode()
    raise StructuralError(f"unknown mode kind {kind!r}")
