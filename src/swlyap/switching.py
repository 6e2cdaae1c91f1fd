"""Switching signals, switched evolution, and operator-norm witnesses.

A switching signal is a finite list of (mode_id, dwell) segments followed by
a tail mode that stays active forever; signals are right-continuous and
dwells are strictly positive (no chattering).  ``walk`` composes the mode
semigroups segment by segment and yields every piece with its start and end
states, and the trajectory energy sums one segment energy per piece.
``evolve`` returns only the last state, built once from the kernel's lists.
On dyadic transport data the composition is exact, so the concatenation law

    evolve(sig, t + s, x) == evolve(shift_signal(sig, s), t, evolve(sig, s, x))

holds with zero error there (and to matrix-exponential accuracy otherwise).

The set of all signals is infinite; ``SignalFamily`` is the finite grid
surrogate used for suprema.  Anything maximized over a family is therefore a
certified lower bound of the true supremum, never an upper one.
``distinct_trajectories`` drops the family signals that repeat an earlier
signal's trajectory.
"""

from __future__ import annotations

import math
from itertools import product

from .errors import (
    ContractViolation,
    FamilySizeError,
    Record,
    StructuralError,
    json_integer,
    json_list,
    json_number,
    json_object,
    read_at,
    under,
)
from .semigroups import (
    HalfLineShiftMode,
    MatrixMode,
    ShiftAmplifyMode,
    _check_domain,
    _transport,
    apply,
    mode_from_json,
    mode_state_kind,
)
from .state_space import NormSpec, PiecewiseConstantFn, state_norm

__all__ = [
    "SwitchingSignal",
    "SwitchedSystem",
    "SignalFamily",
    "walk",
    "evolve",
    "shift_signal",
    "operator_norm_witness",
    "family_size",
    "enumerate_family",
    "distinct_trajectories",
]


class SwitchingSignal(Record):
    """(mode, dwell) segments followed by a tail mode active forever.

    Errors name the offending field as a path, e.g. ``segments[1].dwell``.
    """

    segments: tuple = ()
    tail_mode: int = 0

    def __post_init__(self):
        try:
            items = enumerate(self.segments)
        except TypeError:
            raise StructuralError("segments: must be a sequence of (mode, dwell) pairs") from None
        segs = []
        for i, seg in items:  # an int id and a positive float dwell skip the checks' calls
            try:
                m, d = seg
                if type(m) is not int or m < 0:
                    m = _mode_id(m, "mode")
                if type(d) is not float or not 0.0 < d < math.inf:
                    d = _dwell(d)
            except StructuralError as exc:  # the path is formed only on failure
                raise StructuralError(under(f"segments[{i}]", str(exc))) from None
            except (TypeError, ValueError):  # not a pair
                raise StructuralError(f"segments[{i}]: must be a (mode, dwell) pair") from None
            segs.append((m, d))
        object.__setattr__(self, "segments", tuple(segs))
        object.__setattr__(self, "tail_mode", _mode_id(self.tail_mode, "tail"))

    def active_mode(self, t: float) -> int:
        """Mode active at time t (right-continuous)."""
        if not 0.0 <= t < math.inf:  # also refuses NaN
            raise ContractViolation("time must be finite and nonnegative")
        acc = 0.0
        for m, d in self.segments:
            acc += d
            if t < acc:
                return m
        return self.tail_mode

    def max_mode_id(self) -> int:
        ids = [m for m, _ in self.segments] + [self.tail_mode]
        return max(ids)

    def to_json(self) -> dict:
        return {"segments": [[m, d] for m, d in self.segments], "tail": self.tail_mode}

    @classmethod
    def from_json(cls, obj: dict) -> "SwitchingSignal":
        obj = json_object(obj, "an object with 'segments' and 'tail'", "segments", "tail")
        need = "a list of [mode, dwell] pairs"  # the constructor checks each pair and the tail
        return cls(json_list(obj["segments"], "segments", lambda seg, _: seg, need), obj["tail"])


def _mode_id(value, path: str) -> int:
    """A nonnegative mode id: an integer, an integral float or a numpy scalar of either."""
    if type(value) is not int:
        value = json_integer(value, path)
    if value < 0:
        raise StructuralError(f"{path}: must be nonnegative")
    return value


def _dwell(value) -> float:
    """A dwell: a finite positive number."""
    d = json_number(value, "dwell")
    if not (d > 0 and math.isfinite(d)):
        raise StructuralError("dwell: must be strictly positive")
    return d


class SwitchedSystem(Record):
    """An ordered list of modes sharing one state-space kind, plus its norm."""

    modes: tuple
    norm: NormSpec

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise StructuralError("a switched system needs at least one mode")
        kinds = {mode_state_kind(m) for m in self.modes}
        kinds.discard("any")
        if len(kinds) > 1:
            raise StructuralError(f"modes live on different state spaces: {sorted(kinds)}")
        if kinds == {"euclidean"} and self.norm.kind != "euclidean":
            raise StructuralError("coordinate modes require a Euclidean norm")
        if kinds == {"function"} and self.norm.kind != "lp":
            raise StructuralError("function-space modes require an L^p norm")
        dims = {m.dim for m in self.modes if isinstance(m, MatrixMode)}
        if len(dims) > 1:
            raise StructuralError(f"matrix modes have different dimensions: {sorted(dims)}")

    @classmethod
    def from_json(cls, obj: dict) -> "SwitchedSystem":
        """Modes from ``obj["modes"]``, named ``modes[i]`` in errors.  The norm
        defaults to L^2 for function-space modes and is Euclidean otherwise."""
        obj = json_object(obj, "an object with a 'modes' list", "modes")
        modes = json_list(obj["modes"], "modes", lambda m, path: read_at(path, mode_from_json, m),
                          "a list of mode objects")
        if "norm" in obj:
            return cls(tuple(modes), read_at("norm", NormSpec.from_json, obj["norm"]))
        kinds = {mode_state_kind(m) for m in modes} - {"any"}
        return cls(tuple(modes), NormSpec(2.0) if kinds == {"function"} else NormSpec.euclidean())

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def mode(self, mode_id: int):
        if not 0 <= mode_id < len(self.modes):
            raise StructuralError(f"mode id {mode_id} out of range for {len(self.modes)} modes")
        return self.modes[mode_id]


def _pieces(sig: SwitchingSignal, t: float):
    """Yield ``(mode_id, step)`` for each piece of ``sig`` on [0, t], the tail last."""
    if not 0.0 <= t < math.inf:  # also refuses NaN
        raise ContractViolation("evolution time must be finite and nonnegative")
    remaining = t
    for mode_id, dwell in sig.segments + ((sig.tail_mode, math.inf),):
        if remaining <= 0.0:
            return
        step = dwell if dwell <= remaining else remaining
        yield mode_id, step
        remaining -= step


def walk(sys: SwitchedSystem, sig: SwitchingSignal, t: float, x):
    """Yield ``(mode, step, start, end)`` for each piece of ``sig`` on [0, t],
    the tail last; each ``end`` is the next piece's ``start``."""
    state = x
    for mode_id, step in _pieces(sig, t):
        mode = sys.mode(mode_id)
        end = apply(mode, step, state)
        yield mode, step, state, end
        state = end


def evolve(sys: SwitchedSystem, sig: SwitchingSignal, t: float, x):
    """Apply the switched evolution operator of ``sig`` for duration ``t``.

    Equals ``walk``'s last ``end`` (``x`` itself when ``t == 0``), which is what
    a coordinate state gets.  A piecewise state crosses transport steps as the
    kernel's canonical lists and is built once, by ``_from_floats``; other steps
    go through ``apply``, and each mode id is resolved at its first piece.
    """
    if not isinstance(x, PiecewiseConstantFn):
        for *_, x in walk(sys, sig, t, x):
            pass
        return x
    lo, hi = x.domain
    breaks, values, state = x.breaks, x.values, x  # state is None while only the lists hold it
    modes = {}  # mode id -> (mode, whether _transport moves it), checked at the id's first piece
    for mode_id, step in _pieces(sig, t):
        if mode_id not in modes:
            mode = sys.mode(mode_id)
            if moves := isinstance(mode, (ShiftAmplifyMode, HalfLineShiftMode)):
                _check_domain(mode, lo, hi)
            modes[mode_id] = mode, moves
        mode, moves = modes[mode_id]
        if moves:
            breaks, values = _transport(mode, step, lo, hi, breaks, values)
            state = None
            continue
        if state is None:
            state = PiecewiseConstantFn._from_floats(lo, hi, tuple(breaks), tuple(values))
        state = apply(mode, step, state)
        breaks, values = state.breaks, state.values
    return state or PiecewiseConstantFn._from_floats(lo, hi, tuple(breaks), tuple(values))


def shift_signal(sig: SwitchingSignal, s: float) -> SwitchingSignal:
    """The signal seen by an observer starting at time ``s``."""
    if not 0.0 <= s < math.inf:  # also refuses NaN
        raise ContractViolation("shift must be finite and nonnegative")
    if s == 0.0:
        return sig
    remaining = s
    for i, (mode_id, dwell) in enumerate(sig.segments):
        if remaining < dwell:
            head = ((mode_id, dwell - remaining),)
            return SwitchingSignal(head + sig.segments[i + 1 :], sig.tail_mode)
        remaining -= dwell
    return SwitchingSignal((), sig.tail_mode)


def operator_norm_witness(sys: SwitchedSystem, sig: SwitchingSignal, t: float, witnesses) -> float:
    """Certified lower bound on the operator norm of the evolution at time t.

    Returns the largest norm ratio over the supplied witness states.  This is
    a lower bound of the true operator norm; it equals it only when the
    witness set contains a maximizing direction.
    """
    witnesses = list(witnesses)
    if not witnesses:
        raise ContractViolation("need at least one witness state")
    best = 0.0
    for w in witnesses:
        nw = state_norm(w, sys.norm)
        if nw == 0.0:
            raise ContractViolation("witness states must be nonzero")
        ratio = state_norm(evolve(sys, sig, t, w), sys.norm) / nw
        if ratio > best:
            best = ratio
    return best


DEFAULT_DWELL_GRID = (0.25, 0.5, 1.0)
DEFAULT_MAX_SWITCHES = 2
_ENUMERATION_LIMIT = 500_000


class SignalFamily(Record):
    """Finite grid of signals: all mode words with dwells from a fixed grid."""

    dwell_grid: tuple
    max_switches: int
    mode_ids: tuple

    def __post_init__(self):
        grid = tuple(sorted(json_list(self.dwell_grid, "dwells", json_number, "a list of numbers")))
        object.__setattr__(self, "dwell_grid", grid)
        object.__setattr__(self, "max_switches", json_integer(self.max_switches, "max_switches"))
        modes = json_list(self.mode_ids, "modes", _mode_id, "a list of integer mode ids")
        object.__setattr__(self, "mode_ids", tuple(modes))
        if not grid or any(d <= 0 or not math.isfinite(d) for d in grid):
            raise StructuralError("dwells: must be nonempty with positive entries")
        if not 0 <= self.max_switches <= _ENUMERATION_LIMIT:
            # a deeper family has more than one signal per depth over the limit
            raise StructuralError(f"max_switches: must lie in [0, {_ENUMERATION_LIMIT}]")
        if not self.mode_ids:
            raise StructuralError("modes: must be nonempty")

    @classmethod
    def default(cls, n_modes: int) -> "SignalFamily":
        return cls(DEFAULT_DWELL_GRID, DEFAULT_MAX_SWITCHES, tuple(range(n_modes)))

    @classmethod
    def from_json(cls, obj: dict | None, n_modes: int) -> "SignalFamily":
        """The family of ``obj``'s fields; a missing one, or a null ``obj``, takes
        the default, with every one of ``n_modes`` modes."""
        obj = json_object({} if obj is None else obj, "an object or null")
        return cls(obj.get("dwells", DEFAULT_DWELL_GRID),
                   obj.get("max_switches", DEFAULT_MAX_SWITCHES),
                   obj.get("modes", range(n_modes)))


def family_size(fam: SignalFamily) -> int:
    """Signals in the family: sum over k <= max_switches of n^(k+1) d^k."""
    n, d = len(fam.mode_ids), len(fam.dwell_grid)
    r, k = n * d, fam.max_switches
    return n * (k + 1) if r == 1 else n * (r ** (k + 1) - 1) // (r - 1)


def enumerate_family(fam: SignalFamily):
    """Deterministic enumeration, lexicographic in (switch count, modes, dwells)."""
    count = family_size(fam)
    if count > _ENUMERATION_LIMIT:
        raise FamilySizeError(count, _ENUMERATION_LIMIT)

    def gen():
        for k in range(fam.max_switches + 1):
            for word in product(fam.mode_ids, repeat=k + 1):
                for dwells in product(fam.dwell_grid, repeat=k):
                    yield SwitchingSignal(tuple(zip(word[:-1], dwells)), word[-1])

    return gen()


def distinct_trajectories(signals):
    """The first signal of each trajectory among ``signals``, in input order.

    Two signals run one trajectory when they agree after adjacent segments in
    the same mode are merged (dwells summed) and trailing segments in the tail
    mode are folded into the tail.  Dwells merge only where their float sum is
    exact, so a sum that rounds leaves a repeat in and never joins two
    different trajectories.
    """
    seen = set()
    for sig in signals:
        key = _trajectory_key(sig)
        if key not in seen:
            seen.add(key)
            yield sig


def _trajectory_key(sig: SwitchingSignal) -> tuple:
    segments, tail = sig.segments, sig.tail_mode
    n = len(segments)
    while n and segments[n - 1][0] == tail:
        n -= 1
    merged = []
    for mode_id, dwell in segments[:n]:
        if merged and merged[-1][0] == mode_id:
            acc = merged[-1][1]
            total = acc + dwell
            if total - acc == dwell and total - dwell == acc:  # the sum is exact
                merged[-1] = (mode_id, total)
                continue
        merged.append((mode_id, dwell))
    return tuple(merged), tail
