"""The transport kernel and the closed-form transport energies, checked
against a copy of the sample-then-canonicalize kernel they replace and
against Gauss quadrature of the evolved norm; the internal constructor
the kernels build their states with, checked against the public one;
``evolve``'s list-carrying transport steps, checked against ``walk``; the
kernel's lists chained from step to step, which ``evolve`` does not check;
and ``evolve``'s lookup and domain check of each mode, once per call."""

import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from swlyap import (
    DiagonalGroupMode,
    HalfLineShiftMode,
    NormSpec,
    PiecewiseConstantFn,
    ShiftAmplifyMode,
    StructuralError,
    SwitchedSystem,
    SwitchingSignal,
    apply,
    canonicalize,
    evolve,
    matrix_mode,
    trajectory_cost,
)
from swlyap import switching
from swlyap.lyapunov import _mean_pow
from swlyap.semigroups import _check_domain, _transport, transport_events
from swlyap.state_space import _check_structure, lp_norm_pow
from swlyap.switching import _pieces, walk

DENOM = 64


# -- the replaced kernel: candidate breakpoints, midpoint samples, canonicalize --


def _rebuild(f, candidates, value_at):
    lo, hi = f.domain
    pts = sorted({c for c in candidates if lo < c < hi})
    edges = [lo] + pts + [hi]
    values = tuple(value_at(0.5 * (a + b)) for a, b in zip(edges[:-1], edges[1:]))
    return canonicalize(PiecewiseConstantFn(lo, hi, tuple(pts), values))


def reference_apply(mode, t, f):
    if t == 0.0:
        return canonicalize(f)
    if isinstance(mode, HalfLineShiftMode):
        if t >= f.domain_hi:
            return PiecewiseConstantFn.zero(0.0, f.domain_hi)
        return _rebuild(f, [b - t for b in f.edges()], lambda m: f.at(m + t))
    A, B = mode.domain
    if t >= B - A:
        return PiecewiseConstantFn.zero(A, B)
    c, g = mode.edge, mode.factor
    if mode.direction == "left":
        w_lo, w_hi, src = c - t, c, t
        cand = [b - t for b in f.edges()]
    else:
        w_lo, w_hi, src = c, c + t, -t
        cand = [b + t for b in f.edges()]

    def value_at(m):
        v = f.at(m + src)
        return v * g if (w_lo <= m < w_hi and v != 0.0) else v

    return _rebuild(f, cand + [w_lo, w_hi], value_at)


def reference_events(mode, f, d):
    ev = set()
    if isinstance(mode, ShiftAmplifyMode):
        A, B = mode.domain
        c = mode.edge
        if mode.direction == "left":
            for b in f.edges():
                ev.update((b - A, b - c))
            ev.add(c - A)
        else:
            for b in f.edges():
                ev.update((B - b, c - b))
            ev.add(B - c)
        ev.add(B - A)
    else:
        ev.update(f.edges())
    return sorted(t for t in ev if 0.0 < t < d)


def _squared_norm(mode, f, p):
    return lambda tau: lp_norm_pow(reference_apply(mode, tau, f), p) ** (2.0 / p)


def gl2_energy(mode, f, d, p):
    """The replaced energy: two-point Gauss on every stretch between events."""
    g = _squared_norm(mode, f, p)
    cuts = [0.0] + reference_events(mode, f, d) + [d]
    z = 1.0 / math.sqrt(3.0)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        h, m = 0.5 * (b - a), 0.5 * (a + b)
        total += h * (g(m - h * z) + g(m + h * z))
    return total


def fine_energy(mode, f, d, p):
    """Adaptive Gauss-Kronrod on every stretch between events."""
    g = _squared_norm(mode, f, p)
    cuts = [0.0] + reference_events(mode, f, d) + [d]
    return sum(
        quad(g, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, b in zip(cuts[:-1], cuts[1:])
    )


# -- random dyadic data ------------------------------------------------------------

DOMAINS = ((-1.0, 1.0), (0.0, 1.0), (0.0, 4.0))
FACTORS = (2.0, 0.5, math.sqrt(2.0), 3.0)


@st.composite
def dyadic_fn(draw, lo, hi):
    cells = draw(st.lists(st.integers(1, DENOM - 1), max_size=7, unique=True))
    breaks = tuple(lo + (hi - lo) * k / DENOM for k in sorted(cells))
    values = draw(
        st.lists(st.integers(-8, 8), min_size=len(breaks) + 1, max_size=len(breaks) + 1)
    )
    return canonicalize(PiecewiseConstantFn(lo, hi, breaks, tuple(float(v) for v in values)))


@st.composite
def transport_case(draw):
    """(mode, state, time) for either transport kind and either direction."""
    if draw(st.booleans()):
        lo, hi = 0.0, draw(st.sampled_from((1.0, 4.0, 12.0)))
        mode = HalfLineShiftMode()
    else:
        lo, hi = draw(st.sampled_from(DOMAINS))
        a, b = sorted(draw(st.lists(st.integers(0, DENOM), min_size=2, max_size=2)))
        span = hi - lo
        mode = ShiftAmplifyMode(
            lo,
            hi,
            draw(st.sampled_from(("left", "right"))),
            lo + span * a / DENOM,
            lo + span * b / DENOM,
            draw(st.sampled_from(FACTORS)),
        )
    f = draw(dyadic_fn(lo, hi))
    t = (hi - lo) * draw(st.integers(0, 2 * DENOM + 8)) / (2 * DENOM)
    return mode, f, t


# -- random non-dyadic data --------------------------------------------------------

FINITE = {"allow_nan": False, "allow_infinity": False}


def _with_neighbours(x):
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


@st.composite
def rough_transport_case(draw):
    """(mode, state, time) off the dyadic grid: float domains, window ends,
    factors, values and times up to just below the domain width.  Breaks sit on,
    and one float either side of, the edge, the edge a time away, and drawn
    points, so shifted breaks round onto each other and onto the window ends."""
    half_line = draw(st.booleans())
    lo = 0.0 if half_line else draw(st.floats(-3.0, 3.0, **FINITE))
    hi = lo + draw(st.floats(0.01, 5.0, **FINITE))
    width = hi - lo
    if draw(st.integers(0, 3)):
        t = width * draw(st.floats(0.0, 1.0, exclude_max=True, **FINITE))
    else:
        t = math.nextafter(width, 0.0)
    if half_line:
        mode = HalfLineShiftMode()
    else:
        a, b = sorted([draw(st.floats(lo, hi, **FINITE)), draw(st.floats(lo, hi, **FINITE))])
        direction = draw(st.sampled_from(("left", "right")))
        mode = ShiftAmplifyMode(lo, hi, direction, a, b, draw(st.floats(0.1, 10.0, **FINITE)))
    c = mode.edge
    seeds = [c, c + t if mode.direction == "left" else c - t]
    seeds += draw(st.lists(st.floats(lo, hi, **FINITE), max_size=4))
    breaks = tuple(sorted({x for s in seeds for x in _with_neighbours(s) if lo <= x <= hi}))
    levels = [0.0] + draw(st.lists(st.floats(-8.0, 8.0, **FINITE), min_size=2, max_size=5))
    values = draw(st.lists(st.sampled_from(levels), min_size=len(breaks) + 1,
                           max_size=len(breaks) + 1))
    return mode, canonicalize(PiecewiseConstantFn(lo, hi, breaks, tuple(values))), t


@st.composite
def off_grid_fn(draw, lo, hi):
    breaks = sorted(draw(st.lists(st.floats(lo, hi, **FINITE), max_size=6)))
    value = st.floats(-8.0, 8.0, **FINITE) | st.just(-0.0)
    values = draw(st.lists(value, min_size=len(breaks) + 1, max_size=len(breaks) + 1))
    return canonicalize(PiecewiseConstantFn(lo, hi, tuple(breaks), tuple(values)))


class TestKernelMatchesReference:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(transport_case())
    def test_single_step_exact(self, case):
        mode, f, t = case
        assert apply(mode, t, f) == reference_apply(mode, t, f)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(rough_transport_case())
    def test_single_step_exact_off_the_dyadic_grid(self, case):
        # reference and kernel both value a piece as f(m + shift), so equal exactly
        mode, f, t = case
        assert apply(mode, t, f) == reference_apply(mode, t, f)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(transport_case(), st.integers(0, 2 * DENOM))
    def test_composed_steps_exact(self, case, k):
        mode, f, t = case
        s = (f.domain_hi - f.domain_lo) * k / (4 * DENOM)
        got = apply(mode, s, apply(mode, t, f))
        assert got == reference_apply(mode, s, reference_apply(mode, t, f))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(transport_case())
    def test_events_unchanged(self, case):
        mode, f, t = case
        d = t + 0.5
        assert transport_events(mode, f, d) == reference_events(mode, f, d)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(transport_case())
    def test_result_is_canonical(self, case):
        mode, f, t = case
        out = apply(mode, t, f)
        assert canonicalize(out) is out


# -- the internal constructor -------------------------------------------------------


def assert_kernel_built(out):
    """``out`` holds Python floats in tuples, is canonical, and equals the
    function the public constructor builds from the same fields."""
    assert type(out.domain_lo) is float and type(out.domain_hi) is float
    for field in (out.breaks, out.values):
        assert type(field) is tuple and all(type(v) is float for v in field)
    assert canonicalize(out) is out
    assert PiecewiseConstantFn(out.domain_lo, out.domain_hi, out.breaks, out.values) == out


class TestInternalConstructor:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(transport_case())
    def test_transport_states(self, case):
        mode, f, t = case
        # t = 0 and t = the domain length are the kernel's two early exits
        for tau in (t, 0.0, f.domain_hi - f.domain_lo):
            assert_kernel_built(apply(mode, tau, f))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(transport_case(), st.sampled_from((0.0, 0.5, 3.0, 800.0)))
    def test_group_scaled_states(self, case, t):
        _, f, _ = case
        # e^{-800} underflows to 0, which merges every piece
        assert_kernel_built(apply(DiagonalGroupMode(1.0), t, f))

    def test_canonicalize_of_a_non_canonical_state(self):
        # zero-width pieces at both domain ends and inside, equal neighbours
        f = PiecewiseConstantFn(0.0, 1.0, (0.0, 0.25, 0.5, 0.5, 0.75, 1.0),
                                (4.0, 1.0, 1.0, 9.0, 2.0, 3.0, 5.0))
        out = canonicalize(f)
        assert out.breaks == (0.5, 0.75) and out.values == (1.0, 2.0, 3.0)
        assert_kernel_built(out)


PUBLIC = PiecewiseConstantFn
INTERNAL = PiecewiseConstantFn._from_floats
NAN, INF = math.nan, math.inf

# (id, lo, hi, breaks, values, message)
REJECTED = [
    ("break-above-domain", 0.0, 1.0, (0.5, 1.5), (1.0, 2.0, 3.0),
     "breakpoints must lie within the domain"),
    ("break-below-domain", 0.0, 1.0, (-0.5,), (1.0, 2.0), "breakpoints must be sorted"),
    ("unsorted-breaks", 0.0, 1.0, (0.75, 0.25), (1.0, 2.0, 3.0), "breakpoints must be sorted"),
    ("nan-break", 0.0, 1.0, (0.5, NAN), (1.0, 2.0, 3.0), "breakpoints must be finite"),
    ("infinite-break", 0.0, 1.0, (INF,), (1.0, 2.0), "breakpoints must be finite"),
    ("infinite-domain-end", 0.0, INF, (), (1.0,), "domain endpoints must be finite"),
    ("nan-domain-end", NAN, 1.0, (), (1.0,), "domain endpoints must be finite"),
    ("empty-domain", 1.0, 1.0, (), (1.0,), "domain_lo must be strictly below domain_hi"),
    ("reversed-domain", 1.0, 0.0, (), (1.0,), "domain_lo must be strictly below domain_hi"),
    ("value-count", 0.0, 1.0, (0.5,), (1.0,), "need 2 values for 1 breakpoints, got 1"),
    # two faults: the first in the old loop's order is the one reported
    ("outside-then-nan", 0.0, 1.0, (1.5, NAN), (1.0, 2.0, 3.0), "breakpoints must be finite"),
    ("unsorted-and-count", 0.0, 1.0, (0.75, 0.25), (1.0,),
     "need 3 values for 2 breakpoints, got 1"),
]


@pytest.mark.parametrize("build", [PUBLIC, INTERNAL], ids=["public", "internal"])
@pytest.mark.parametrize("lo, hi, breaks, values, message", [r[1:] for r in REJECTED],
                         ids=[r[0] for r in REJECTED])
def test_both_entry_points_reject_with_one_message(build, lo, hi, breaks, values, message):
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        build(lo, hi, breaks, values)


def closed_form_energy(mode, f, d, p):
    sys_ = SwitchedSystem((mode,), NormSpec(p))
    return trajectory_cost(sys_, SwitchingSignal((), 0), f, horizon=d)


def _horizon(f, t):
    return t + (f.domain_hi - f.domain_lo) / DENOM


class TestClosedFormEnergy:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=transport_case())
    def test_matches_two_point_gauss(self, p, case):
        mode, f, t = case
        d = _horizon(f, t)
        want = gl2_energy(mode, f, d, p)
        assert closed_form_energy(mode, f, d, p) == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=transport_case())
    def test_other_exponents_match_fine_quadrature(self, p, case):
        mode, f, t = case
        d = _horizon(f, t)
        want = fine_energy(mode, f, d, p)
        assert closed_form_energy(mode, f, d, p) == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_switched_signal_sums_segments(self):
        left = ShiftAmplifyMode(-1.0, 1.0, "left", -1.0, 0.0, 2.0)
        right = ShiftAmplifyMode(-1.0, 1.0, "right", 0.0, 1.0, 2.0)
        sys_ = SwitchedSystem((left, right), NormSpec(1.0))
        sig = SwitchingSignal(((0, 0.25), (1, 0.375), (0, 0.125)), 1)
        f = PiecewiseConstantFn(-1.0, 1.0, (-0.5, 0.125, 0.25), (1.0, -3.0, 2.0, 0.0))
        want, state = 0.0, f
        for mode_id, dwell in sig.segments + ((sig.tail_mode, 0.75),):
            mode = sys_.mode(mode_id)
            want += gl2_energy(mode, state, dwell, 1.0)
            state = reference_apply(mode, dwell, state)
        got = trajectory_cost(sys_, sig, f, horizon=1.5)
        assert got == pytest.approx(want, rel=1e-12)


class TestMeanPow:
    @pytest.mark.parametrize("q", [0.5, 2.0 / 3.0, 4.0 / 3.0, 2.0])
    def test_against_antiderivative(self, q):
        for sa, sb in ((1.0, 3.0), (3.0, 1.0), (0.0, 2.0), (2.0, 0.0), (0.25, 0.75)):
            want = (sb ** (q + 1) - sa ** (q + 1)) / ((q + 1) * (sb - sa))
            assert _mean_pow(sa, sb, q) == pytest.approx(want, rel=1e-14)

    def test_equal_and_nearly_equal_ends(self):
        assert _mean_pow(0.0, 0.0, 0.5) == 0.0
        assert _mean_pow(2.0, 2.0, 1.5) == 2.0**1.5
        # the mean of a nearly constant integrand is its midpoint value
        got = _mean_pow(1.0, 1.0 + 2e-9, 2.0 / 3.0)
        assert got == pytest.approx((1.0 + 1e-9) ** (2.0 / 3.0), rel=1e-15)

    def test_end_below_the_last_digit_of_the_other(self):
        # (hi - lo) / hi rounds to 1, where log1p(-1) has no value
        assert _mean_pow(1.0, 1e-300, 2.0 / 13.0) == 1.0 / (2.0 / 13.0 + 1.0)
        assert _mean_pow(1e-17, 1.0, 0.5) == 1.0 / 1.5


# -- evolve's list-carrying steps against walk ---------------------------------------


@st.composite
def switched_case(draw):
    """(system, signal, state, times): a left and a right ``ShiftAmplifyMode`` on
    one domain, or a ``HalfLineShiftMode`` and a right one on [0, hi], maybe
    with a ``DiagonalGroupMode``; a dyadic or an off-grid state; 0-12 segments;
    and the times 0, inside a segment, on a boundary, past every segment and
    past the domain length."""
    dyadic = draw(st.booleans())
    half_line = draw(st.booleans())
    if dyadic:
        lo, hi = (0.0, draw(st.sampled_from((1.0, 4.0)))) if half_line else draw(
            st.sampled_from(DOMAINS))
    else:
        lo = 0.0 if half_line else draw(st.floats(-3.0, 3.0, **FINITE))
        hi = lo + draw(st.floats(0.01, 5.0, **FINITE))
    width = hi - lo

    def point():
        if dyadic:
            return lo + width * draw(st.integers(0, DENOM)) / DENOM
        return draw(st.floats(lo, hi, **FINITE))

    def amplifier(direction):
        a, b = sorted((point(), point()))
        return ShiftAmplifyMode(lo, hi, direction, a, b, draw(st.sampled_from(FACTORS)))

    modes = [HalfLineShiftMode() if half_line else amplifier("left"), amplifier("right")]
    if draw(st.booleans()):
        modes.append(DiagonalGroupMode(draw(st.sampled_from((0.5, 1.0, math.log(2.0))))))
    f = draw(dyadic_fn(lo, hi) if dyadic else off_grid_fn(lo, hi))
    if dyadic:
        dwell = st.integers(1, DENOM).map(lambda k: width * k / DENOM)
    else:
        dwell = st.floats(width / 1000, width, **FINITE)
    mode_id = st.integers(0, len(modes) - 1)
    segments = draw(st.lists(st.tuples(mode_id, dwell), max_size=12))
    sig = SwitchingSignal(tuple(segments), draw(mode_id))
    ends = [0.0]
    for _, d in segments:
        ends.append(ends[-1] + d)
    times = [0.0, ends[-1] + 0.5 * width, ends[-1] + width * 1.25]
    if segments:
        i = draw(st.integers(1, len(segments)))
        times += [ends[i], 0.5 * (ends[i - 1] + ends[i])]
    return SwitchedSystem(tuple(modes), NormSpec(2.0)), sig, f, times


def bits(f):
    """The fields of ``f`` as hex strings, so that -0.0 and 0.0 differ."""
    return tuple(map(float.hex, (f.domain_lo, f.domain_hi, *f.breaks, *f.values)))


def walked(sys_, sig, t, x):
    """``walk``'s last ``end``, or ``x`` when it yields nothing."""
    for *_, x in walk(sys_, sig, t, x):
        pass
    return x


def outcome(run, *args):
    try:
        return bits(run(*args))
    except StructuralError as exc:
        return str(exc)


class TestEvolveCarriesLists:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(switched_case())
    def test_equals_walks_last_end(self, case):
        sys_, sig, f, times = case
        assert evolve(sys_, sig, 0.0, f) is f
        for t in times:
            got = evolve(sys_, sig, t, f)
            assert bits(got) == bits(walked(sys_, sig, t, f))
            assert_kernel_built(got)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(switched_case(), st.sampled_from(("domain", "half-line", "matrix")),
           st.integers(0, 12))
    def test_a_refusing_mode_fails_when_first_stepped(self, case, refusal, at):
        sys_, sig, f, times = case
        lo, hi = f.domain
        if refusal == "matrix":  # a matrix mode shares a system only with the group
            modes = (DiagonalGroupMode(1.0), matrix_mode([[-1.0]]))
            sys_ = SwitchedSystem(modes, NormSpec.euclidean())
            sig = SwitchingSignal(tuple((0, d) for _, d in sig.segments), 0)
            message = "matrix modes act on coordinate states"
        elif refusal == "half-line" and lo != 0.0:
            sys_ = SwitchedSystem(sys_.modes + (HalfLineShiftMode(),), sys_.norm)
            message = "half-line states must live on [0, hi]"
        else:
            other = ShiftAmplifyMode(lo, hi + 1.0, "left", lo, lo, 2.0)
            sys_ = SwitchedSystem(sys_.modes + (other,), sys_.norm)
            message = f"state domain {(lo, hi)} does not match mode domain {other.domain}"
        bad = sys_.n_modes - 1
        segments = list(sig.segments)
        if at < len(segments):  # the refusing mode's first piece: a segment, or the tail
            segments[at] = (bad, segments[at][1])
            sig = SwitchingSignal(tuple(segments), sig.tail_mode)
        else:
            at = len(segments)
            sig = SwitchingSignal(tuple(segments), bad)
        start = sum(d for _, d in segments[:at])
        for t in times + [start, start + 1e-9 * (hi - lo)]:
            got = outcome(evolve, sys_, sig, t, f)
            assert got == outcome(walked, sys_, sig, t, f)
            remaining = t  # what is left after the pieces before it, as walk counts
            for _, d in segments[:at]:
                remaining -= min(d, remaining)
            assert (got == message) == (remaining > 0.0)


class TestChainedKernelLists:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(switched_case())
    def test_each_steps_lists_are_canonical(self, case):
        # evolve hands _transport's lists to the next step without checking them
        sys_, sig, f, times = case
        lo, hi = f.domain
        breaks, values = f.breaks, f.values
        for mode_id, step in _pieces(sig, max(times)):
            mode = sys_.mode(mode_id)
            if isinstance(mode, DiagonalGroupMode):
                out = apply(mode, step, PiecewiseConstantFn._from_floats(
                    lo, hi, tuple(breaks), tuple(values)))
                breaks, values = out.breaks, out.values
                continue
            breaks, values = _transport(mode, step, lo, hi, breaks, values)
            _check_structure(lo, hi, breaks, values)
            assert all(a != b for a, b in zip(values, values[1:]))
            built = PiecewiseConstantFn._from_floats(lo, hi, tuple(breaks), tuple(values))
            assert canonicalize(built) is built


class TestEvolveChecksOncePerCall:
    def counted(self, monkeypatch, modes):
        """A system of ``modes`` whose ``mode`` calls, and the calls of
        ``_check_domain`` that ``evolve`` makes, are counted by mode id."""
        calls = {"mode": Counter(), "domain": Counter()}

        class CountingSystem(SwitchedSystem):
            def mode(self, mode_id):
                calls["mode"][mode_id] += 1
                return super().mode(mode_id)

        sys_ = CountingSystem(modes, NormSpec(2.0))

        def check_domain(mode, lo, hi):
            calls["domain"][sys_.modes.index(mode)] += 1
            return _check_domain(mode, lo, hi)

        monkeypatch.setattr(switching, "_check_domain", check_domain)
        return sys_, calls

    def test_each_mode_once_over_twelve_segments(self, monkeypatch):
        left = ShiftAmplifyMode(-1.0, 1.0, "left", -1.0, 0.0, 2.0)
        right = ShiftAmplifyMode(-1.0, 1.0, "right", 0.0, 0.5, 0.5)
        sys_, calls = self.counted(monkeypatch, (left, right))
        sig = SwitchingSignal(tuple((k % 2, 0.125) for k in range(12)), 0)
        f = PiecewiseConstantFn(-1.0, 1.0, (-0.5, 0.25), (1.0, -3.0, 2.0))
        want = walked(SwitchedSystem(sys_.modes, sys_.norm), sig, 2.0, f)
        assert bits(evolve(sys_, sig, 2.0, f)) == bits(want)
        assert calls == {"mode": Counter({0: 1, 1: 1}), "domain": Counter({0: 1, 1: 1})}

    def test_only_the_modes_reached(self, monkeypatch):
        # the group is resolved once and never domain-checked; mode 1 is never reached
        left = ShiftAmplifyMode(0.0, 1.0, "left", 0.0, 0.5, 2.0)
        right = ShiftAmplifyMode(0.0, 1.0, "right", 0.5, 1.0, 2.0)
        sys_, calls = self.counted(monkeypatch, (left, right, DiagonalGroupMode(1.0)))
        sig = SwitchingSignal(tuple((2 * (k % 2), 0.0625) for k in range(12)) + ((1, 1.0),), 1)
        evolve(sys_, sig, 0.75, PiecewiseConstantFn.indicator(0.0, 1.0, 0.25, 0.5))
        assert calls == {"mode": Counter({0: 1, 2: 1}), "domain": Counter({0: 1})}
