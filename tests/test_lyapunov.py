import math
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from swlyap import (
    ContractViolation,
    DiagonalGroupMode,
    EstimationError,
    NormSpec,
    PiecewiseConstantFn,
    SignalFamily,
    SwitchedSystem,
    SwitchingSignal,
    apply,
    augment_system,
    distinct_trajectories,
    enumerate_family,
    euclidean_state,
    evolve,
    family_max,
    generalized_derivative,
    lp_norm,
    matrix_mode,
    family_size,
    operator_norm_witness,
    segment_energy,
    shift_signal,
    state_norm,
    trajectory_cost,
    v_sup,
    v_tilde,
    v_tilde_single_mode,
)
from swlyap import lyapunov, semigroups, switching
from swlyap.certificates import _KAPPA_TOL, condition_report
from swlyap.lyapunov import DEFAULT_HORIZON, DERIVATIVE_STEPS
from swlyap.presets import (
    blowup_transport_pair,
    cascade_system,
    commuting_diag_pair,
    scalar_mode_system,
)
from swlyap.switching import walk

from oracle_quadrature import adaptive_simpson_energy
from test_state_space import random_dyadic_fn

SCALARS = scalar_mode_system((-1.0, -2.0))
CONST0 = SwitchingSignal((), 0)


def family_value(sys_, x, fam):
    """The unrefined family value: v_sup's scan without its dwell refinement."""
    return family_max(sys_, enumerate_family(fam), x, DEFAULT_HORIZON)[1]


class TestTrajectoryCost:
    def test_scalar_half(self):
        x = euclidean_state([1.0])
        val = trajectory_cost(SCALARS, CONST0, x, horizon=40.0)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_nilpotent_mode_zero_tail(self):
        sys_ = blowup_transport_pair()
        f = PiecewiseConstantFn.indicator(-1.0, 1.0, -0.25, 0.5)
        val = trajectory_cost(sys_, CONST0, f, horizon=2.5)
        assert math.isfinite(val) and val > 0
        # the mode is dead from t = 2, so the half unit past it adds nothing
        assert val == trajectory_cost(sys_, CONST0, f, horizon=2.0)

    def test_exact_transport_energy(self):
        # left doubler, witness right of the hinge: the L^1 norm along time is
        #   0.25 on [0, .25], then t while crossing, 0.5 once fully crossed,
        #   and 2*(1.5 - t) while exiting the domain at -1; zero from t = 1.5
        sys_ = blowup_transport_pair()
        f = PiecewiseConstantFn.indicator(-1.0, 1.0, 0.25, 0.5)
        val = trajectory_cost(sys_, CONST0, f, horizon=2.0)
        exact = (
            0.25 * 0.25**2
            + (0.5**3 - 0.25**3) / 3.0
            + 0.75 * 0.5**2
            + 4.0 * 0.25**3 / 3.0
        )
        assert val == pytest.approx(exact, rel=1e-12)

    def test_cascade_energy_bounded(self):
        rng = np.random.default_rng(21)
        sys_ = cascade_system(6, 2.0)
        for _ in range(10):
            segs = tuple(
                (int(rng.integers(0, 6)), float(rng.integers(1, 32)) / 64.0)
                for _ in range(int(rng.integers(0, 5)))
            )
            sig = SwitchingSignal(segs, int(rng.integers(0, 6)))
            f = random_dyadic_fn(rng, 0.0, 1.0)
            if f.is_zero():
                continue
            val = trajectory_cost(sys_, sig, f, horizon=1.25)
            assert val <= 1.5 * lp_norm(f, sys_.norm) ** 2 + 1e-9

    def test_contract_violations(self):
        x = euclidean_state([1.0])
        with pytest.raises(ContractViolation):
            trajectory_cost(SCALARS, CONST0, x, horizon=0.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @example(mu=1e-320, d=10.0)
    @example(mu=1e-12, d=10.0)
    @example(mu=1e-9, d=10.0)
    @given(st.floats(min_value=5e-324, max_value=1e-6), st.floats(min_value=1e-3, max_value=100.0))
    def test_scalar_group_energy_is_the_1x1_matrix_energy(self, mu, d):
        # integral(0, d) e^{-2 mu t} dt = d - mu d^2 + (2/3) mu^2 d^3 - ..., where the
        # omitted terms are below 1e-18 of d once mu d < 1e-6
        assume(mu * d < 1e-6)
        x = euclidean_state([1.0])
        group = SwitchedSystem((DiagonalGroupMode(mu),), NormSpec.euclidean())
        val = trajectory_cost(group, CONST0, x, d)
        assert val == trajectory_cost(scalar_mode_system((-mu,)), CONST0, x, d)
        assert val == pytest.approx(d - mu * d * d + 2.0 / 3.0 * mu * mu * d**3, rel=1e-12)


@st.composite
def matrix_segments(draw):
    """``(A, d, x)``: a 2x2 to 4x4 mode, a dwell in [1e-3, 8] and a nonzero state.

    A random matrix is shifted to a drawn spectral abscissa: Hurwitz in
    [-3, -0.01], unstable in [0.01, 1], or non-normal (its strictly upper part
    scaled by up to 20) anywhere in [-3, 1].
    """
    n = draw(st.integers(2, 4))
    unit = st.floats(-1.0, 1.0)
    M = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
    kind = draw(st.sampled_from(("hurwitz", "unstable", "non-normal")))
    if kind == "non-normal":
        M = np.diag(np.diag(M)) + draw(st.floats(1.0, 20.0)) * np.triu(M, 1)
    lo, hi = {"hurwitz": (-3.0, -0.01), "unstable": (0.01, 1.0), "non-normal": (-3.0, 1.0)}[kind]
    A = M + (draw(st.floats(lo, hi)) - np.linalg.eigvals(M).real.max()) * np.eye(n)
    x = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    assume(np.abs(x).max() > 1e-3)
    return A, draw(st.floats(1e-3, 8.0)), x


def matrix_energy(A, d, x):
    """``_segment_energy`` of one matrix mode over ``d`` from ``x``."""
    mode = matrix_mode(A)
    sys_ = SwitchedSystem((mode,), NormSpec.euclidean())
    return lyapunov._segment_energy(sys_.norm, mode, d, x, apply(mode, d, x))


class TestMatrixEnergy:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @example(case=(np.diag([-1000.0, -1000.0]), 1.0, np.array([1.0, -0.5])))
    @given(matrix_segments())
    def test_matches_the_gram_closed_form(self, case):
        A, d, x = case
        want = float(x @ segment_energy(A, d) @ x)
        assert matrix_energy(A, d, x) == pytest.approx(want, rel=1e-8)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(matrix_segments())
    def test_keeps_the_recursive_partition(self, case):
        # the recursion over scipy's expm at every node, against one step
        # exponential per level: a changed partition would move the result by
        # up to the 1e-9 tolerance, rounding only by far less
        A, d, x = case
        assert matrix_energy(A, d, x) == pytest.approx(adaptive_simpson_energy(A, d, x), rel=1e-10)

    @pytest.mark.xfail(strict=True, reason="adaptive Simpson accepts an interval whose three- "
                       "and five-point estimates agree by chance; ROADMAP item 2's closed-form "
                       "matrix energies remove the rule")
    def test_non_normal_decay_within_1e_8(self):
        # _segment_energy gives 0.955885417507586 against 0.9558859663159902,
        # 5.7e-7 relative, far past its 1e-9 tolerance
        A, x = np.array([[-1.9, 1.5], [0.9, -1.3]]), np.array([0.0, 1.0])
        want = float(x @ segment_energy(A, 5.0) @ x)
        assert matrix_energy(A, 5.0, x) == pytest.approx(want, rel=1e-8)

    @pytest.mark.xfail(strict=True, reason="adaptive Simpson accepts an interval whose three- "
                       "and five-point estimates agree by chance; ROADMAP item 2's closed-form "
                       "matrix energies remove the rule")
    def test_normal_decay_within_1e_8(self):
        # a normal matrix: _segment_energy gives 0.21621621894986642 against
        # (1 - e^{-34.6875}) / 4.625 = 0.21621621621621603, 1.26e-8 relative
        A, x = -2.3125 * np.eye(3), np.array([0.0, 0.0, 1.0])
        want = -math.expm1(-2.0 * 2.3125 * 7.5) / (2.0 * 2.3125)
        assert matrix_energy(A, 7.5, x) == pytest.approx(want, rel=1e-8)

    def test_zero_state_is_exactly_zero(self):
        A = np.array([[-1.0, 3.0], [0.0, 0.5]])
        assert matrix_energy(A, 2.0, np.zeros(2)) == 0.0

    def test_fast_non_normal_oscillation_is_quick(self):
        # about 50 periods of an elliptic orbit whose axes are about 32:1
        A = np.array([[0.0, 1000.0], [-1.0, 0.0]])
        x = np.array([1.0, 0.5])
        start = time.perf_counter()
        val = matrix_energy(A, 10.0, x)
        assert time.perf_counter() - start < 1.0
        assert val == pytest.approx(float(x @ segment_energy(A, 10.0) @ x), rel=1e-8)

    def test_one_apply_per_piece_and_at_most_39_exponentials(self, monkeypatch):
        # per piece: walk's one apply, whose e^{dA} is one exponential, one for
        # the first midpoint and one step exponential per Simpson level (levels
        # 0..36); a fresh system's memos start empty, so each is computed here
        def system():
            return SwitchedSystem(
                (matrix_mode([[-0.1, -1.0], [2.0, -0.1]]),
                 matrix_mode([[-0.1, -2.0], [1.0, -0.1]])),
                NormSpec.euclidean(),
            )

        sig = SwitchingSignal(((0, 0.5), (1, 1.0), (0, 0.75)), 1)
        x = euclidean_state([1.0, -0.5])
        pieces = len(list(walk(system(), sig, 4.0, x)))
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for module in (semigroups, switching, lyapunov):
            monkeypatch.setattr(module, "apply", counted("apply", module.apply))
        monkeypatch.setattr(semigroups, "expm", counted("expm", semigroups.expm))
        trajectory_cost(system(), sig, x, 4.0)
        assert pieces == 4 and calls["apply"] == pieces
        assert pieces < calls["expm"] <= 39 * pieces


class TestExpMemo:
    """``MatrixMode.exp``: each e^{tA} is ``expm(A * t)``, computed once per mode."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(matrix_segments(), st.floats(0.0, 8.0))
    def test_read_only_and_bit_equal_to_expm(self, case, t):
        mode = matrix_mode(case[0])
        for s in (case[1], t, case[1]):  # the last is read from the memo
            E = mode.exp(s)
            assert not E.flags.writeable
            assert E.tobytes() == semigroups.expm(mode.matrix * s).tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(matrix_segments(), st.floats(0.0, 1.0))
    def test_warm_memo_gives_the_fresh_cost(self, case, shift):
        A, d, x = case

        def system():
            n = len(A)
            return SwitchedSystem(
                (matrix_mode(A), matrix_mode(A.T - shift * np.eye(n))), NormSpec.euclidean()
            )

        sig = SwitchingSignal(((0, d), (1, 0.5 * d)), 0)
        warm = system()
        for y in (x[::-1], x):
            trajectory_cost(warm, sig, y, 2.0 * d)
        assert trajectory_cost(warm, sig, x, 2.5 * d) == trajectory_cost(system(), sig, x, 2.5 * d)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(matrix_segments(), st.integers(1, 4),
           st.lists(st.floats(0.0, 8.0), min_size=1, max_size=12))
    def test_past_its_bound_the_memo_stays_bounded_and_exact(self, case, bound, times):
        mode = matrix_mode(case[0])
        with mock.patch.object(semigroups, "_EXP_MEMO_MAX", bound):
            for t in times + times[::-1]:
                assert mode.exp(t).tobytes() == semigroups.expm(mode.matrix * t).tobytes()
                assert len(mode._exps) <= bound


class TestVSup:
    def test_single_mode_value(self):
        sys_ = scalar_mode_system((-1.0,))
        est = v_sup(sys_, euclidean_state([1.0]))
        assert est.value == pytest.approx(0.5, abs=1e-6)
        assert est.witness == SwitchingSignal((), 0)

    def test_pair_prefers_slow_mode(self):
        est = v_sup(SCALARS, euclidean_state([1.0]))
        assert est.value == pytest.approx(0.5, abs=1e-3)
        assert est.witness == SwitchingSignal((), 0)

    def test_pair_exhaustive_three_switch_family(self):
        # 518 signals; every mixture decays faster, the constant slow mode wins
        fam = SignalFamily((0.25, 0.5, 1.0), 3, (0, 1))
        witness, value = family_max(
            SCALARS, enumerate_family(fam), euclidean_state([1.0]), DEFAULT_HORIZON
        )
        assert value == pytest.approx(0.5, abs=1e-3)
        assert witness == SwitchingSignal((), 0)

    def test_zero_state(self):
        est = v_sup(SCALARS, euclidean_state([0.0]))
        assert est.value == 0.0

    def test_homogeneity_exact_for_power_of_two(self):
        rng = np.random.default_rng(31)
        fam = SignalFamily((0.5, 1.0), 1, (0, 1))
        sys_ = commuting_diag_pair()
        for _ in range(5):
            x = euclidean_state(rng.standard_normal(2))
            base_sig, base = family_max(sys_, enumerate_family(fam), x, DEFAULT_HORIZON)
            for c in (2.0, -2.0, 0.5):
                y = euclidean_state(c * x)
                sig, scaled = family_max(sys_, enumerate_family(fam), y, DEFAULT_HORIZON)
                assert scaled == c * c * base
                assert sig == base_sig

    def test_convexity_of_sqrt(self):
        rng = np.random.default_rng(32)
        fam = SignalFamily((0.5, 1.0), 1, (0, 1))
        sys_ = commuting_diag_pair()
        for _ in range(10):
            x = euclidean_state(rng.standard_normal(2))
            y = euclidean_state(rng.standard_normal(2))
            lam = float(rng.uniform())
            mix = euclidean_state(lam * x + (1 - lam) * y)
            sq = math.sqrt(family_value(sys_, mix, fam))
            bound = lam * math.sqrt(family_value(sys_, x, fam)) + (
                1 - lam
            ) * math.sqrt(family_value(sys_, y, fam))
            assert sq <= bound + 1e-9

    def test_each_family_signal_is_integrated_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return trajectory_cost(*args, **kwargs)

        monkeypatch.setattr(lyapunov, "trajectory_cost", counting)
        sys_ = commuting_diag_pair()
        x = euclidean_state([1.0, 0.5])
        fam = SignalFamily((0.5, 1.0), 1, (0, 1))
        est = v_sup(sys_, x, fam)
        # the constant slow mode wins, so there are no dwells to refine
        assert est.witness == CONST0
        assert len(calls) == family_size(fam)
        # the value is the witness's energy from the scan
        assert est.value == trajectory_cost(sys_, est.witness, x, est.horizon)

    def test_refinement_never_decreases(self):
        sys_ = commuting_diag_pair()
        x = euclidean_state([1.0, 0.5])
        fam = SignalFamily((0.5,), 1, (0, 1))
        rough = family_value(sys_, x, fam)
        fine = v_sup(sys_, x, fam)
        assert fine.value >= rough


class TestVTilde:
    def test_single_mode_matches_trajectory_cost(self):
        sys_ = scalar_mode_system((-1.0,))
        x = euclidean_state([1.0])
        est = v_tilde(sys_, x, SignalFamily((1.0,), 0, (0,)), horizon=10.0)
        cost = trajectory_cost(sys_, CONST0, x, horizon=10.0)
        assert est.value == pytest.approx(cost, rel=1e-4)

    def test_zero_state(self):
        est = v_tilde(SCALARS, euclidean_state([0.0]), horizon=5.0)
        assert est.value == 0.0

    def test_lower_bound_within_the_family_integral(self):
        # the family's integral is 0.5 (1 - e^{-20}) = 0.4999999989694232; a
        # trapezoid rule on 801 points gave 0.5000260403647728 here
        sys_ = SwitchedSystem((matrix_mode([[-1.0]]),), NormSpec.euclidean())
        est = v_tilde(sys_, euclidean_state([1.0]), SignalFamily((1.0,), 0, (0,)), horizon=10.0)
        want = -0.5 * math.expm1(-20.0)
        assert est.to_json()["bound_direction"] == "lower"
        assert est.value <= want * (1.0 + 1e-15)
        assert est.value == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_pointwise_sup_dominated_by_slow_mode(self):
        est = v_tilde(SCALARS, euclidean_state([1.0]), horizon=10.0)
        assert est.value == pytest.approx(0.5, abs=2e-3)

    def test_dominates_v_sup_on_same_family(self):
        sys_ = commuting_diag_pair()
        fam = SignalFamily((0.5, 1.0), 1, (0, 1))
        rng = np.random.default_rng(33)
        for _ in range(5):
            x = euclidean_state(rng.standard_normal(2))
            lo = family_value(sys_, x, fam)
            hi = v_tilde(sys_, x, fam, horizon=10.0).value
            assert hi >= lo - 1e-3 * max(1.0, lo)

    @staticmethod
    def raw_family_v_tilde(sys_, x, fam, horizon):
        """``(value, witness)`` of v_tilde's cell rule over every raw family signal: the
        fsum over the cells of each cell's largest energy, that energy being trajectory_cost's
        on the cell from the state evolved from t = 0 to its start, and the earliest signal
        with the largest total."""
        n = lyapunov._CELLS
        edges = [horizon * k / n for k in range(n)] + [horizon]
        signals = list(enumerate_family(fam))
        cells = [[trajectory_cost(sys_, shift_signal(sig, a), evolve(sys_, sig, a, x), b - a)
                  for a, b in zip(edges, edges[1:])] for sig in signals]
        totals = [math.fsum(energies) for energies in cells]
        return math.fsum(map(max, zip(*cells))), signals[totals.index(max(totals))]

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_modes=st.integers(1, 3),
           depth=st.integers(1, 2), dwells=st.sampled_from([(0.25,), (0.125, 0.375)]))
    def test_dyadic_cascade_equals_raw_family(self, seed, n_modes, depth, dwells):
        # the cell width 1.5625 / 800 = 2^-9 keeps every time dyadic and puts every
        # switch on a cell edge, so a repeated trajectory evolves bit for bit as its
        # first signal, and a cell's energy is the same from either route
        fam = SignalFamily(dwells, depth, tuple(range(n_modes)))
        assume(family_size(fam) <= 24)
        rng = np.random.default_rng(seed)
        sys_, f = cascade_system(n_modes), random_dyadic_fn(rng, 0.0, 1.0)
        est = v_tilde(sys_, f, fam, horizon=1.5625)
        assert (est.value, est.witness) == self.raw_family_v_tilde(sys_, f, fam, 1.5625)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           dwells=st.sampled_from([(0.5, 1.0), (0.25, 0.5, 0.75)]))
    def test_commuting_pair_matches_raw_family(self, seed, dwells):
        sys_ = commuting_diag_pair()
        x = euclidean_state(np.random.default_rng(seed).standard_normal(2))
        fam = SignalFamily(dwells, 1, (0, 1))
        value, _ = self.raw_family_v_tilde(sys_, x, fam, 5.0)
        assert v_tilde(sys_, x, fam, horizon=5.0).value == pytest.approx(value, rel=1e-12)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(("group", "matrix", "transport")), seed=st.integers(0, 2**32 - 1),
           dwells=st.sampled_from([(0.25,), (0.3,), (0.25, 0.7)]), depth=st.integers(1, 2))
    def test_between_the_family_max_and_finer_cells(self, kind, seed, dwells, depth):
        # the family's largest exact energy <= v_tilde <= v_tilde on cells 16 times
        # finer; the kernels here are exact, so only rounding separates the sides.
        # The finer side runs the production cell count and the coarser a 16th of
        # it; a dwell of 0.3 or 0.7 puts switches inside cells
        fam = SignalFamily(dwells, depth, (0, 1))
        assume(family_size(fam) <= 30)
        rng = np.random.default_rng(seed)
        if kind == "transport":  # dyadic p = 2 cascade; its cells stay dyadic
            sys_, x, horizon = cascade_system(2), random_dyadic_fn(rng, 0.0, 1.0), 1.5625
        else:
            horizon, x = float(rng.uniform(0.5, 4.0)), euclidean_state(rng.standard_normal(2))
            if kind == "group":
                modes = tuple(DiagonalGroupMode(float(mu)) for mu in rng.uniform(0.1, 3.0, 2))
            else:
                modes, x = tuple(matrix_mode([[float(a)]]) for a in rng.uniform(-2.0, 0.5, 2)), x[:1]
            sys_ = SwitchedSystem(modes, NormSpec.euclidean())
        value = v_tilde(sys_, x, fam, horizon).value
        assert family_max(sys_, enumerate_family(fam), x, horizon)[1] <= value * (1.0 + 1e-12)
        with mock.patch.object(lyapunov, "_CELLS", lyapunov._CELLS // 16):
            assert v_tilde(sys_, x, fam, horizon).value <= value * (1.0 + 1e-12)


class TestVTildeSingleMode:
    def test_scalar_closed_form(self):
        # the sup integral is 0.5 (1 - e^{-20}); a running max over 2,001 grid
        # points integrated by the trapezoid rule gave 0.50000417 here
        want = -0.5 * math.expm1(-20.0)
        val = v_tilde_single_mode(matrix_mode([[-1.0]]), 1.0, euclidean_state([1.0]))
        assert val <= want * (1.0 + 1e-15)
        assert val == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("a,mu", [(-1.0, 1.0), (-0.5, 1.0), (0.0, 2.0), (0.3, 1.0),
                                      (-1.5, 1.0), (-3.0, 0.5), (-2.0, 1e-3)])
    def test_closed_form_in_both_regimes(self, a, mu):
        # on [[a]] from x = 1, max over s <= tau of e^{2 mu (s - tau)} e^{2 a s} is
        # e^{2 a tau} when a + mu >= 0 and e^{-2 mu tau} when a + mu < 0
        rate = a if a + mu >= 0.0 else -mu
        want = 10.0 if rate == 0.0 else math.expm1(20.0 * rate) / (2.0 * rate)
        val = v_tilde_single_mode(matrix_mode([[a]]), mu, euclidean_state([1.0]), 10.0)
        assert val == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_zero_state(self):
        assert v_tilde_single_mode(matrix_mode([[-1.0]]), 1.0, euclidean_state([0.0])) == 0.0

    def test_matches_augmented_two_mode_v_tilde(self):
        mode = matrix_mode([[-1.0]])
        x = euclidean_state([1.0])
        direct = v_tilde_single_mode(mode, 1.0, x)
        aug = augment_system(SwitchedSystem((mode,), NormSpec.euclidean()), 1.0)
        fam = SignalFamily((0.5, 1.0), 1, (0, 1))
        both = v_tilde(aug, x, fam, horizon=10.0)
        assert direct == pytest.approx(both.value, abs=5e-3)

    def test_mu_must_be_positive(self):
        with pytest.raises(ContractViolation):
            v_tilde_single_mode(matrix_mode([[-1.0]]), 0.0, euclidean_state([1.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu,horizon", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf), (1.0, math.nan), (1.0, -1.0),
    ])
    def test_rate_and_horizon_are_checked(self, mu, horizon):
        with pytest.raises(ContractViolation):
            v_tilde_single_mode(matrix_mode([[-1.0]]), mu, euclidean_state([1.0]), horizon)


class TestGeneralizedDerivative:
    def test_quadratic_evaluator_scalar(self):
        # quotient (e^{-2t} - 1) / (2t) approaches -1 from above as t shrinks
        v = lambda y: 0.5 * float(y @ y)
        est = generalized_derivative(v, SCALARS, 0, euclidean_state([1.0]))
        assert -1.0 <= est <= -1.0 + 1e-5

    def test_zero_state(self):
        v = lambda y: 0.5 * float(y @ y)
        est = generalized_derivative(v, SCALARS, 0, euclidean_state([0.0]))
        assert est == 0.0

    def test_fast_mode_decays_strictly_faster(self):
        fam = SignalFamily.default(2)
        v = lambda y: family_value(SCALARS, y, fam)
        est = generalized_derivative(v, SCALARS, 1, euclidean_state([1.0]))
        assert est <= -1.0 - 0.5

    def test_given_value_at_x_is_not_reevaluated(self):
        seen = []

        def v(y):
            seen.append(float(y[0]))
            return 0.5 * float(y @ y)

        x = euclidean_state([1.0])
        own = generalized_derivative(v, SCALARS, 0, x)
        assert seen[0] == 1.0 and len(seen) == len(DERIVATIVE_STEPS) + 1
        seen.clear()
        given = generalized_derivative(v, SCALARS, 0, x, v0=v(x))
        assert len(seen) == len(DERIVATIVE_STEPS) + 1  # the v(x) above, then one per step
        assert given == own

    def test_fast_rotating_pair_fails_the_decrease_check(self):
        # certify's evaluator at x = (0.6, 0.8): mode 0's minimum quotient is -21.1, its
        # quotient at t = 2^-20 +265.5; mode 1's are -119.3 and +97.4
        sys_ = SwitchedSystem((matrix_mode([[-0.1, -20.0], [40.0, -0.1]]),
                               matrix_mode([[-0.1, -40.0], [20.0, -0.1]])), NormSpec.euclidean())
        fam = SignalFamily((0.5, 1.0), 1, (0, 1))
        signals = tuple(distinct_trajectories(enumerate_family(fam)))
        v = lambda y: family_max(sys_, signals, y, 4.0)[1]
        x = euclidean_state([0.6, 0.8])
        threshold = -float(x @ x) * (1.0 - _KAPPA_TOL)
        for j in range(2):
            assert generalized_derivative(v, sys_, j, x) > threshold

    def test_no_sample_passes_while_its_smallest_step_quotient_is_above_the_threshold(self):
        # certify's evaluator and check (dwells 0.5 and 1, one switch, H = 4) on random
        # rotation-dominated pairs, Hurwitz or not, at one random unit state each
        rng = np.random.default_rng(18)
        fam = SignalFamily((0.5, 1.0), 1, (0, 1))
        signals = tuple(distinct_trajectories(enumerate_family(fam)))
        rotation, h = np.array([[0.0, -1.0], [1.0, 0.0]]), DERIVATIVE_STEPS[-1]
        verdicts, hurwitz = set(), set()
        for _ in range(10):
            mats = [rng.standard_normal((2, 2)) + rng.uniform(-30.0, 30.0) * rotation
                    - rng.uniform(0.0, 3.0) * np.eye(2) for _ in range(2)]
            hurwitz.add(all(np.linalg.eigvals(a).real.max() < 0.0 for a in mats))
            sys_ = SwitchedSystem(tuple(matrix_mode(a.tolist()) for a in mats),
                                  NormSpec.euclidean())
            v = lambda y, sys_=sys_: family_max(sys_, signals, y, 4.0)[1]
            x = rng.standard_normal(2)
            x = euclidean_state(x / np.linalg.norm(x))
            passed = condition_report(sys_, v, [x], fam).derivative_ok
            verdicts.add(passed)
            quotients = [(v(apply(mode, h, x)) - v(x)) / h for mode in sys_.modes]
            assert not passed or max(quotients) <= -float(x @ x) * (1.0 - _KAPPA_TOL), (mats, x)
        assert verdicts == hurwitz == {True, False}


class TestAugmentation:
    def test_constant_group_signal_scales(self):
        aug = augment_system(SCALARS, 1.0)
        x = euclidean_state([3.0])
        out = evolve(aug, SwitchingSignal((), 2), 1.5, x)
        assert out[0] == pytest.approx(3.0 * math.exp(-1.5), rel=1e-14)

    def test_mixed_signal_picks_up_group_factor(self):
        aug = augment_system(commuting_diag_pair(), 0.5)
        x = euclidean_state([1.0, -2.0])
        with_group = SwitchingSignal(((2, 0.75), (0, 0.5)), 1)
        without = SwitchingSignal(((0, 0.5),), 1)
        t = 2.0
        lhs = evolve(aug, with_group, t, x)
        rhs = math.exp(-0.5 * 0.75) * evolve(aug, without, t - 0.75, x)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_double_augmentation_commutes(self):
        aug12 = augment_system(augment_system(SCALARS, 1.0), 2.0)
        aug21 = augment_system(augment_system(SCALARS, 2.0), 1.0)
        x = euclidean_state([1.0])
        sig12 = SwitchingSignal(((2, 0.5), (3, 0.25)), 0)
        sig21 = SwitchingSignal(((3, 0.5), (2, 0.25)), 0)
        # mode ids 2/3 swap roles between the two systems; net scalar factor equal
        out12 = evolve(aug12, sig12, 1.0, x)
        out21 = evolve(aug21, sig21, 1.0, x)
        assert np.allclose(out12, out21, rtol=1e-14)

    def test_lower_bound_after_augmentation(self):
        rng = np.random.default_rng(34)
        aug = augment_system(commuting_diag_pair(), 1.0)
        fam = SignalFamily((0.5, 1.0), 1, (0, 1, 2))
        for _ in range(10):
            x = euclidean_state(rng.standard_normal(2))
            assert family_value(aug, x, fam) >= 0.5 * state_norm(x, aug.norm) ** 2 - 1e-6

    def test_invalid_mu(self):
        with pytest.raises(ContractViolation):
            augment_system(SCALARS, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_times_outside_zero_to_infinity_are_refused(t):
    transport = blowup_transport_pair()
    f = PiecewiseConstantFn.indicator(-1.0, 1.0, -0.25, 0.5)
    x = euclidean_state([1.0, 0.5])
    for mode, state in ((transport.modes[0], f), (DiagonalGroupMode(1.0), x),
                        (commuting_diag_pair().modes[0], x)):
        with pytest.raises(ContractViolation):
            apply(mode, t, state)
    calls = (
        lambda: list(walk(transport, CONST0, t, f)),
        lambda: evolve(transport, CONST0, t, f),
        lambda: operator_norm_witness(transport, CONST0, t, [f]),
        lambda: shift_signal(SwitchingSignal(((0, 1.0),), 1), t),
        lambda: trajectory_cost(transport, CONST0, f, t),
        lambda: v_sup(SCALARS, x[:1], horizon=t),
        lambda: v_tilde(SCALARS, x[:1], horizon=t),
    )
    for call in calls:
        with pytest.raises(ContractViolation):
            call()


class TestNonFiniteEnergies:
    def test_scalar_energy_overflow(self):
        # e^{40 t} itself stays finite to t = 10, its energy e^{80 t} does not
        sys_ = scalar_mode_system((40.0,))
        with pytest.raises(EstimationError, match="trajectory energy is not finite"):
            trajectory_cost(sys_, CONST0, euclidean_state([1.0]), 10.0)

    def test_non_finite_simpson_step_fails_fast(self):
        sys_ = SwitchedSystem((matrix_mode([[300.0, 0.0], [0.0, 1.0]]),), NormSpec.euclidean())
        with pytest.raises(EstimationError, match="not finite"):
            trajectory_cost(sys_, CONST0, euclidean_state([1.0, 1.0]), 10.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_matrix_integrand_names_its_interval(self):
        # e^{300 t} is finite at t = 1.2, its square is not
        sys_ = SwitchedSystem((matrix_mode([[300.0, 0.0], [0.0, 1.0]]),), NormSpec.euclidean())
        with pytest.raises(EstimationError, match=r"integrand is not finite on \[0, 1.2\]"):
            trajectory_cost(sys_, CONST0, euclidean_state([1.0, 1.0]), 1.2)

    def test_finite_terms_with_infinite_sum(self):
        sys_ = scalar_mode_system((1.0,))
        with pytest.raises(EstimationError, match="trajectory energy is not finite"):
            trajectory_cost(sys_, CONST0, euclidean_state([1e154]), 10.0)
