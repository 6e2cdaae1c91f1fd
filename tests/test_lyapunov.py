import math

import numpy as np
import pytest

from swlyap import (
    ContractViolation,
    DecayBound,
    EstimationError,
    NormSpec,
    PiecewiseConstantFn,
    SignalFamily,
    SwitchedSystem,
    SwitchingSignal,
    augment_system,
    euclidean_state,
    evolve,
    generalized_derivative,
    lp_norm,
    matrix_mode,
    state_norm,
    trajectory_cost,
    v_sup,
    v_tilde,
    v_tilde_single_mode,
)
from swlyap.presets import (
    blowup_transport_pair,
    cascade_system,
    commuting_diag_pair,
    scalar_mode_system,
)

from test_state_space import random_dyadic_fn

SCALARS = scalar_mode_system((-1.0, -2.0))
CONST0 = SwitchingSignal((), 0)


class TestTrajectoryCost:
    def test_scalar_half(self):
        x = euclidean_state([1.0])
        val, tail = trajectory_cost(SCALARS, CONST0, x, horizon=40.0)
        assert val == pytest.approx(0.5, abs=1e-12)
        assert tail is None

    def test_tail_bound_formula(self):
        x = euclidean_state([1.0])
        decay = DecayBound(1.0, 1.0)
        val, tail = trajectory_cost(SCALARS, CONST0, x, horizon=2.0, decay=decay)
        # exact remainder of the scalar integral is e^{-4}/2, the bound matches it here
        assert tail == pytest.approx(math.exp(-4.0) / 2.0, rel=1e-12)
        assert val + tail == pytest.approx(0.5, rel=1e-12)

    def test_nilpotent_mode_zero_tail(self):
        sys_ = blowup_transport_pair()
        f = PiecewiseConstantFn.indicator(-1.0, 1.0, -0.25, 0.5)
        val, tail = trajectory_cost(
            sys_, CONST0, f, horizon=2.5, decay=DecayBound(1.0, 0.5)
        )
        assert math.isfinite(val) and val > 0
        assert tail == 0.0

    def test_exact_transport_energy(self):
        # left doubler, witness right of the hinge: the L^1 norm along time is
        #   0.25 on [0, .25], then t while crossing, 0.5 once fully crossed,
        #   and 2*(1.5 - t) while exiting the domain at -1; zero from t = 1.5
        sys_ = blowup_transport_pair()
        f = PiecewiseConstantFn.indicator(-1.0, 1.0, 0.25, 0.5)
        val, _ = trajectory_cost(sys_, CONST0, f, horizon=2.0)
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
            val, _ = trajectory_cost(sys_, sig, f, horizon=1.25)
            assert val <= 1.5 * lp_norm(f, sys_.norm) ** 2 + 1e-9

    def test_contract_violations(self):
        x = euclidean_state([1.0])
        with pytest.raises(ContractViolation):
            trajectory_cost(SCALARS, CONST0, x, horizon=0.0)


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
        est = v_sup(SCALARS, euclidean_state([1.0]), fam, refine=False)
        assert est.value == pytest.approx(0.5, abs=1e-3)
        assert est.witness == SwitchingSignal((), 0)

    def test_zero_state(self):
        est = v_sup(SCALARS, euclidean_state([0.0]))
        assert est.value == 0.0

    def test_homogeneity_exact_for_power_of_two(self):
        rng = np.random.default_rng(31)
        fam = SignalFamily((0.5, 1.0), 1, (0, 1))
        sys_ = commuting_diag_pair()
        for _ in range(5):
            x = euclidean_state(rng.standard_normal(2))
            base = v_sup(sys_, x, fam, refine=False)
            for c in (2.0, -2.0, 0.5):
                scaled = v_sup(sys_, euclidean_state(c * x), fam, refine=False)
                assert scaled.value == c * c * base.value
                assert scaled.witness == base.witness

    def test_upper_bound_reported_with_decay(self):
        est = v_sup(
            scalar_mode_system((-1.0,)),
            euclidean_state([2.0]),
            decay=DecayBound(1.0, 1.0),
        )
        assert est.upper_bound == pytest.approx(2.0)
        assert est.value <= est.upper_bound * (1.0 + 1e-9)
        assert est.tail_bound is not None

    def test_convexity_of_sqrt(self):
        rng = np.random.default_rng(32)
        fam = SignalFamily((0.5, 1.0), 1, (0, 1))
        sys_ = commuting_diag_pair()
        for _ in range(10):
            x = euclidean_state(rng.standard_normal(2))
            y = euclidean_state(rng.standard_normal(2))
            lam = float(rng.uniform())
            mix = euclidean_state(lam * x + (1 - lam) * y)
            sq = math.sqrt(v_sup(sys_, mix, fam, refine=False).value)
            bound = lam * math.sqrt(v_sup(sys_, x, fam, refine=False).value) + (
                1 - lam
            ) * math.sqrt(v_sup(sys_, y, fam, refine=False).value)
            assert sq <= bound + 1e-9

    def test_refinement_never_decreases(self):
        sys_ = commuting_diag_pair()
        x = euclidean_state([1.0, 0.5])
        fam = SignalFamily((0.5,), 1, (0, 1))
        rough = v_sup(sys_, x, fam, refine=False)
        fine = v_sup(sys_, x, fam, refine=True)
        assert fine.value >= rough.value


class TestVTilde:
    def test_single_mode_matches_trajectory_cost(self):
        sys_ = scalar_mode_system((-1.0,))
        x = euclidean_state([1.0])
        est = v_tilde(sys_, x, SignalFamily((1.0,), 0, (0,)), horizon=10.0)
        cost, _ = trajectory_cost(sys_, CONST0, x, horizon=10.0)
        assert est.value == pytest.approx(cost, rel=1e-4)

    def test_zero_state(self):
        est = v_tilde(SCALARS, euclidean_state([0.0]), horizon=5.0)
        assert est.value == 0.0

    def test_pointwise_sup_dominated_by_slow_mode(self):
        est = v_tilde(SCALARS, euclidean_state([1.0]), horizon=10.0)
        assert est.value == pytest.approx(0.5, abs=2e-3)

    def test_dominates_v_sup_on_same_family(self):
        sys_ = commuting_diag_pair()
        fam = SignalFamily((0.5, 1.0), 1, (0, 1))
        rng = np.random.default_rng(33)
        for _ in range(5):
            x = euclidean_state(rng.standard_normal(2))
            lo = v_sup(sys_, x, fam, refine=False).value
            hi = v_tilde(sys_, x, fam, horizon=10.0).value
            assert hi >= lo - 1e-3 * max(1.0, lo)


class TestVTildeSingleMode:
    def test_scalar_closed_form(self):
        val = v_tilde_single_mode(matrix_mode([[-1.0]]), 1.0, euclidean_state([1.0]))
        assert val == pytest.approx(0.5, abs=2e-3)

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


class TestGeneralizedDerivative:
    def test_quadratic_evaluator_scalar(self):
        # quotient (e^{-2t} - 1) / (2t) approaches -1 from above as t shrinks
        v = lambda y: 0.5 * float(y @ y)
        est = generalized_derivative(v, SCALARS, 0, euclidean_state([1.0]))
        assert -1.0 <= est.value <= -1.0 + 1e-5

    def test_grid_refinement_approaches_limit(self):
        v = lambda y: 0.5 * float(y @ y)
        coarse = generalized_derivative(v, SCALARS, 0, euclidean_state([1.0]), (0.25, 0.125))
        fine = generalized_derivative(v, SCALARS, 0, euclidean_state([1.0]), (2.0**-16,))
        assert fine.value < coarse.value
        assert fine.value == pytest.approx(-1.0, abs=1e-4)

    def test_zero_state(self):
        v = lambda y: 0.5 * float(y @ y)
        est = generalized_derivative(v, SCALARS, 0, euclidean_state([0.0]))
        assert est.value == 0.0

    def test_fast_mode_decays_strictly_faster(self):
        fam = SignalFamily.default(2)
        v = lambda y: v_sup(SCALARS, y, fam, refine=False).value
        est = generalized_derivative(v, SCALARS, 1, euclidean_state([1.0]))
        assert est.value <= -1.0 - 0.5

    def test_bad_grid(self):
        v = lambda y: float(y @ y)
        with pytest.raises(ContractViolation):
            generalized_derivative(v, SCALARS, 0, euclidean_state([1.0]), (0.1, -0.1))


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
            est = v_sup(aug, x, fam, refine=False)
            assert est.value >= 0.5 * state_norm(x, aug.norm) ** 2 - 1e-6

    def test_invalid_mu(self):
        with pytest.raises(ContractViolation):
            augment_system(SCALARS, 0.0)


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

    def test_finite_terms_with_infinite_sum(self):
        sys_ = scalar_mode_system((1.0,))
        with pytest.raises(EstimationError, match="trajectory energy is not finite"):
            trajectory_cost(sys_, CONST0, euclidean_state([1e154]), 10.0)
