import math

import numpy as np
import pytest
from scipy.linalg import expm

from swlyap import (
    ContractViolation,
    DiagonalGroupMode,
    EstimationError,
    HalfLineShiftMode,
    NormSpec,
    PiecewiseConstantFn,
    ShiftAmplifyMode,
    StructuralError,
    apply,
    euclidean_state,
    lp_norm,
    matrix_mode,
)
from swlyap.presets import blowup_transport_pair, cascade_system
from swlyap.semigroups import mode_from_json, mode_to_json

from test_state_space import combine, random_dyadic_fn

L1 = NormSpec(1.0)
L2 = NormSpec(2.0)

LEFT_DOUBLER = blowup_transport_pair().modes[0]
RIGHT_DOUBLER = blowup_transport_pair().modes[1]


def random_dyadic(rng, denom=64, lo=1, hi=None):
    hi = hi if hi is not None else denom
    return float(rng.integers(lo, hi)) / denom


class TestApplyBasics:
    def test_negative_time_rejected(self):
        f = PiecewiseConstantFn.constant(-1.0, 1.0, 1.0)
        with pytest.raises(ContractViolation):
            apply(LEFT_DOUBLER, -0.5, f)

    def test_identity_at_zero(self):
        rng = np.random.default_rng(0)
        f = random_dyadic_fn(rng)
        assert apply(LEFT_DOUBLER, 0.0, f) == f
        x = euclidean_state([1.0, 2.0])
        m = matrix_mode([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(apply(m, 0.0, x), x)
        assert np.array_equal(apply(DiagonalGroupMode(1.0), 0.0, x), x)

    def test_space_mismatch(self):
        with pytest.raises(StructuralError):
            apply(matrix_mode([[-1.0]]), 1.0, PiecewiseConstantFn.constant(0, 1, 1.0))
        with pytest.raises(StructuralError):
            apply(LEFT_DOUBLER, 1.0, euclidean_state([1.0]))
        with pytest.raises(StructuralError):
            apply(LEFT_DOUBLER, 1.0, PiecewiseConstantFn.constant(0.0, 1.0, 1.0))

    def test_matrix_vs_dense_exponential(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3))
        x = euclidean_state(rng.standard_normal(3))
        got = apply(matrix_mode(A), 0.7, x)
        want = expm(A * 0.7) @ x
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


class TestBlowupPair:
    def test_zero_for_t_beyond_domain_length(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = random_dyadic_fn(rng)
            for t in (2.0, 2.5, 3.0):
                assert apply(LEFT_DOUBLER, t, f).is_zero()
                assert apply(RIGHT_DOUBLER, t, f).is_zero()

    def test_doubles_only_crossing_mass(self):
        f = PiecewiseConstantFn.indicator(-1.0, 1.0, -0.125, 0.125)
        out = apply(LEFT_DOUBLER, 0.5, f)
        # left half never crossed 0, right half did
        assert out == PiecewiseConstantFn(
            -1.0, 1.0, (-0.625, -0.5, -0.375), (0.0, 1.0, 2.0, 0.0)
        )

    def test_right_mode_mirrors(self):
        f = PiecewiseConstantFn.indicator(-1.0, 1.0, -0.125, 0.125)
        out = apply(RIGHT_DOUBLER, 0.5, f)
        assert out == PiecewiseConstantFn(
            -1.0, 1.0, (0.375, 0.5, 0.625), (0.0, 2.0, 1.0, 0.0)
        )


class TestCascadeModes:
    def test_single_application_example(self):
        eps = 1.0 / 64.0
        mode = cascade_system(1, 2.0).modes[0]
        f = PiecewiseConstantFn.indicator(0.0, 1.0, 1.0 - eps, 1.0)
        out = apply(mode, 1.0 - eps, f)
        assert out.breaks == (eps,)
        assert out.values == (math.sqrt(2.0), 0.0)

    def test_nilpotent_at_domain_length(self):
        mode = cascade_system(3, 2.0).modes[2]
        f = PiecewiseConstantFn.indicator(0.0, 1.0, 0.5, 1.0)
        assert apply(mode, 1.0, f).is_zero()

    def test_mass_already_inside_zone_not_amplified(self):
        # only characteristics that cross the amplification point pick up the factor
        mode = cascade_system(1, 2.0).modes[0]  # edge at 1/4
        f = PiecewiseConstantFn.indicator(0.0, 1.0, 0.0, 0.125)
        out = apply(mode, 0.0625, f)
        assert max(out.values) == 1.0


class TestSemigroupLaw:
    @pytest.mark.parametrize("mode", [LEFT_DOUBLER, RIGHT_DOUBLER])
    def test_exact_for_moving_window_transport(self, mode):
        rng = np.random.default_rng(42)
        for _ in range(40):
            f = random_dyadic_fn(rng)
            s = random_dyadic(rng, 64, 1, 48)
            t = random_dyadic(rng, 64, 1, 48)
            assert apply(mode, s + t, f) == apply(mode, s, apply(mode, t, f))

    def test_exact_for_fixed_edge_transport(self):
        rng = np.random.default_rng(43)
        mode = cascade_system(2, 2.0).modes[1]
        for _ in range(40):
            f = random_dyadic_fn(rng, 0.0, 1.0)
            s = random_dyadic(rng, 128, 1, 64)
            t = random_dyadic(rng, 128, 1, 64)
            assert apply(mode, s + t, f) == apply(mode, s, apply(mode, t, f))

    def test_exact_for_half_line(self):
        rng = np.random.default_rng(44)
        mode = HalfLineShiftMode()
        for _ in range(20):
            f = random_dyadic_fn(rng, 0.0, 4.0)
            s, t = random_dyadic(rng, 16), random_dyadic(rng, 16)
            assert apply(mode, s + t, f) == apply(mode, s, apply(mode, t, f))

    def test_group_mode_law(self):
        mode = DiagonalGroupMode(0.7)
        x = euclidean_state([2.0, -1.0])
        lhs = apply(mode, 1.1, x)
        rhs = apply(mode, 0.4, apply(mode, 0.7, x))
        assert np.allclose(lhs, rhs, rtol=1e-14)

    def test_matrix_law(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            m = matrix_mode(rng.standard_normal((3, 3)))
            x = euclidean_state(rng.standard_normal(3))
            lhs = apply(m, 1.3, x)
            rhs = apply(m, 0.8, apply(m, 0.5, x))
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))


def test_strong_continuity_surrogate():
    f = PiecewiseConstantFn.indicator(-1.0, 1.0, -0.5, 0.5)
    diffs = []
    for k in range(1, 9):
        t = 2.0**-k
        moved = apply(LEFT_DOUBLER, t, f)
        diffs.append(lp_norm(combine(1.0, moved, -1.0, f), L1))
    assert all(a >= b for a, b in zip(diffs[:-1], diffs[1:]))
    assert diffs[-1] < diffs[0]


class TestHalfLineShift:
    def test_norm_nonincreasing_and_eventually_zero(self):
        mode = HalfLineShiftMode()
        f = PiecewiseConstantFn.indicator(0.0, 8.0, 1.0, 3.0)
        norms = [lp_norm(apply(mode, t, f), L1) for t in np.arange(0.0, 4.1, 0.25)]
        assert all(a >= b - 1e-15 for a, b in zip(norms[:-1], norms[1:]))
        assert lp_norm(apply(mode, 3.0, f), L1) == 0.0

    def test_unit_norm_ratio_at_every_time(self):
        # witnesses far from the origin show the operator norm never drops
        mode = HalfLineShiftMode()
        for t in range(1, 11):
            f = PiecewiseConstantFn.indicator(0.0, 16.0, float(t), float(t) + 1.0)
            assert lp_norm(apply(mode, float(t), f), L1) == lp_norm(f, L1) == 1.0

    def test_requires_half_line_domain(self):
        f = PiecewiseConstantFn.indicator(1.0, 2.0, 1.0, 2.0)
        with pytest.raises(StructuralError):
            apply(HalfLineShiftMode(), 0.5, f)


def test_mode_json_roundtrip():
    modes = [
        matrix_mode([[-1.0, 1.0], [0.0, -2.0]]),
        LEFT_DOUBLER,
        DiagonalGroupMode(0.25),
        HalfLineShiftMode(),
    ]
    for m in modes:
        assert mode_from_json(mode_to_json(m)) == m
    with pytest.raises(StructuralError):
        mode_from_json({"kind": "unknown"})


def test_mode_validation():
    with pytest.raises(StructuralError):
        ShiftAmplifyMode(0.0, 1.0, "sideways", 0.0, 0.5, 2.0)
    with pytest.raises(StructuralError):
        ShiftAmplifyMode(0.0, 1.0, "left", -0.5, 0.5, 2.0)
    with pytest.raises(StructuralError):
        DiagonalGroupMode(-1.0)
    with pytest.raises(StructuralError):
        matrix_mode([[1.0, 2.0]])


def test_mode_json_names_missing_field():
    with pytest.raises(StructuralError, match="^A: required"):
        mode_from_json({"kind": "matrix"})
    with pytest.raises(StructuralError, match="^factor: required"):
        mode_from_json({"kind": "shift_amplify", "domain": [0, 1], "direction": "left",
                        "amplify": [0, 0.5]})


def test_scalar_exponential_overflow_is_an_estimation_error():
    mode, x = matrix_mode([[1000.0]]), euclidean_state([1.0])
    assert apply(mode, 0.5, x)[0] == pytest.approx(math.exp(500.0))
    with pytest.raises(EstimationError, match="not finite"):
        apply(mode, 1.0, x)
