import math
import warnings

import numpy as np
import pytest

from swlyap import (
    InvalidStateError,
    NormSpec,
    PiecewiseConstantFn,
    StructuralError,
    canonicalize,
    euclidean_state,
    linear_combine,
    lp_norm,
    state_norm,
)
from swlyap.state_space import lp_norm_pow

L1 = NormSpec(1.0)
L2 = NormSpec(2.0)


def random_dyadic_fn(rng, lo=-1.0, hi=1.0, denom=64, max_breaks=6):
    k = int(rng.integers(0, max_breaks + 1))
    pts = sorted(set(rng.integers(1, denom, size=k)))
    breaks = tuple(lo + (hi - lo) * p / denom for p in pts)
    values = tuple(float(v) for v in rng.integers(-8, 9, size=len(breaks) + 1))
    return canonicalize(PiecewiseConstantFn(lo, hi, breaks, values))


class TestLpNorm:
    def test_unit_indicator(self):
        f = PiecewiseConstantFn.constant(0.0, 1.0, 1.0)
        assert lp_norm(f, L1) == 1.0

    def test_rectangle_area(self):
        f = PiecewiseConstantFn(-1.0, 1.0, (0.0,), (2.0, 0.0))
        assert lp_norm(f, L1) == 2.0

    def test_small_indicator_l2(self):
        eps = 1.0 / 16.0
        f = PiecewiseConstantFn.indicator(0.0, 1.0, 1.0 - eps, 1.0)
        assert lp_norm(f, L2) == 0.25

    def test_non_finite_value_rejected(self):
        f = PiecewiseConstantFn(0.0, 1.0, (), (math.inf,))
        with pytest.raises(InvalidStateError):
            lp_norm(f, L2)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 1.5])
    def test_sum_past_the_double_range_raises(self, p):
        # |v|^p overflows a double for p = 3 and 1.5, v*v for p = 2, and the
        # sum of two finite terms for p = 1
        f = PiecewiseConstantFn(0.0, 2.0, (1.0,), (1e300 if p > 1.0 else 1.7e308, 1.0e308))
        with pytest.raises(InvalidStateError, match="^L\\^p norm is not finite$"):
            lp_norm_pow(f, p)
        with pytest.raises(InvalidStateError, match="^L\\^p norm is not finite$"):
            lp_norm(f, NormSpec(p))
        # a finite sum still passes
        assert lp_norm_pow(PiecewiseConstantFn.constant(0.0, 1.0, 1e100), p) == 1e100**p

    def test_general_p(self):
        f = PiecewiseConstantFn.constant(0.0, 2.0, 3.0)
        assert lp_norm(f, NormSpec(3.0)) == pytest.approx((27.0 * 2.0) ** (1.0 / 3.0))

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = random_dyadic_fn(rng)
            c = float(rng.uniform(-3, 3))
            scaled = linear_combine(c, f, 0.0, f)
            for spec in (L1, L2, NormSpec(1.5)):
                assert lp_norm(scaled, spec) == pytest.approx(abs(c) * lp_norm(f, spec), abs=1e-13)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            f = random_dyadic_fn(rng)
            g = random_dyadic_fn(rng)
            s = linear_combine(1.0, f, 1.0, g)
            for spec in (L1, L2):
                assert lp_norm(s, spec) <= lp_norm(f, spec) + lp_norm(g, spec) + 1e-12


class TestCanonicalize:
    def test_merges_equal_neighbours(self):
        f = PiecewiseConstantFn(0.0, 1.0, (0.5,), (1.0, 1.0))
        g = canonicalize(f)
        assert g.breaks == () and g.values == (1.0,)

    def test_idempotent_returns_same_object(self):
        f = canonicalize(PiecewiseConstantFn(0.0, 1.0, (0.25,), (1.0, 2.0)))
        assert canonicalize(f) is f

    def test_zero_width_piece_dropped(self):
        f = PiecewiseConstantFn(0.0, 1.0, (0.5, 0.5), (0.0, 2.0, 0.0))
        g = canonicalize(f)
        assert g.breaks == () and g.values == (0.0,)

    def test_unsorted_breaks_rejected(self):
        with pytest.raises(StructuralError):
            PiecewiseConstantFn(0.0, 1.0, (0.75, 0.25), (1.0, 2.0, 3.0))

    def test_norm_preserved_exactly_on_dyadic(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lo, hi = -1.0, 1.0
            pts = sorted(rng.integers(1, 64, size=5))
            breaks = tuple(lo + 2.0 * p / 64 for p in pts)
            values = tuple(float(v) for v in rng.integers(-4, 5, size=6))
            f = PiecewiseConstantFn(lo, hi, breaks, values)
            assert lp_norm(canonicalize(f), L2) == lp_norm(f, L2)

    def test_value_count_mismatch(self):
        with pytest.raises(StructuralError):
            PiecewiseConstantFn(0.0, 1.0, (0.5,), (1.0,))


class TestLinearCombine:
    def test_cancellation(self):
        f = PiecewiseConstantFn(0.0, 1.0, (0.25, 0.5), (1.0, -2.0, 3.0))
        assert linear_combine(1.0, f, -1.0, f).is_zero()

    def test_scaling_with_zero_partner(self):
        f = PiecewiseConstantFn.constant(0.0, 1.0, 1.0)
        g = PiecewiseConstantFn(0.0, 1.0, (0.5,), (4.0, -1.0))
        out = linear_combine(2.0, f, 0.0, g)
        assert out.values == (2.0,) and out.breaks == ()

    def test_disjoint_supports_join(self):
        f = PiecewiseConstantFn.indicator(0.0, 1.0, 0.0, 0.5)
        g = PiecewiseConstantFn.indicator(0.0, 1.0, 0.5, 1.0)
        out = linear_combine(1.0, f, 1.0, g)
        assert out.breaks == () and out.values == (1.0,)

    def test_domain_mismatch(self):
        f = PiecewiseConstantFn.constant(0.0, 1.0, 1.0)
        g = PiecewiseConstantFn.constant(0.0, 2.0, 1.0)
        with pytest.raises(StructuralError):
            linear_combine(1.0, f, 1.0, g)


class TestStates:
    def test_euclidean_validation(self):
        with pytest.raises(StructuralError):
            euclidean_state([[1.0, 2.0]])
        with pytest.raises(InvalidStateError):
            euclidean_state([1.0, math.nan])

    def test_state_norm_dispatch(self):
        x = euclidean_state([3.0, 4.0])
        assert state_norm(x, NormSpec.euclidean()) == 5.0
        with pytest.raises(StructuralError):
            state_norm(x, L2)
        f = PiecewiseConstantFn.constant(0.0, 1.0, 1.0)
        with pytest.raises(StructuralError):
            state_norm(f, NormSpec.euclidean())
        with pytest.raises(InvalidStateError, match="not finite"):
            state_norm(np.array([1.5e308, 1.5e308]), NormSpec.euclidean())

    def test_state_norm_scales_past_the_square_range(self):
        # squaring 1e155 overflows; the norm itself is well inside the double range
        spec = NormSpec.euclidean()
        assert state_norm(np.array([1e155, 1e155]), spec) == pytest.approx(
            math.sqrt(2.0) * 1e155, rel=1e-15
        )
        assert state_norm(np.array([-1e200, 1.0]), spec) == 1e200
        assert state_norm(np.array([1e308, 1e308]), spec) == pytest.approx(
            math.sqrt(2.0) * 1e308, rel=1e-15
        )
        # ordinary states keep the plain norm's bits
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.standard_normal(3) * 10.0 ** rng.uniform(-100, 100)
            assert state_norm(x, spec) == float(np.linalg.norm(x))

    def test_state_norm_past_the_square_range_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n = state_norm(np.array([1e155, 1e155]), NormSpec.euclidean())
        assert n == pytest.approx(math.sqrt(2.0) * 1e155, rel=1e-15)

    def test_norm_spec_validation(self):
        with pytest.raises(StructuralError):
            NormSpec(0.5)
        with pytest.raises(StructuralError):
            NormSpec(2.0, "weird")


def test_json_roundtrip():
    f = PiecewiseConstantFn(-1.0, 1.0, (-0.5, 0.25), (1.0, 0.0, 2.0))
    assert PiecewiseConstantFn.from_json(f.to_json()) == f
    with pytest.raises(StructuralError):
        PiecewiseConstantFn.from_json({"domain": [0, 1]})


def test_point_evaluation_zero_outside_domain():
    f = PiecewiseConstantFn.constant(0.0, 1.0, 5.0)
    assert f.at(-0.1) == 0.0
    assert f.at(1.0) == 0.0
    assert f.at(0.0) == 5.0
