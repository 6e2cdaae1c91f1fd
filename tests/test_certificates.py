import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swlyap import (
    ContractViolation,
    DecayBound,
    EstimationError,
    FitRefusal,
    GrowthBound,
    NormEquivalence,
    NormSpec,
    SignalFamily,
    SwitchedSystem,
    SwitchingSignal,
    SwlyapError,
    condition_report,
    datko_certificate,
    distinct_trajectories,
    enumerate_family,
    euclidean_state,
    evolve,
    family_max,
    fit_decay,
    fit_growth,
    gronwall_certificate,
    matrix_mode,
    norm_ratio_samples,
    operator_norm_witness,
    state_norm,
)
from swlyap.lyapunov import DEFAULT_HORIZON
from swlyap.presets import (
    blowup_transport_pair,
    blowup_witnesses,
    cascade_system,
    commuting_diag_pair,
    edge_witness,
    scalar_mode_system,
)

from test_state_space import random_dyadic_fn

SCALAR = scalar_mode_system((-1.0,))
UNIT = euclidean_state([1.0])


class TestFitGrowth:
    def test_contraction_mode(self):
        fam = SignalFamily((0.5, 1.0), 1, (0,))
        grid = [0.5 * k for k in range(1, 9)]
        bound = fit_growth(norm_ratio_samples(SCALAR, fam, grid, [UNIT]))
        assert bound.M <= 1.0 + 1e-6
        assert bound.omega > 0
        for t in grid:
            assert math.exp(-t) <= bound.at(t) * (1.0 + 1e-12)

    def test_staircase_slope(self):
        # alternating doubling: samples on multiples of delta grow like 2^{t/delta}
        delta = 0.5
        sys_ = blowup_transport_pair()
        fam = SignalFamily((delta,), 4, (0, 1))
        grid = [delta * k for k in range(1, 5)]
        bound = fit_growth(norm_ratio_samples(sys_, fam, grid, blowup_witnesses(6)))
        assert bound.omega >= math.log(2.0) / delta - 0.05
        # envelope majorizes the sampled staircase
        for k, t in enumerate(grid, start=1):
            assert bound.at(t) >= 2.0**k * (1.0 - 1e-9)


def random_sweep_case(kind, seed):
    """A system, a small family, three times and one to three nonzero witnesses:
    the transport doubling pair with dyadic witnesses, or two random 2x2 modes."""
    rng = np.random.default_rng(seed)
    if kind == "transport":
        sys_ = blowup_transport_pair()
        draws = (random_dyadic_fn(rng) for _ in range(20))
        witnesses = [f for f in draws if not f.is_zero()][: int(rng.integers(1, 4))]
    else:
        modes = [matrix_mode(rng.uniform(-2.0, 2.0, size=(2, 2)).tolist()) for _ in range(2)]
        sys_ = SwitchedSystem(tuple(modes), NormSpec.euclidean())
        witnesses = [euclidean_state(rng.standard_normal(2)) for _ in range(rng.integers(1, 4))]
    dwells = tuple(float(d) for d in rng.choice([0.25, 0.5, 0.75], size=2, replace=False))
    fam = SignalFamily(dwells, int(rng.integers(0, 3)), (0, 1))
    grid = sorted(float(k) / 4.0 for k in rng.integers(0, 9, size=3))
    return sys_, fam, grid, witnesses


class TestNormRatioSamples:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["transport", "matrix"]), seed=st.integers(0, 2**32 - 1))
    def test_each_point_is_the_largest_witness_norm(self, kind, seed):
        sys_, fam, grid, witnesses = random_sweep_case(kind, seed)
        signals = list(distinct_trajectories(enumerate_family(fam)))
        for t, ratio, signal in norm_ratio_samples(sys_, fam, grid, witnesses):
            ratios = [operator_norm_witness(sys_, sig, t, witnesses) for sig in signals]
            best = max(ratios)
            assert ratio == best
            assert signal == (signals[ratios.index(best)] if best > 0.0 else None)

    @pytest.mark.parametrize("witnesses", [[], [euclidean_state([0.0])], [UNIT, 0.0 * UNIT]],
                             ids=["empty", "zero", "one-zero"])
    def test_sweep_and_witness_refuse_an_empty_or_zero_witness(self, witnesses):
        with pytest.raises(ContractViolation, match="witness"):
            norm_ratio_samples(SCALAR, SignalFamily((1.0,), 0, (0,)), [1.0], witnesses)
        with pytest.raises(ContractViolation, match="witness"):
            operator_norm_witness(SCALAR, SwitchingSignal((), 0), 1.0, witnesses)


class TestFitDecay:
    GRID = [0.25 * k for k in range(1, 41)]

    def test_scalar_recovers_rate(self):
        fam = SignalFamily((0.5, 1.0), 1, (0,))
        bound = fit_decay(norm_ratio_samples(SCALAR, fam, self.GRID, [UNIT]))
        assert isinstance(bound, DecayBound)
        assert bound.K == pytest.approx(1.0, rel=0.05)
        assert bound.mu == pytest.approx(1.0, rel=0.05)

    def test_blowup_refusal(self):
        sys_ = blowup_transport_pair()
        fam = SignalFamily((0.5,), 4, (0, 1))
        grid = [0.5 * k for k in range(1, 5)]
        out = fit_decay(norm_ratio_samples(sys_, fam, grid, blowup_witnesses(4)))
        assert isinstance(out, FitRefusal)
        assert out.value > 1.0
        assert out.signal is not None and out.t > 0

    def test_commuting_pair_rate(self):
        sys_ = commuting_diag_pair()
        fam = SignalFamily((0.5, 1.0), 2, (0, 1))
        witnesses = [euclidean_state(v) for v in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])]
        bound = fit_decay(norm_ratio_samples(sys_, fam, self.GRID, witnesses))
        assert isinstance(bound, DecayBound)
        assert bound.mu >= 1.0 - 0.05

    def test_never_beats_best_single_mode(self):
        sys_ = scalar_mode_system((-1.0, -2.0))
        fam = SignalFamily((0.5, 1.0), 1, (0, 1))
        bound = fit_decay(norm_ratio_samples(sys_, fam, self.GRID, [UNIT]))
        assert bound.mu <= 1.0 + 0.05

    def test_envelope_majorizes_samples(self):
        sys_ = commuting_diag_pair()
        fam = SignalFamily((0.5, 1.0), 1, (0, 1))
        witnesses = [euclidean_state([1.0, 0.0]), euclidean_state([0.3, -0.8])]
        samples = norm_ratio_samples(sys_, fam, self.GRID, witnesses)
        bound = fit_decay(samples)
        for t, r, _ in samples:
            assert r <= bound.at(t) * (1.0 + 1e-9)


# numbers across the double range, with its edges, small integers and
# integers past the double range
EXTREME = st.one_of(
    st.floats(),
    st.sampled_from([5e-324, 1e-320, 1e-200, 1.0 - 2.0**-53, 1.0, 1e4, 1e200, 1.7e308]),
    st.integers(min_value=-3, max_value=10),
    st.integers(min_value=2**1024, max_value=10**400),
)


class TestDatko:
    GROWTH = GrowthBound(2.0, 0.5)

    def test_worked_example(self):
        cert = datko_certificate(self.GROWTH, C_int=0.5, p=2.0, k=1.0, beta=0.5)
        assert cert.rho == 0.5
        assert cert.t0 == 2.0
        assert cert.t1 == pytest.approx(2.02)
        assert cert.mu == pytest.approx(math.log(2.0) / 2.02, rel=1e-12)
        assert cert.K == 2.0

    def test_degrades_continuously_as_beta_approaches_one(self):
        mus, ks = [], []
        for beta in (0.9, 0.99, 0.999):
            cert = datko_certificate(self.GROWTH, 0.5, 2.0, 1.0, beta)
            mus.append(cert.mu)
            ks.append(cert.K)
        assert mus[0] > mus[1] > mus[2] > 0
        assert ks[0] > ks[1] > ks[2] >= 1.0
        assert mus[2] < 0.01 and ks[2] < 1.01

    def test_certified_envelope_majorizes_scalar_decay(self):
        cert = datko_certificate(self.GROWTH, C_int=0.5, p=2.0, k=1.0, beta=0.5)
        env = cert.decay()
        for t in np.linspace(0.0, 20.0, 200):
            assert math.exp(-t) <= env.at(float(t)) * (1.0 + 1e-12)

    def test_monotone_in_k(self):
        prev_K, prev_mu = math.inf, 0.0
        for k in (4.0, 2.0, 1.0):
            cert = datko_certificate(self.GROWTH, 0.5, 2.0, k, 0.5)
            assert cert.K <= prev_K
            assert cert.mu >= prev_mu
            prev_K, prev_mu = cert.K, cert.mu

    def test_monotone_in_beta_near_one(self):
        # the rate is unimodal in beta with peak at e^{-1/p}; above the peak,
        # decreasing beta improves the rate
        p = 2.0
        betas = [0.95, 0.85, 0.75, 0.65, math.exp(-1.0 / p)]
        mus = [datko_certificate(self.GROWTH, 0.5, p, 1.0, b).mu for b in betas]
        assert all(a < b for a, b in zip(mus[:-1], mus[1:]))

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            datko_certificate(self.GROWTH, 0.5, 2.0, 1.0, beta=1.0)
        with pytest.raises(ContractViolation):
            datko_certificate(self.GROWTH, 0.5, 2.0, 0.5)
        with pytest.raises(ContractViolation):
            datko_certificate(None, 0.5, 2.0, 1.0)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @example(C_int=1.0, p=1e4, k=1e200, beta=1e-320)
    @example(C_int=1.0, p=2.0, k=math.inf, beta=0.5)
    @example(C_int=math.nan, p=2.0, k=1.0, beta=0.5)
    @example(C_int=1, p=2, k=1, beta=0.5)
    @example(C_int=1.0, p=10**400, k=1.0, beta=0.5)
    @example(C_int=10**400, p=2.0, k=1.0, beta=0.5)
    @example(C_int=1.0, p=2.0, k=10**400, beta=0.5)
    @given(C_int=EXTREME, p=EXTREME, k=EXTREME, beta=EXTREME)
    def test_extreme_inputs_give_a_finite_chain_or_a_library_error(self, C_int, p, k, beta):
        try:
            cert = datko_certificate(self.GROWTH, C_int, p, k, beta)
        except SwlyapError:
            return
        fields = cert.to_json().values()
        assert all(type(v) is float and 0.0 < v < math.inf for v in fields)
        assert cert.t0 < cert.t1
        cert.decay()


class TestGronwall:
    def test_balanced_constants(self):
        out = gronwall_certificate(NormEquivalence(0.5, 0.5))
        assert out.K == 1.0 and out.mu == pytest.approx(1.0)

    def test_formula(self):
        out = gronwall_certificate(NormEquivalence(0.25, 1.0))
        assert out.K == 2.0 and out.mu == pytest.approx(2.0)

    def test_equal_constants_give_unit_k(self):
        for c in (0.1, 0.5, 2.0):
            assert gronwall_certificate(NormEquivalence(c, c)).K == 1.0

    def test_conservative_variant_uses_upper_constant(self):
        out = gronwall_certificate(NormEquivalence(0.25, 1.0), conservative=True)
        assert out.mu == pytest.approx(0.5)

    def test_scalar_loop_closes(self):
        # on the scalar contraction the certified envelope covers every sample
        fam = SignalFamily((0.5, 1.0), 1, (0,))
        rng = np.random.default_rng(8)
        xs = [euclidean_state([float(rng.uniform(0.2, 2.0))]) for _ in range(10)]
        vals = [family_max(SCALAR, enumerate_family(fam), x, DEFAULT_HORIZON)[1] / float(x @ x)
                for x in xs]
        eq = NormEquivalence(min(vals), max(vals))
        env = gronwall_certificate(eq)
        sig = SwitchingSignal((), 0)
        for x in xs[:3]:
            for t in np.linspace(0.0, 10.0, 41):
                lhs = state_norm(evolve(SCALAR, sig, float(t), x), SCALAR.norm)
                assert lhs <= env.at(float(t)) * state_norm(x, SCALAR.norm) * (1.0 + 1e-6)


class TestConditionReport:
    def test_scalar_supports_everything(self):
        fam = SignalFamily((0.5, 1.0), 1, (0,))
        v = lambda x: 0.5 * float(x @ x)
        growth = GrowthBound(1.0 + 1e-9, 0.1)
        samples = [euclidean_state([1.0]), euclidean_state([-2.0])]
        rep = condition_report(SCALAR, v, samples, fam, growth=growth)
        assert rep.c_hat == pytest.approx(0.5)
        assert rep.C_hat == pytest.approx(0.5)
        assert rep.derivative_ok
        assert rep.growth_ok
        assert rep.supports == {"A": True, "B": True, "C": True}

    def test_zero_sample_vacuous(self):
        fam = SignalFamily((1.0,), 0, (0,))
        v = lambda x: 0.5 * float(x @ x)
        rep = condition_report(SCALAR, v, [euclidean_state([0.0])], fam)
        assert rep.n_samples == 1 and rep.derivative_ok
        assert rep.c_hat is None

    def test_zero_samples_leave_growth_unchecked(self):
        fam = SignalFamily((1.0,), 0, (0,))
        samples = [euclidean_state([0.0]), euclidean_state([-0.0])]
        rep = condition_report(SCALAR, lambda x: 0.0, samples, fam, growth=GrowthBound(1.0, 0.1))
        assert rep.n_samples == 2 and rep.growth_ok is None
        assert rep.supports == {"A": False, "B": False, "C": False}

    def test_cascade_upper_without_growth_flags_gap(self):
        # the cascade has a true energy bound (so the V upper bound holds) but
        # no decay, and no growth envelope is supplied: the report must flag
        # that the evidence cannot support uniform decay on its own
        sys_ = cascade_system(4, 2.0)
        fam = SignalFamily((0.25, 0.75), 1, (0, 1, 2, 3))
        rng = np.random.default_rng(9)
        samples = []
        while len(samples) < 3:
            f = random_dyadic_fn(rng, 0.0, 1.0)
            if not f.is_zero():
                samples.append(f)
        v = lambda x: family_max(sys_, enumerate_family(fam), x, 1.25)[1]
        rep = condition_report(sys_, v, samples, fam)
        assert rep.upper_ok
        assert rep.C_hat <= 1.5 + 1e-9
        assert not rep.supports["B"]
        assert any("V-bound without growth bound" in n for n in rep.notes)
        # and an honest decay fit refuses on the same system's witnesses
        refusal = fit_decay(norm_ratio_samples(
            sys_,
            SignalFamily((0.75,), 4, (0, 1, 2, 3)),
            [0.25, 0.5, 0.75, 0.9375, 1.0 - 4.0**-5],
            [edge_witness(4.0**-5)],
        ))
        assert isinstance(refusal, FitRefusal)

    def test_requires_samples(self):
        with pytest.raises(ContractViolation):
            condition_report(SCALAR, lambda x: 0.0, [], None)

    def test_library_error_recorded(self):
        def v(x):
            raise EstimationError("no estimate")

        rep = condition_report(SCALAR, v, [UNIT], SignalFamily((1.0,), 0, (0,)))
        assert rep.notes[0] == "evaluator failed on a sample: no estimate"
        assert not rep.derivative_ok

    def test_non_library_error_propagates(self):
        def v(x):
            raise ZeroDivisionError("evaluator bug")

        with pytest.raises(ZeroDivisionError, match="evaluator bug"):
            condition_report(SCALAR, v, [UNIT], SignalFamily((1.0,), 0, (0,)))
