import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swlyap import (
    ContractViolation,
    FamilySizeError,
    NormSpec,
    PiecewiseConstantFn,
    SignalFamily,
    StructuralError,
    SwitchedSystem,
    SwitchingSignal,
    apply,
    distinct_trajectories,
    enumerate_family,
    euclidean_state,
    evolve,
    family_size,
    lp_norm,
    matrix_mode,
    operator_norm_witness,
    shift_signal,
)
from swlyap.presets import (
    alternating_signal,
    blowup_transport_pair,
    blowup_witnesses,
    cascade_signal,
    cascade_system,
    commuting_diag_pair,
    edge_witness,
    scalar_mode_system,
)

from test_state_space import random_dyadic_fn

BLOWUP = blowup_transport_pair()


def random_dyadic(rng, denom=64, lo=1, hi=None):
    return float(rng.integers(lo, hi if hi is not None else denom)) / denom


class TestEvolve:
    def test_constant_signal_reduces_to_apply(self):
        rng = np.random.default_rng(0)
        f = random_dyadic_fn(rng)
        sig = SwitchingSignal((), 1)
        assert evolve(BLOWUP, sig, 0.75, f) == apply(BLOWUP.modes[1], 0.75, f)

    def test_before_first_switch(self):
        rng = np.random.default_rng(1)
        f = random_dyadic_fn(rng)
        sig = SwitchingSignal(((0, 0.5), (1, 0.25)), 0)
        assert evolve(BLOWUP, sig, 0.25, f) == apply(BLOWUP.modes[0], 0.25, f)

    def test_identity_at_zero_for_any_signal(self):
        rng = np.random.default_rng(2)
        f = random_dyadic_fn(rng)
        sig = SwitchingSignal(((1, 0.25), (0, 0.125)), 1)
        assert evolve(BLOWUP, sig, 0.0, f) == f

    def test_blowup_doubles_per_switch_on_hinge_mass(self):
        # the overlap that keeps crossing the hinge doubles at every switch
        delta = 0.5
        eta = 1.0 / 64.0
        f = PiecewiseConstantFn.indicator(-1.0, 1.0, 0.0, eta)
        sig = alternating_signal(delta, 2.0)
        for k in range(1, 5):
            out = evolve(BLOWUP, sig, k * delta, f)
            assert lp_norm(out, BLOWUP.norm) == (2.0**k) * eta
            assert max(out.values) == 2.0**k

    def test_invalid_mode_id(self):
        with pytest.raises(StructuralError):
            evolve(BLOWUP, SwitchingSignal(((7, 1.0),), 0), 2.0, random_dyadic_fn(np.random.default_rng(3)))

    def test_negative_time(self):
        with pytest.raises(ContractViolation):
            evolve(BLOWUP, SwitchingSignal((), 0), -1.0, random_dyadic_fn(np.random.default_rng(4)))


class TestShiftSignal:
    SIG = SwitchingSignal(((0, 0.5), (1, 0.25), (0, 0.75)), 1)

    def test_zero_shift(self):
        assert shift_signal(self.SIG, 0.0) is self.SIG

    def test_beyond_all_switches(self):
        out = shift_signal(self.SIG, 2.0)
        assert out == SwitchingSignal((), 1)

    def test_mid_segment(self):
        out = shift_signal(self.SIG, 0.625)
        assert out == SwitchingSignal(((1, 0.125), (0, 0.75)), 1)

    def test_exact_boundary(self):
        out = shift_signal(self.SIG, 0.5)
        assert out == SwitchingSignal(((1, 0.25), (0, 0.75)), 1)


class TestConcatenationLaw:
    def test_exact_on_transport(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            f = random_dyadic_fn(rng)
            sig = SwitchingSignal(
                tuple((int(rng.integers(0, 2)), random_dyadic(rng)) for _ in range(int(rng.integers(0, 4)))),
                int(rng.integers(0, 2)),
            )
            s = random_dyadic(rng)
            t = random_dyadic(rng)
            via_split = evolve(BLOWUP, shift_signal(sig, s), t, evolve(BLOWUP, sig, s, f))
            assert evolve(BLOWUP, sig, t + s, f) == via_split

    def test_matrix_modes_close(self):
        rng = np.random.default_rng(11)
        sys_ = commuting_diag_pair()
        for _ in range(40):
            x = euclidean_state(rng.standard_normal(2))
            sig = SwitchingSignal(
                tuple((int(rng.integers(0, 2)), float(rng.uniform(0.1, 1.0))) for _ in range(3)),
                int(rng.integers(0, 2)),
            )
            s = float(rng.uniform(0.0, 2.0))
            t = float(rng.uniform(0.0, 2.0))
            lhs = evolve(sys_, sig, t + s, x)
            rhs = evolve(sys_, shift_signal(sig, s), t, evolve(sys_, sig, s, x))
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))


class TestOperatorNormWitness:
    def test_identity_time(self):
        rng = np.random.default_rng(12)
        ws = [random_dyadic_fn(rng) for _ in range(3)]
        ws = [w for w in ws if not w.is_zero()] or [PiecewiseConstantFn.constant(-1, 1, 1.0)]
        assert operator_norm_witness(BLOWUP, SwitchingSignal((), 0), 0.0, ws) == 1.0

    def test_zero_witness_rejected(self):
        with pytest.raises(ContractViolation):
            operator_norm_witness(
                BLOWUP, SwitchingSignal((), 0), 1.0, [PiecewiseConstantFn.zero(-1.0, 1.0)]
            )

    def test_monotone_in_witness_set(self):
        sig = alternating_signal(0.5, 2.0)
        small = blowup_witnesses(3)
        large = blowup_witnesses(8)
        v_small = operator_norm_witness(BLOWUP, sig, 1.5, small)
        v_large = operator_norm_witness(BLOWUP, sig, 1.5, large)
        assert v_large >= v_small

    def test_cascade_value(self):
        n, p = 4, 2.0
        eps = 4.0 ** -(n + 1)
        sys_ = cascade_system(n, p)
        val = operator_norm_witness(sys_, cascade_signal(n), 1.0 - eps, [edge_witness(eps)])
        assert val == pytest.approx(2.0 ** (n / p), abs=1e-12)

    def test_blowup_staircase_value(self):
        val = operator_norm_witness(
            BLOWUP, alternating_signal(0.5, 2.0), 2.0, blowup_witnesses(8)
        )
        assert val == pytest.approx(16.0, abs=1e-12)


class TestFamilyEnumeration:
    def test_single_constant(self):
        fam = SignalFamily((1.0,), 0, (0,))
        assert list(enumerate_family(fam)) == [SwitchingSignal((), 0)]

    def test_count_six(self):
        fam = SignalFamily((0.5,), 1, (0, 1))
        sigs = list(enumerate_family(fam))
        assert len(sigs) == family_size(fam) == 6

    def test_count_forty_two(self):
        fam = SignalFamily((0.5, 1.0), 2, (0, 1))
        sigs = list(enumerate_family(fam))
        assert len(sigs) == family_size(fam) == 42
        assert len(set(sigs)) == 42

    def test_deterministic_order(self):
        fam = SignalFamily((0.25, 0.5), 2, (0, 1))
        assert list(enumerate_family(fam)) == list(enumerate_family(fam))

    def test_size_error_carries_count(self):
        fam = SignalFamily((0.25, 0.5, 1.0), 8, (0, 1, 2))
        with pytest.raises(FamilySizeError) as exc:
            enumerate_family(fam)
        assert exc.value.count == family_size(fam)

    def test_size_closed_form_matches_the_sum(self):
        for dwells, depth, modes in [((0.5,), 7, (0,)), ((0.5, 1.0), 5, (0, 1, 2))]:
            fam = SignalFamily(dwells, depth, modes)
            n, d = len(modes), len(dwells)
            assert family_size(fam) == sum(n ** (k + 1) * d**k for k in range(depth + 1))

    def test_deep_family_fails_fast(self):
        fam = SignalFamily((0.5,), 20_000, (0, 1))
        with pytest.raises(FamilySizeError, match=r"at least 2\^20001 signals"):
            enumerate_family(fam)
        with pytest.raises(StructuralError, match="max_switches"):
            SignalFamily((0.5,), 10**14, (0, 1))

    def test_constant_signals_enumerated_first(self):
        fam = SignalFamily.default(2)
        sigs = list(enumerate_family(fam))
        assert sigs[0] == SwitchingSignal((), 0)
        assert sigs[1] == SwitchingSignal((), 1)


def exact_key(sig):
    """A signal's trajectory in exact arithmetic: trailing tail-mode segments
    dropped, adjacent equal modes merged with their dwells summed."""
    segs = list(sig.segments)
    while segs and segs[-1][0] == sig.tail_mode:
        segs.pop()
    merged = []
    for m, d in segs:
        if merged and merged[-1][0] == m:
            merged[-1] = (m, merged[-1][1] + Fraction(d))
        else:
            merged.append((m, Fraction(d)))
    return tuple(merged), sig.tail_mode


class TestDistinctTrajectories:
    @pytest.mark.parametrize("dwells,depth,n_modes,count,distinct", [
        ((0.5, 1.0), 1, 2, 10, 6),  # the matrix-certify benchmark family
        ((0.0625, 0.25), 2, 5, 555, 425),  # transport-search
        ((0.25, 0.5, 0.75, 1.0), 3, 2, 1170, 250),  # gram-deep
        ((0.25, 0.5, 1.0), 2, 2, 86, 34),  # the default family on two modes
    ])
    def test_counts(self, dwells, depth, n_modes, count, distinct):
        fam = SignalFamily(dwells, depth, tuple(range(n_modes)))
        raw = list(enumerate_family(fam))
        assert len(raw) == family_size(fam) == count
        assert len(list(distinct_trajectories(raw))) == distinct

    def test_rounded_sums_leave_repeats_in(self):
        # 0.1 + 0.2 rounds, so neither order merges, nor does it meet the
        # different trajectory of the rounded dwell; 0.25 + 0.5 is exact.
        sigs = [SwitchingSignal(segs, 1) for segs in (
            ((0, 0.1), (0, 0.2)), ((0, 0.2), (0, 0.1)), ((0, 0.1 + 0.2),),
            ((0, 0.25), (0, 0.5)), ((0, 0.75),), ((0, 0.75), (1, 0.5)),
        )]
        assert list(distinct_trajectories(sigs)) == sigs[:4]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_modes=st.integers(1, 3),
           n_dwells=st.integers(1, 3), depth=st.integers(0, 3), matrix=st.booleans())
    def test_each_signal_evolves_as_its_representative(self, seed, n_modes, n_dwells,
                                                       depth, matrix):
        rng = np.random.default_rng(seed)
        dwells = tuple(sorted({random_dyadic(rng, 16, 1, 25) for _ in range(n_dwells)}))
        fam = SignalFamily(dwells, depth, tuple(range(n_modes)))
        if matrix:
            dim = int(rng.integers(1, 4))
            modes = tuple(matrix_mode(rng.uniform(-1.0, 1.0, (dim, dim)).tolist())
                          for _ in range(n_modes))
            sys_ = SwitchedSystem(modes, NormSpec.euclidean())
            x = euclidean_state(rng.standard_normal(dim))
        else:
            sys_, x = cascade_system(n_modes), random_dyadic_fn(rng, 0.0, 1.0)
        times = [random_dyadic(rng, 16, 0, 97) for _ in range(3)]
        raw = list(enumerate_family(fam))
        first = {}
        for sig in raw:
            first.setdefault(exact_key(sig), sig)
        assert list(distinct_trajectories(raw)) == list(first.values())
        for sig in raw:
            rep = first[exact_key(sig)]
            for t in times:
                got, want = evolve(sys_, sig, t, x), evolve(sys_, rep, t, x)
                if matrix:
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
                else:
                    assert got == want


class TestSystemValidation:
    def test_mixed_kinds_rejected(self):
        with pytest.raises(StructuralError):
            SwitchedSystem((matrix_mode([[-1.0]]), BLOWUP.modes[0]), NormSpec.euclidean())

    def test_matrix_dimensions_must_agree(self):
        with pytest.raises(StructuralError, match="different dimensions"):
            SwitchedSystem(
                (matrix_mode([[-1.0, 0.0], [0.0, -2.0]]), matrix_mode([[-1.0]])),
                NormSpec.euclidean(),
            )

    def test_norm_kind_must_match(self):
        with pytest.raises(StructuralError):
            SwitchedSystem((matrix_mode([[-1.0]]),), NormSpec(2.0))

    def test_signal_validation(self):
        with pytest.raises(StructuralError):
            SwitchingSignal(((0, 0.0),), 0)
        with pytest.raises(StructuralError):
            SwitchingSignal(((0, 1.0),), -1)

    def test_signal_errors_name_the_field(self):
        with pytest.raises(StructuralError, match=r"^segments\[1\]\.dwell: "):
            SwitchingSignal(((0, 1.0), (1, -0.5)), 0)
        with pytest.raises(StructuralError, match=r"^segments\[0\]\.mode: "):
            SwitchingSignal(((-1, 1.0),), 0)
        with pytest.raises(StructuralError, match="^tail: "):
            SwitchingSignal((), -1)
        # from_json passes the constructor's error through unwrapped
        with pytest.raises(StructuralError, match=r"^segments\[0\]\.dwell: "):
            SwitchingSignal.from_json({"segments": [[0, 0.0]], "tail": 0})
        with pytest.raises(StructuralError,
                           match=r"^segments: must be a list of \[mode, dwell\] pairs"):
            SwitchingSignal.from_json({"segments": 3, "tail": 0})

    def test_system_from_json(self):
        pair = SwitchedSystem.from_json(
            {"modes": [{"kind": "matrix", "A": [[-1.0]]}, {"kind": "diagonal_group", "mu": 1.0}]}
        )
        assert pair.norm == NormSpec.euclidean() and pair.n_modes == 2
        transport = SwitchedSystem.from_json({"modes": [{"kind": "half_line_shift"}]})
        assert transport.norm == NormSpec(2.0)
        l1 = SwitchedSystem.from_json(
            {"modes": [{"kind": "half_line_shift"}], "norm": {"kind": "lp", "p": 1.0}}
        )
        assert l1.norm == NormSpec(1.0)
        with pytest.raises(StructuralError, match=r"^modes\[1\]: unknown mode kind"):
            SwitchedSystem.from_json({"modes": [{"kind": "half_line_shift"}, {"kind": "x"}]})
        with pytest.raises(StructuralError, match="^modes: must be a list of mode objects"):
            SwitchedSystem.from_json({"modes": 5})

    def test_signal_json_roundtrip(self):
        sig = SwitchingSignal(((0, 0.5), (1, 0.25)), 1)
        assert SwitchingSignal.from_json(sig.to_json()) == sig


def test_active_mode():
    sig = SwitchingSignal(((0, 0.5), (1, 0.5)), 0)
    assert sig.active_mode(0.0) == 0
    assert sig.active_mode(0.5) == 1
    assert sig.active_mode(0.999) == 1
    assert sig.active_mode(1.0) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_active_mode_refuses_times_outside_zero_to_infinity(t):
    with pytest.raises(ContractViolation):
        SwitchingSignal(((0, 1.0),), 1).active_mode(t)


def test_scalar_system_evolution():
    sys_ = scalar_mode_system((-1.0, -2.0))
    x = euclidean_state([1.0])
    sig = SwitchingSignal(((0, 1.0),), 1)
    out = evolve(sys_, sig, 2.0, x)
    assert out[0] == pytest.approx(np.exp(-1.0) * np.exp(-2.0), rel=1e-12)
