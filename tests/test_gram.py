import math
import sys
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest

from swlyap import (
    ContractViolation,
    DegenerateInputError,
    DiagonalGroupMode,
    EstimationError,
    InvalidStateError,
    NormSpec,
    SignalFamily,
    StructuralError,
    SwitchedSystem,
    SwitchingSignal,
    UnstableTailError,
    argmax_set,
    candidates_from_family,
    directional_derivative,
    enumerate_family,
    euclidean_state,
    fit_decay,
    gram_of_signal,
    lyapunov_solve,
    matrix_mode,
    norm_ratio_samples,
    segment_energy,
    trajectory_cost,
    v_max,
)
from swlyap import gram
from swlyap.gram import GramOperator
from swlyap.presets import commuting_diag_pair, scalar_mode_system

from oracle_quadrature import (
    quadrature_gram,
    quadrature_segment_energy,
    quadrature_stationary_energy,
    random_hurwitz,
)


class TestLyapunovSolve:
    def test_scalar(self):
        P = lyapunov_solve([[-1.0]], [[1.0]])
        assert P[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_negated_identity(self):
        P = lyapunov_solve(-np.eye(3), np.eye(3))
        assert np.allclose(P, 0.5 * np.eye(3), rtol=1e-14)

    def test_residual_and_quadrature_oracle(self):
        A = np.array([[-1.0, 1.0], [0.0, -2.0]])
        P = lyapunov_solve(A, np.eye(2))
        assert np.linalg.norm(A.T @ P + P @ A + np.eye(2)) <= 1e-10 * np.sqrt(2.0)
        W = quadrature_stationary_energy(A)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(2)
            assert float(x @ P @ x) == pytest.approx(float(x @ W @ x), rel=1e-8)

    @pytest.mark.parametrize("b", [1e4, 1e8, 1e12])
    def test_non_normal_closed_form(self, b):
        # the residual's rounding scales with ||A|| ||P||, far above 1e-10 ||Q||
        P = lyapunov_solve([[-1.0, b], [0.0, -1.0]], np.eye(2))
        want = np.array([[0.5, b / 4], [b / 4, b * b / 4 + 0.5]])
        assert np.all(np.abs(P - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("A", [[[-1.0, 1.0], [0.0, -2.0]], [[-1.0, 1e4], [0.0, -1.0]]])
    def test_perturbed_solution_is_refused(self, A, monkeypatch):
        # the correction comes back off by 1e-6 ||P|| in a fixed symmetric direction
        energy, first = gram._energy, []

        def perturbed(*args):
            G = energy(*args)
            first.append(G)
            return G if len(first) == 1 else G + 1e-6 * np.linalg.norm(first[0]) * np.eye(2)[::-1]

        monkeypatch.setattr(gram, "_energy", perturbed)
        with pytest.raises(EstimationError, match="Lyapunov residual too large"):
            lyapunov_solve(A, np.eye(2))

    def test_an_overflowing_norm_is_an_estimation_error(self):
        # ||A||_1 overflows: the step count was log2(0), a ValueError
        with pytest.raises(EstimationError, match="no finite step count"):
            lyapunov_solve([[-1e308, 1e308], [0.0, -1e308]], np.eye(2))

    def test_rejects_non_hurwitz(self):
        with pytest.raises(UnstableTailError):
            lyapunov_solve([[1.0]], [[1.0]])
        with pytest.raises(UnstableTailError):
            lyapunov_solve([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))


class TestSegmentEnergy:
    def test_zero_matrix_gives_identity_scaled(self):
        E = segment_energy(np.zeros((2, 2)), 1.0)
        assert np.allclose(E, np.eye(2), atol=1e-14)

    def test_scalar_long_segment_approaches_half(self):
        E = segment_energy([[-1.0]], 40.0)
        assert E[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_rotation_preserves_norm(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        E = segment_energy(A, 2.0 * math.pi)
        assert np.allclose(E, 2.0 * math.pi * np.eye(2), rtol=1e-10)
        assert np.allclose(E, quadrature_segment_energy(A, 2.0 * math.pi), rtol=1e-8)

    def test_against_quadrature_random(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            A = rng.standard_normal((3, 3))
            d = float(rng.uniform(0.2, 2.0))
            assert np.allclose(
                segment_energy(A, d), quadrature_segment_energy(A, d), rtol=1e-8, atol=1e-10
            )

    @pytest.mark.parametrize("d", [10.0, 20.0, 40.0, 100.0])
    def test_long_dwells_against_quadrature(self, d):
        # the single block exponential loses every digit here (error 1e17 at d=20)
        A = np.array([[-1.0, 0.5], [0.0, -2.0]])
        E = segment_energy(A, d)
        W = quadrature_segment_energy(A, d)
        assert np.allclose(E, W, rtol=1e-10, atol=1e-12)
        assert float(np.min(np.linalg.eigvalsh(E))) > 0.0

    def test_long_dwells_random(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            A = random_hurwitz(rng, 3)
            d = float(rng.uniform(10.0, 100.0))
            assert np.allclose(
                segment_energy(A, d), quadrature_segment_energy(A, d), rtol=1e-9, atol=1e-12
            )

    def test_positive_length_required(self):
        with pytest.raises(ContractViolation):
            segment_energy([[-1.0]], 0.0)

    @pytest.mark.parametrize("A, d, message", [
        ([[1.0]], 1000.0, "overflows"),
        (np.diag([1.0, 2.0]), 400.0, "overflows"),
        ([[1e300]], 1e300, "no finite step count"),
    ], ids=["scalar", "diagonal", "step-count"])
    def test_overflow_is_an_estimation_error(self, A, d, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match=message):
                segment_energy(A, d)

    def test_largest_finite_energy_returned(self):
        # (e^710 - 1) / 2 is finite, twice it is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = segment_energy([[1.0]], 355.0)
        assert E[0, 0] == pytest.approx(0.5 * math.exp(355.0) * math.exp(355.0), rel=1e-12)


def triangular_energy(a, b, c, d, lower):
    """integral(0, d) e^{A't} e^{At} dt of A = [[a, b], [0, c]], or of
    [[a, 0], [b, c]] when ``lower``, at 30 digits: with e^{At} = [[p, q], [0, r]]
    (or its lower twin), p = e^{at}, r = e^{ct} and q = b (p - r) / (a - c), or
    b t e^{at} when a = c, every entry is a sum of integrals of t^m e^{lam t}."""
    a, b, c, d = map(mpmath.mpf, (a, b, c, d))

    def E(lam, m=0):
        return mpmath.quad(lambda t: t**m * mpmath.exp(lam * t), [0, d])

    if a == c:
        pq = qr = b * E(2 * a, 1)
        qq = b * b * E(2 * a, 2)
    else:
        pq = b * (E(2 * a) - E(a + c)) / (a - c)
        qr = b * (E(a + c) - E(2 * c)) / (a - c)
        qq = b * b * (E(2 * a) - 2 * E(a + c) + E(2 * c)) / (a - c) ** 2
    pp, rr = E(2 * a), E(2 * c)
    G = [[pp + qq, qr], [qr, rr]] if lower else [[pp, pq], [pq, qq + rr]]
    return np.array(G, dtype=float)


def triangular_cases(lower, top_b, n=40):
    """n modes drawn from one seeded generator: a and c in [-3, 1], equal in
    every fifth case, 1 <= |b| <= top_b, d in [0.25, 4]."""
    rng = np.random.default_rng(2026)
    for i in range(n):
        a, c = rng.uniform(-3.0, 1.0, 2)
        c = a if i % 5 == 0 else c
        d = rng.uniform(0.25, 4.0)
        b = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, math.log10(top_b))
        yield float(a), float(b), float(c), float(d)


class TestSegmentEnergyTriangular:
    """Triangular 2x2 modes with a large off-diagonal b, against a 30-digit
    reference.  ||A||_1 is about |b|, far above the growth eta of A's powers:
    a step taken from ||A||_1 would be tiny, and the doublings would square
    away the digits of Phi's diagonal, which rounds to 1.  No case may raise:
    each energy is far inside the double range."""

    @pytest.mark.parametrize("lower, top_b, rtol", [(False, 1e30, 1e-12), (True, 1e20, 1e-10)],
                             ids=["upper", "lower"])
    def test_matches_the_reference(self, lower, top_b, rtol):
        for a, b, c, d in triangular_cases(lower, top_b):
            A = [[a, 0.0], [b, c]] if lower else [[a, b], [0.0, c]]
            try:
                got = segment_energy(A, d)
            except EstimationError as exc:
                pytest.fail(f"A = {A}, d = {d} raised {exc}")
            want = triangular_energy(a, b, c, d, lower)
            assert np.all(np.abs(got - want) <= rtol * np.abs(want)), (A, d)

    @pytest.mark.parametrize("a, b, c, d, lower", [
        (1.0, 1e20, 1.0, 1.0, False),
        (-1.0, 1e30, -2.0, 2.0, False),
        (-0.5, 1e12, -3.0, 1.5, True),
    ])
    def test_named_cases(self, a, b, c, d, lower):
        A = [[a, 0.0], [b, c]] if lower else [[a, b], [0.0, c]]
        want = triangular_energy(a, b, c, d, lower)
        assert np.all(np.abs(segment_energy(A, d) - want) <= 1e-13 * np.abs(want))


class TestGramOfSignal:
    def test_constant_scalar(self):
        sys_ = scalar_mode_system((-1.0,))
        g = gram_of_signal(sys_, SwitchingSignal((), 0))
        assert g.B[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_constant_signal_equals_lyapunov_solve(self):
        A = np.array([[-1.0, 0.5], [0.0, -2.0]])
        sys_ = commuting_diag_pair()
        sys_ = type(sys_)((matrix_mode(A),), sys_.norm)
        g = gram_of_signal(sys_, SwitchingSignal((), 0))
        assert np.allclose(g.B, lyapunov_solve(A, np.eye(2)), rtol=1e-12)

    def test_one_switch_matches_quadrature(self):
        sys_ = commuting_diag_pair()
        sig = SwitchingSignal(((0, 1.0),), 1)
        g = gram_of_signal(sys_, sig)
        W = quadrature_gram(sys_, sig)
        assert np.allclose(g.B, W, rtol=1e-8, atol=1e-10)

    def test_long_dwell_signal_is_psd(self):
        A = np.array([[-1.0, 0.5], [0.0, -2.0]])
        sys_ = type(commuting_diag_pair())((matrix_mode(A),), commuting_diag_pair().norm)
        sig = SwitchingSignal(((0, 40.0),), 0)
        g = gram_of_signal(sys_, sig)
        assert np.allclose(g.B, quadrature_gram(sys_, sig), rtol=1e-8, atol=1e-10)

    def test_unstable_tail_names_mode(self):
        sys_ = scalar_mode_system((-1.0, 1.0))
        with pytest.raises(UnstableTailError, match="tail mode 1"):
            gram_of_signal(sys_, SwitchingSignal(((0, 1.0),), 1))

    def test_oracle_equivalence_with_trajectory_cost(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            dim = int(rng.integers(2, 5))
            sys_ = type(commuting_diag_pair())(
                (matrix_mode(random_hurwitz(rng, dim)), matrix_mode(random_hurwitz(rng, dim))),
                commuting_diag_pair().norm,
            )
            n_seg = int(rng.integers(0, 4))
            sig = SwitchingSignal(
                tuple((int(rng.integers(0, 2)), float(rng.uniform(0.1, 1.5))) for _ in range(n_seg)),
                int(rng.integers(0, 2)),
            )
            g = gram_of_signal(sys_, sig)
            for _ in range(20):
                x = euclidean_state(rng.standard_normal(dim))
                quad = trajectory_cost(sys_, sig, x, horizon=60.0)
                assert float(x @ g.B @ x) == pytest.approx(quad, rel=1e-6)

    def test_norm_bounded_by_decay_constants(self):
        sys_ = commuting_diag_pair()
        fam = SignalFamily((0.5, 1.0), 1, (0, 1))
        witnesses = [euclidean_state(v) for v in ([1.0, 0.0], [0.0, 1.0], [0.7, 0.7])]
        grid = [0.25 * k for k in range(1, 41)]
        decay = fit_decay(norm_ratio_samples(sys_, fam, grid, witnesses))
        cands = candidates_from_family(sys_, fam)
        bound = decay.K**2 / (2.0 * decay.mu)
        for c in cands:
            top = float(np.max(np.linalg.eigvalsh(c.B)))
            assert top <= bound * (1.0 + 1e-6)


def reference_gram(sys_, sig):
    """The plain per-signal loop: every signal assembled from t = 0."""
    dim = gram._system_dim(sys_)
    B = np.zeros((dim, dim))
    Phi = np.eye(dim)
    for mode_id, dwell in sig.segments:
        Ak = gram._mode_matrix(sys_.mode(mode_id), dim)
        B += Phi.T @ segment_energy(Ak, dwell) @ Phi
        Phi = gram.expm(Ak * dwell) @ Phi
    A_tail = gram._mode_matrix(sys_.mode(sig.tail_mode), dim)
    B += Phi.T @ lyapunov_solve(A_tail, np.eye(dim)) @ Phi
    return 0.5 * (B + B.T)


def three_mode_system(rng, dim=3):
    return SwitchedSystem(
        (
            matrix_mode(random_hurwitz(rng, dim)),
            DiagonalGroupMode(0.8),
            matrix_mode(random_hurwitz(rng, dim)),
        ),
        NormSpec.euclidean(),
    )


def extra_signals(rng, n_modes, length):
    """A long signal, off-grid and long dwells, and a family prefix with an off-grid step."""
    return (
        SwitchingSignal(
            tuple((int(rng.integers(0, n_modes)), float(rng.choice([0.25, 0.7, 12.5])))
                  for _ in range(length)),
            0,
        ),
        SwitchingSignal(((1, 0.3), (0, 40.0)), 1),
        SwitchingSignal(((0, 0.25), (1, 0.5), (0, 0.33)), 0),
    )


class TestMemoizedAssembly:
    @pytest.mark.parametrize("n_modes, seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
    def test_bit_identical_to_per_signal_loop(self, n_modes, seed):
        rng = np.random.default_rng(seed)
        sys_ = three_mode_system(rng)
        fam = SignalFamily((0.25, 0.5, 1.0), 2, tuple(range(n_modes)))
        cands = candidates_from_family(sys_, fam)
        signals = list(enumerate_family(fam))
        assert [c.source_signal for c in cands] == signals
        for c, sig in zip(cands, signals):
            assert np.array_equal(c.B, reference_gram(sys_, sig)), sig
            assert np.array_equal(gram_of_signal(sys_, sig).B, c.B)
        # longer than the recursion limit: the prefix walk must not recurse
        for sig in extra_signals(rng, n_modes, sys.getrecursionlimit() + 100):
            assert np.array_equal(gram_of_signal(sys_, sig).B, reference_gram(sys_, sig)), sig

    def test_one_kernel_call_per_distinct_step_and_tail(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(gram, name, wrapper)

        for name in ("expm", "segment_energy", "lyapunov_solve"):
            counted(name, getattr(gram, name))
        sys_ = three_mode_system(np.random.default_rng(4))
        fam = SignalFamily((0.25, 0.5), 2, (0, 2))
        cands = candidates_from_family(sys_, fam)
        signals = list(enumerate_family(fam))
        steps = {seg for sig in signals for seg in sig.segments}
        tails = {sig.tail_mode for sig in signals}
        assert len(cands) == len(signals) == 2 + 4 * 2 + 8 * 4
        assert len(steps) == 4 and tails == {0, 2}
        # segment_energy takes one block exponential and the step one more;
        # lyapunov_solve takes two, the second for its residual correction
        assert calls == {"segment_energy": 4, "expm": 12, "lyapunov_solve": 2}
        # a fresh assembler per call: nothing is cached between calls
        candidates_from_family(sys_, fam)
        assert calls == {"segment_energy": 8, "expm": 24, "lyapunov_solve": 4}
        gram_of_signal(sys_, SwitchingSignal(((0, 0.25), (1, 0.75)), 2))
        assert calls == {"segment_energy": 10, "expm": 30, "lyapunov_solve": 5}

    def test_unstable_tail_in_a_family_names_mode(self):
        sys_ = scalar_mode_system((-1.0, 1.0))
        with pytest.raises(UnstableTailError, match="tail mode 1 is not Hurwitz"):
            candidates_from_family(sys_, SignalFamily((1.0,), 1, (0, 1)))
        # the stable tail's signals assemble, the unstable mode as a segment too
        assert len(candidates_from_family(sys_, SignalFamily((1.0,), 0, (0,)))) == 1
        assert gram_of_signal(sys_, SwitchingSignal(((1, 1.0),), 0)).B[0, 0] > 0.0


class TestGramOperatorInvariants:
    def test_symmetry_enforced(self):
        with pytest.raises(StructuralError):
            GramOperator(np.array([[1.0, 0.5], [0.0, 1.0]]), SwitchingSignal((), 0))

    def test_psd_enforced(self):
        with pytest.raises(StructuralError):
            GramOperator(np.array([[-1.0, 0.0], [0.0, 1.0]]), SwitchingSignal((), 0))


class TestEntryPointChecks:
    """Malformed or non-finite input raises a library error, never numpy's."""

    def test_nan_matrices_rejected(self):
        with pytest.raises(StructuralError, match="A must have finite entries"):
            lyapunov_solve([[math.nan]], [[1.0]])
        with pytest.raises(StructuralError, match="Q must have finite entries"):
            lyapunov_solve([[-1.0]], [[math.inf]])
        with pytest.raises(StructuralError, match="finite entries"):
            GramOperator(np.array([[math.nan]]), SwitchingSignal())

    @pytest.mark.parametrize("M", [[[1.0, 2.0]], np.zeros((0, 0)), np.zeros((1, 1, 1))])
    def test_non_square_matrices_rejected(self, M):
        with pytest.raises(StructuralError):
            lyapunov_solve(M, M)
        with pytest.raises(StructuralError):
            segment_energy(M, 1.0)
        with pytest.raises(StructuralError):
            GramOperator(M, SwitchingSignal())

    @pytest.mark.parametrize("bad,error", [
        (np.array([1.0]), StructuralError),
        (np.array([1.0, 2.0, 3.0]), StructuralError),
        (np.array([math.nan, 1.0]), InvalidStateError),
        (np.array([1.0, -math.inf]), InvalidStateError),
    ])
    def test_states_and_directions_checked(self, bad, error):
        cands, good = diag_candidates(), euclidean_state([1.0, 0.5])
        with pytest.raises(error):
            v_max(cands, bad)
        with pytest.raises(error):
            argmax_set(cands, bad)
        with pytest.raises(error):
            directional_derivative(cands, bad, good)
        with pytest.raises(error):
            directional_derivative(cands, good, bad)

    def test_argmax_needs_candidates_and_a_tolerance(self):
        with pytest.raises(StructuralError, match="nonempty"):
            argmax_set((), euclidean_state([1.0]))
        with pytest.raises(ContractViolation, match="tol"):
            argmax_set(diag_candidates(), euclidean_state([1.0, 0.5]), math.nan)


def diag_candidates():
    sig = SwitchingSignal((), 0)
    return (
        GramOperator(np.diag([1.0, 0.0]), sig),
        GramOperator(np.diag([0.0, 1.0]), sig),
    )


class TestVMaxAndArgmax:
    def test_single_candidate(self):
        sys_ = scalar_mode_system((-1.0,))
        cands = candidates_from_family(sys_, SignalFamily((1.0,), 0, (0,)))
        x = euclidean_state([2.0])
        assert v_max(cands, x) == pytest.approx(2.0, rel=1e-12)

    def test_zero_state(self):
        assert v_max(diag_candidates(), euclidean_state([0.0, 0.0])) == 0.0

    def test_ordering(self):
        sig = SwitchingSignal((), 0)
        cands = (
            GramOperator(0.5 * np.eye(2), sig),
            GramOperator(0.25 * np.eye(2), sig),
        )
        assert v_max(cands, euclidean_state([1.0, 0.0])) == 0.5

    def test_argmax_singleton_for_distinct_forms(self):
        s = argmax_set(diag_candidates(), euclidean_state([1.0, 0.25]), tol=1e-12)
        assert s.indices == (0,)

    def test_argmax_tie(self):
        x = euclidean_state([1.0, 1.0]) / math.sqrt(2.0)
        s = argmax_set(diag_candidates(), euclidean_state(x), tol=1e-12)
        assert s.indices == (0, 1)

    def test_duplicated_candidate_both_present(self):
        sig = SwitchingSignal((), 0)
        cands = (
            GramOperator(np.eye(2), sig),
            GramOperator(np.eye(2), sig),
        )
        s = argmax_set(cands, euclidean_state([1.0, 0.0]))
        assert s.indices == (0, 1)

    def test_zero_state_degenerate(self):
        with pytest.raises(DegenerateInputError):
            argmax_set(diag_candidates(), euclidean_state([0.0, 0.0]))


class TestDirectionalDerivative:
    def test_single_candidate_pairing(self):
        sig = SwitchingSignal((), 0)
        B = np.array([[2.0, 0.5], [0.5, 1.0]])
        cands = (GramOperator(B, sig),)
        x = euclidean_state([1.0, -1.0])
        psi = euclidean_state([0.5, 2.0])
        assert directional_derivative(cands, x, psi) == pytest.approx(
            2.0 * float(psi @ B @ x), rel=1e-14
        )

    def test_zero_direction(self):
        assert (
            directional_derivative(diag_candidates(), euclidean_state([1.0, 0.5]), np.zeros(2))
            == 0.0
        )

    def test_tie_case_exact(self):
        x = euclidean_state([1.0, 1.0] / np.sqrt(2.0))
        psi = euclidean_state([1.0, 0.0])
        val = directional_derivative(diag_candidates(), x, psi, tol=1e-9)
        assert val == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_matches_one_sided_difference_at_smooth_points(self):
        # smooth means the tied maximizers are one matrix (duplicated grams
        # from trajectory-equal signals do not break differentiability)
        rng = np.random.default_rng(3)
        sys_ = commuting_diag_pair()
        cands = candidates_from_family(sys_, SignalFamily((0.5, 1.0), 1, (0, 1)))
        checked = 0
        for _ in range(200):
            if checked >= 10:
                break
            x = euclidean_state(rng.standard_normal(2))
            if np.linalg.norm(x) < 0.1:
                continue
            s = argmax_set(cands, x, tol=1e-6)
            tied = [cands[i].B for i in s.indices]
            spread = max(float(np.linalg.norm(b - tied[0], 2)) for b in tied)
            if spread > 1e-9:
                continue
            psi = euclidean_state(rng.standard_normal(2))
            dd = directional_derivative(cands, x, psi)
            h = 1e-5
            fd = (v_max(cands, euclidean_state(x + h * psi)) - v_max(cands, x)) / h
            assert fd == pytest.approx(dd, rel=1e-4, abs=1e-8)
            checked += 1
        assert checked == 10

    def test_difference_quotient_at_tie_converges_to_max(self):
        cands = diag_candidates()
        x = euclidean_state([1.0, 1.0] / np.sqrt(2.0))
        psi = euclidean_state([1.0, 0.0])
        dd = directional_derivative(cands, x, psi)
        for h in (1e-3, 1e-4, 1e-5):
            fd = (v_max(cands, euclidean_state(x + h * psi)) - v_max(cands, x)) / h
            assert abs(fd - dd) <= 4.0 * h

    def test_subderivative_inequality(self):
        rng = np.random.default_rng(4)
        sys_ = commuting_diag_pair()
        cands = candidates_from_family(sys_, SignalFamily((0.5, 1.0), 1, (0, 1)))
        for _ in range(20):
            x = euclidean_state(rng.standard_normal(2))
            if np.linalg.norm(x) < 0.1:
                continue
            psi = euclidean_state(0.01 * rng.standard_normal(2))
            gain = v_max(cands, euclidean_state(x + psi)) - v_max(cands, x)
            dd = directional_derivative(cands, x, psi)
            assert gain >= dd - 1e-3 * np.linalg.norm(psi)


class TestVMaxIsSquaredNorm:
    def test_homogeneity_exact(self):
        cands = diag_candidates()
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = euclidean_state(rng.standard_normal(2))
            for c in (2.0, -2.0, 0.5):
                assert v_max(cands, euclidean_state(c * x)) == c * c * v_max(cands, x)

    def test_sqrt_triangle_inequality(self):
        sys_ = commuting_diag_pair()
        cands = candidates_from_family(sys_, SignalFamily((0.5, 1.0), 1, (0, 1)))
        rng = np.random.default_rng(6)
        for _ in range(30):
            x = euclidean_state(rng.standard_normal(2))
            y = euclidean_state(rng.standard_normal(2))
            lhs = math.sqrt(v_max(cands, euclidean_state(x + y)))
            rhs = math.sqrt(v_max(cands, x)) + math.sqrt(v_max(cands, y))
            assert lhs <= rhs + 1e-10
