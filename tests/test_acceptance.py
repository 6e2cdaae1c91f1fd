"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Criterion 8 is implemented exactly as stated and fails:
its decay-rate constant mu = 1/(2c) overstates the decay whenever c < C
(the commuting pair it prescribes has c = 3/8 < C = 1/2, hence mu = 4/3,
while the true worst-case rate is 1).  The companion test afterwards shows
the loop closes with the attainable rate mu = 1/(2C).
"""

import math
import time

import numpy as np
import pytest

from swlyap import (
    PiecewiseConstantFn,
    SignalFamily,
    SwitchingSignal,
    apply,
    argmax_set,
    augment_system,
    candidates_from_family,
    directional_derivative,
    enumerate_family,
    euclidean_state,
    evolve,
    family_max,
    generalized_derivative,
    gram_of_signal,
    lp_norm,
    matrix_mode,
    operator_norm_witness,
    shift_signal,
    state_norm,
    trajectory_cost,
    v_max,
    v_sup,
    v_tilde,
    v_tilde_single_mode,
)
from swlyap.gram import GramOperator
from swlyap.lyapunov import DEFAULT_HORIZON
from swlyap.presets import (
    alternating_signal,
    blowup_transport_pair,
    blowup_witnesses,
    cascade_signal,
    cascade_system,
    commuting_diag_pair,
    edge_witness,
    half_line_system,
    scalar_mode_system,
)
from swlyap.state_space import NormSpec
from swlyap.switching import SwitchedSystem

from oracle_quadrature import quadrature_gram, random_hurwitz
from test_state_space import random_dyadic_fn


def check(num, ok, detail):
    line = f"criterion {num:>3}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


# -- shared random Hurwitz batch (criteria 6 and 7) ------------------------------


def _hurwitz_batch():
    rng = np.random.default_rng(2024)
    batch = []
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        sys_ = SwitchedSystem(
            (matrix_mode(random_hurwitz(rng, dim)), matrix_mode(random_hurwitz(rng, dim))),
            NormSpec.euclidean(),
        )
        signals = []
        for _ in range(10):
            n_seg = int(rng.integers(0, 4))
            segs = tuple(
                (int(rng.integers(0, 2)), float(rng.uniform(0.1, 1.5))) for _ in range(n_seg)
            )
            signals.append(SwitchingSignal(segs, int(rng.integers(0, 2))))
        xs = [euclidean_state(rng.standard_normal(dim)) for _ in range(20)]
        batch.append((sys_, signals, xs))
    return batch


@pytest.fixture(scope="module")
def hurwitz_batch():
    return _hurwitz_batch()


def test_criterion_01_blowup_staircase():
    sys_ = blowup_transport_pair()
    witnesses = blowup_witnesses(8)
    t0 = time.monotonic()
    worst_gap = 0.0
    for delta in (0.5, 0.25):
        sig = alternating_signal(delta, 2.0)
        steps = int(round(2.0 / delta))
        for k in range(1, steps + 1):
            t = k * delta
            bound = 2.0**k
            val = operator_norm_witness(sys_, sig, t, witnesses)
            assert val >= bound - 1e-12
            # the finest witness attains the staircase value exactly
            fine = operator_norm_witness(sys_, sig, t, witnesses[-1:])
            worst_gap = max(worst_gap, abs(val - bound), abs(fine - bound))
    elapsed = time.monotonic() - t0
    check(
        1,
        worst_gap <= 1e-12 and elapsed < 1.0,
        f"staircase 2^(t/delta) attained, max gap {worst_gap:.2e}, {elapsed * 1000:.0f} ms",
    )


def test_criterion_02_cascade_energy_bound():
    rng = np.random.default_rng(32)
    sys6 = cascade_system(6, 2.0)
    signals = []
    for _ in range(200):
        k = int(rng.integers(0, 6))
        segs = tuple(
            (int(rng.integers(0, 6)), float(rng.integers(1, 33)) / 64.0) for _ in range(k)
        )
        signals.append(SwitchingSignal(segs, int(rng.integers(0, 6))))
    witnesses = []
    while len(witnesses) < 50:
        f = random_dyadic_fn(rng, 0.0, 1.0, denom=128, max_breaks=6)
        if not f.is_zero():
            witnesses.append((f, lp_norm(f, sys6.norm) ** 2))
    worst = -math.inf
    for sig in signals:
        for f, n2 in witnesses:
            cost = trajectory_cost(sys6, sig, f, horizon=1.25)
            worst = max(worst, cost - 1.5 * n2)
    check(2, worst <= 1e-9, f"energy <= 1.5 ||f||^2 over 10000 pairs, max excess {worst:.2e}")


def test_criterion_03_cascade_growth_exact():
    worst = 0.0
    for n in (2, 3, 4):
        eps = 4.0 ** -(n + 1)
        sys_ = cascade_system(n, 2.0)
        ratio = operator_norm_witness(
            sys_, cascade_signal(n), 1.0 - eps, [edge_witness(eps)]
        )
        worst = max(worst, abs(ratio - 2.0 ** (n / 2.0)))
    check(3, worst <= 1e-12, f"edge-witness ratio 2^(n/2) for n=2,3,4, max gap {worst:.2e}")


def test_criterion_04_nilpotency():
    sys_ = blowup_transport_pair()
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(20):
        f = random_dyadic_fn(rng)
        for t in (2.0, 2.25, 3.0):
            out = apply(sys_.modes[0], t, f)
            ok = ok and out.is_zero() and lp_norm(out, sys_.norm) == 0.0
    check(4, ok, "left transport mode is exactly zero for t >= 2 on 20 random states")


def test_criterion_05_scalar_v_closed_form():
    sys_ = scalar_mode_system((-1.0, -2.0))
    x = euclidean_state([1.0])
    est = v_sup(sys_, x)
    value_ok = abs(est.value - 0.5) <= 1e-3
    witness_ok = est.witness == SwitchingSignal((), 0)
    fam = SignalFamily.default(2)
    v = lambda y: family_max(sys_, enumerate_family(fam), y, DEFAULT_HORIZON)[1]
    derivs = [generalized_derivative(v, sys_, j, x).value for j in range(2)]
    deriv_ok = all(d <= -1.0 * (1.0 - 0.05) for d in derivs)
    check(
        5,
        value_ok and witness_ok and deriv_ok,
        f"v_sup={est.value:.6f} (0.5), witness constant slow mode, derivs={[f'{d:.3f}' for d in derivs]}",
    )


def test_criterion_06_gram_vs_quadrature(hurwitz_batch):
    t0 = time.monotonic()
    worst = 0.0
    n_checked = 0
    for sys_, signals, xs in hurwitz_batch:
        for sig in signals:
            B = gram_of_signal(sys_, sig).B
            W = quadrature_gram(sys_, sig)
            for x in xs:
                got = float(x @ B @ x)
                want = float(x @ W @ x)
                worst = max(worst, abs(got - want) / max(abs(want), 1e-30))
                n_checked += 1
    elapsed = time.monotonic() - t0
    check(
        6,
        worst <= 1e-6 and elapsed < 30.0,
        f"{n_checked} quadratic forms vs quadrature, max rel err {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_07_directional_derivative(hurwitz_batch):
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    n_smooth = 0
    for sys_, signals, xs in hurwitz_batch[:5]:
        cands = tuple(gram_of_signal(sys_, sig) for sig in signals)
        for x in xs[:8]:
            if np.linalg.norm(x) < 0.1:
                continue
            # smooth point: the runner-up candidate is clearly separated, so
            # the maximizer cannot switch across the finite-difference step
            s = argmax_set(cands, x, tol=1e-4)
            tied = [cands[i].B for i in s.indices]
            if max(float(np.linalg.norm(b - tied[0], 2)) for b in tied) > 1e-9:
                continue
            psi = euclidean_state(rng.standard_normal(x.size))
            dd = directional_derivative(cands, x, psi)

            def fwd(h):
                return (v_max(cands, euclidean_state(x + h * psi)) - v_max(cands, x)) / h

            # v_max is locally quadratic here, so extrapolating two one-sided
            # quotients reproduces the one-sided derivative up to roundoff
            h = 1e-5
            fd = 2.0 * fwd(0.5 * h) - fwd(h)
            worst_rel = max(worst_rel, abs(fd - dd) / max(abs(dd), 1e-9))
            n_smooth += 1
    sig0 = SwitchingSignal((), 0)
    tie_cands = (
        GramOperator(np.diag([1.0, 0.0]), sig0),
        GramOperator(np.diag([0.0, 1.0]), sig0),
    )
    x_tie = euclidean_state(np.array([1.0, 1.0]) / math.sqrt(2.0))
    tie_val = directional_derivative(tie_cands, x_tie, euclidean_state([1.0, 0.0]))
    tie_gap = abs(tie_val - math.sqrt(2.0))
    check(
        7,
        n_smooth >= 20 and worst_rel <= 1e-4 and tie_gap <= 1e-10,
        f"{n_smooth} smooth points, max FD rel err {worst_rel:.2e}; tie value gap {tie_gap:.1e}",
    )


def _gronwall_loop_violation(mu_from_upper: bool):
    """Worst envelope violation for the commuting-pair certificate loop."""
    sys_ = commuting_diag_pair()
    rng = np.random.default_rng(88)
    cands = candidates_from_family(sys_, SignalFamily.default(2))
    xs = []
    for _ in range(100):
        v = rng.standard_normal(2)
        xs.append(euclidean_state(v / np.linalg.norm(v)))
    vals = [v_max(cands, x) for x in xs]
    c_hat, C_hat = min(vals), max(vals)
    K = math.sqrt(C_hat / c_hat)
    mu = 1.0 / (2.0 * C_hat) if mu_from_upper else 1.0 / (2.0 * c_hat)
    signals = []
    for _ in range(200):
        k = int(rng.integers(0, 5))
        segs = tuple(
            (int(rng.integers(0, 2)), float(rng.choice([0.25, 0.5, 1.0]))) for _ in range(k)
        )
        signals.append(SwitchingSignal(segs, int(rng.integers(0, 2))))
    t_grid = [0.25 * k for k in range(0, 41)]
    worst = 0.0
    for i, sig in enumerate(signals):
        x0 = xs[i % len(xs)]
        for t in t_grid:
            lhs = state_norm(evolve(sys_, sig, t, x0), sys_.norm)
            bound = K * math.exp(-mu * t) * 1.0 * (1.0 + 1e-6)
            worst = max(worst, lhs / bound)
    return c_hat, C_hat, worst


def test_criterion_08_gronwall_loop_as_stated():
    # mu = 1 / (2 c): with c = min v_max = 3/8 < C = 1/2 this prescribes decay
    # rate 4/3, but the slowest trajectories of the pair decay only like e^{-t},
    # so the envelope is provably violated at moderate times.  The criterion is
    # kept as stated; see the companion test for the attainable constant.
    c_hat, C_hat, worst = _gronwall_loop_violation(mu_from_upper=False)
    check(
        8,
        worst <= 1.0,
        f"c={c_hat:.4f}, C={C_hat:.4f}, mu=1/(2c)={1 / (2 * c_hat):.4f}: "
        f"worst trajectory/envelope ratio {worst:.3f} (rate overstated; see notes)",
    )


def test_criterion_08_companion_rate_from_upper_constant():
    # same loop with mu = 1/(2C), the rate a V-comparison argument delivers
    c_hat, C_hat, worst = _gronwall_loop_violation(mu_from_upper=True)
    check(
        "8b",
        worst <= 1.0,
        f"c={c_hat:.4f}, C={C_hat:.4f}, mu=1/(2C)={1 / (2 * C_hat):.4f}: "
        f"worst trajectory/envelope ratio {worst:.3f}",
    )


def test_criterion_09_augmentation_lower_bound():
    rng = np.random.default_rng(9)
    aug = augment_system(commuting_diag_pair(), 1.0)
    fam = SignalFamily((0.5, 1.0), 1, (0, 1, 2))
    worst = -math.inf
    for _ in range(50):
        x = euclidean_state(rng.standard_normal(2))
        value = family_max(aug, enumerate_family(fam), x, DEFAULT_HORIZON)[1]
        short = 0.5 * state_norm(x, aug.norm) ** 2 - value
        worst = max(worst, short)
    check(9, worst <= 1e-6, f"v_sup >= ||x||^2 / 2 after augmentation, max shortfall {worst:.2e}")


def test_criterion_10_half_line_strong_but_not_uniform():
    sys_ = half_line_system(1.0)
    sig = SwitchingSignal((), 0)
    rng = np.random.default_rng(10)
    dies_ok = True
    for _ in range(5):
        hi = float(rng.integers(2, 9))
        f = PiecewiseConstantFn.indicator(0.0, 16.0, hi - 1.5, hi)
        dies_ok = dies_ok and state_norm(evolve(sys_, sig, hi, f), sys_.norm) == 0.0
    unit_ok = True
    for t in range(1, 11):
        w = PiecewiseConstantFn.indicator(0.0, 16.0, float(t), float(t) + 1.0)
        unit_ok = unit_ok and operator_norm_witness(sys_, sig, float(t), [w]) == 1.0
    check(10, dies_ok and unit_ok, "compact mass dies in finite time; norm ratio 1 at t=1..10")


def test_criterion_11_concatenation_law():
    rng = np.random.default_rng(11)
    transport = blowup_transport_pair()
    matrices = commuting_diag_pair()
    exact_ok = True
    for _ in range(50):
        f = random_dyadic_fn(rng)
        segs = tuple(
            (int(rng.integers(0, 2)), float(rng.integers(1, 33)) / 64.0)
            for _ in range(int(rng.integers(0, 4)))
        )
        sig = SwitchingSignal(segs, int(rng.integers(0, 2)))
        s = float(rng.integers(0, 65)) / 64.0
        t = float(rng.integers(0, 65)) / 64.0
        lhs = evolve(transport, sig, t + s, f)
        rhs = evolve(transport, shift_signal(sig, s), t, evolve(transport, sig, s, f))
        exact_ok = exact_ok and lhs == rhs
    worst_rel = 0.0
    for _ in range(50):
        x = euclidean_state(rng.standard_normal(2))
        segs = tuple(
            (int(rng.integers(0, 2)), float(rng.uniform(0.1, 1.2)))
            for _ in range(int(rng.integers(0, 4)))
        )
        sig = SwitchingSignal(segs, int(rng.integers(0, 2)))
        s = float(rng.uniform(0.0, 2.0))
        t = float(rng.uniform(0.0, 2.0))
        lhs = evolve(matrices, sig, t + s, x)
        rhs = evolve(matrices, shift_signal(sig, s), t, evolve(matrices, sig, s, x))
        worst_rel = max(
            worst_rel, float(np.linalg.norm(lhs - rhs)) / max(1e-30, float(np.linalg.norm(lhs)))
        )
    check(
        11,
        exact_ok and worst_rel <= 1e-10,
        f"50 transport cases exact, 50 matrix cases max rel err {worst_rel:.2e}",
    )


def test_criterion_12_single_mode_alternative_functional():
    mode = matrix_mode([[-1.0]])
    x = euclidean_state([1.0])
    direct = v_tilde_single_mode(mode, 1.0, x)
    gap_closed_form = abs(direct - 0.5)
    aug = augment_system(
        SwitchedSystem((mode,), NormSpec.euclidean()), 1.0
    )
    fam = SignalFamily((0.5, 1.0), 1, (0, 1))
    cross = v_tilde(aug, x, fam, horizon=10.0)
    gap_cross = abs(direct - cross.value)
    check(
        12,
        gap_closed_form <= 2e-3 and gap_cross <= 5e-3,
        f"explicit formula {direct:.6f} vs 0.5 (gap {gap_closed_form:.1e}); "
        f"vs augmented-family functional gap {gap_cross:.1e}",
    )
