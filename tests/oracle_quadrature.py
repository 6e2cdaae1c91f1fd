"""Independent quadrature oracles for trajectory energy.

These deliberately avoid the Lyapunov-solve and block-exponential routes used
by the library: everything here is plain composite Gauss-Legendre applied to
state-transition matrices, so agreement with the library is a two-route check.
"""

import numpy as np
from scipy.linalg import expm

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)


def _panel_nodes(a, b):
    h = 0.5 * (b - a)
    m = 0.5 * (a + b)
    return m + h * _NODES, h * _WEIGHTS


def _gram_increment(A, phi0, d):
    """integral(0, d) of Phi(t)' Phi(t) dt with Phi(t) = e^{At} phi0, by GL panels."""
    norm_a = max(np.linalg.norm(A, 2), 1e-6)
    n_panels = max(1, int(np.ceil(d * norm_a / 2.0)), int(np.ceil(d / 1.0)))
    edges = np.linspace(0.0, d, n_panels + 1)
    W = np.zeros_like(A)
    for a, b in zip(edges[:-1], edges[1:]):
        ts, ws = _panel_nodes(a, b)
        for t, w in zip(ts, ws):
            M = expm(A * t) @ phi0
            W += w * (M.T @ M)
    return W


def tail_horizon(A, rel=1e-12):
    alpha = float(np.max(np.linalg.eigvals(A).real))
    assert alpha < 0, "tail must be Hurwitz"
    return min(400.0, (35.0 - np.log(rel) / 3.0) / (2.0 * abs(alpha)))


def _mode_matrix(mode, dim):
    if hasattr(mode, "matrix"):
        return mode.matrix
    return -mode.mu * np.eye(dim)


def quadrature_gram(sys, sig):
    """Trajectory-energy operator of a signal by pure transition quadrature."""
    dim = next(m.dim for m in sys.modes if hasattr(m, "dim"))
    phi = np.eye(dim)
    W = np.zeros((dim, dim))
    for mode_id, dwell in sig.segments:
        A = _mode_matrix(sys.mode(mode_id), dim)
        W += _gram_increment(A, phi, dwell)
        phi = expm(A * dwell) @ phi
    A_tail = _mode_matrix(sys.mode(sig.tail_mode), dim)
    W += _gram_increment(A_tail, phi, tail_horizon(A_tail))
    return 0.5 * (W + W.T)


def quadrature_segment_energy(A, d):
    """integral(0, d) e^{A't} e^{At} dt by Gauss-Legendre panels."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return _gram_increment(A, np.eye(A.shape[0]), d)


def quadrature_stationary_energy(A):
    """integral(0, inf) e^{A't} e^{At} dt for Hurwitz A, by truncated quadrature."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return _gram_increment(A, np.eye(A.shape[0]), tail_horizon(A))


def random_hurwitz(rng, dim, margin_lo=0.5, margin_hi=1.5):
    """Random matrix shifted so its spectral abscissa is a negative margin."""
    M = rng.standard_normal((dim, dim))
    alpha = float(np.max(np.linalg.eigvals(M).real))
    margin = float(rng.uniform(margin_lo, margin_hi))
    return M - (alpha + margin) * np.eye(dim)


def adaptive_simpson_energy(A, d, x, rtol=1e-9):
    """integral(0, d) ||e^{tau A} x||^2 dtau by recursive adaptive Simpson over
    ``scipy.linalg.expm`` at every node.

    This is the depth-first recursion the library used before its matrix
    energies ran one Simpson level at a time: the same tolerance relative to
    the three-point estimate, halved with the interval, acceptance at
    |fine - whole| <= 15 eps with the (fine - whole) / 15 correction, and
    unconditional acceptance at depth 36.  Agreement far below ``rtol`` shows
    the level-at-a-time kernel kept the recursion's partition.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    x = np.asarray(x, dtype=float)

    def g(tau):
        y = expm(A * tau) @ x
        return float(y @ y)

    a, b = 0.0, d
    fa, fm, fb = g(a), g(0.5 * (a + b)), g(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    eps0 = rtol * (abs(whole) + 1e-300)

    def rec(a, b, fa, fm, fb, whole, eps, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = g(lm), g(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        fine = left + right
        if depth <= 0 or abs(fine - whole) <= 15.0 * eps:
            return fine + (fine - whole) / 15.0
        return rec(a, m, fa, flm, fm, left, 0.5 * eps, depth - 1) + rec(
            m, b, fm, frm, fb, right, 0.5 * eps, depth - 1
        )

    return rec(a, b, fa, fm, fb, whole, eps0, 36)
