"""The numpy matrix kernels against scipy, which serves only as a test oracle.

`semigroups.expm` (scaling and squaring with the [13/13] Pade approximant) and
`gram.lyapunov_solve` (the doubled block-exponential energy) replace
`scipy.linalg.expm` and `scipy.linalg.solve_continuous_lyapunov`; the library
itself never imports scipy.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from swlyap import EstimationError, lyapunov_solve
from swlyap.semigroups import _THETA_13, expm

SRC = str(Path(__file__).resolve().parent.parent / "src")
# The 1-norms at which the [3/3], [5/5], [7/7] and [9/9] approximants, since
# deleted, handed over to the next degree; the range they served is now the
# unscaled [13/13]'s, up to theta_13.
DEGREE_BOUNDARIES = [1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                     2.097847961257068e0, _THETA_13]
# The 1-norms above theta_13 at which expm's squaring count s steps from j to j + 1.
SCALING_BOUNDARIES = [_THETA_13 * 2.0**j for j in range(1, 4)]


def rel_error(X, Y):
    return np.linalg.norm(X - Y) / np.linalg.norm(Y)


def with_norm(M, norm):
    """``M`` scaled to the given 1-norm."""
    return M * (norm / np.abs(M).sum(axis=0).max())


@st.composite
def matrices(draw, max_dim=8):
    """A square matrix of dimension 1..max_dim with 1-norm in [1e-12, 30]."""
    n = draw(st.integers(1, max_dim))
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
    M = np.array(entries).reshape(n, n)
    assume(np.abs(M).sum(axis=0).max() > 1e-6)
    return with_norm(M, 10.0 ** draw(st.floats(-12.0, np.log10(30.0))))


class TestExpm:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(A=matrices())
    def test_matches_scipy(self, A):
        assert rel_error(expm(A), scipy.linalg.expm(A)) <= 1e-11

    @pytest.mark.parametrize("theta", DEGREE_BOUNDARIES)
    @pytest.mark.parametrize("factor", [1.0 - 1e-15, 1.0, 1.0 + 1e-15])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_matches_scipy_at_each_degree_boundary(self, theta, factor, n):
        A = with_norm(np.random.default_rng(n).standard_normal((n, n)), theta * factor)
        assert rel_error(expm(A), scipy.linalg.expm(A)) <= 1e-11

    @pytest.mark.parametrize("theta", SCALING_BOUNDARIES)
    @pytest.mark.parametrize("factor", [1.0 - 1e-15, 1.0, 1.0 + 1e-15])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_matches_scipy_at_each_scaling_boundary(self, theta, factor, n):
        A = with_norm(np.random.default_rng(n).standard_normal((n, n)), theta * factor)
        assert rel_error(expm(A), scipy.linalg.expm(A)) <= 1e-11

    def test_exact_cases(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(expm(nilpotent), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_overflow_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="not finite"):
                expm(np.diag([1200.0, 4.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        with pytest.raises(EstimationError):
            expm(np.array([[bad, 0.0], [0.0, -1.0]]))


def triangular_closed_form(a, b, c):
    """e^A of A = [[a, b], [0, c]]: the off-diagonal is b (e^a - e^c) / (a - c),
    written as b e^m sinh(h) / h with m, h = (a + c) / 2, (a - c) / 2; an
    entry past the double range reads inf."""
    m, h = 0.5 * (a + c), 0.5 * (a - c)
    sinhc = math.sinh(h) / h if h else 1.0
    return [[math.exp(a), b * math.exp(m) * sinhc], [0.0, math.exp(c)]]


class TestExpmTriangular:
    """Upper-triangular 2x2 matrices with 1 <= |b| <= 1e300: e^A matches the
    closed form to 1e-13 in every entry, or raises EstimationError, which is
    allowed only when an entry reaches 1e300.  Such a matrix has a 1-norm far
    above its powers' growth d_k = ||A^k||^(1/k), so scaling by the norm would
    overscale it, and the squarings would round its diagonal away."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(a=st.floats(-50.0, 50.0), c=st.floats(-50.0, 50.0), equal=st.booleans(),
           log_b=st.floats(0.0, 300.0), sign=st.sampled_from([-1.0, 1.0]))
    @example(a=1.0, c=1.0, equal=False, log_b=50.0, sign=1.0)
    @example(a=1.0, c=-1.0, equal=False, log_b=300.0, sign=1.0)
    @example(a=2.139, c=-2.999, equal=False, log_b=math.log10(4.33e189), sign=1.0)
    @example(a=1.0, c=1.0, equal=False, log_b=10.0, sign=1.0)
    @example(a=50.0, c=0.0, equal=False, log_b=300.0, sign=-1.0)  # e^A overflows
    def test_matches_the_closed_form_or_raises(self, a, c, equal, log_b, sign):
        c = a if equal else c
        b = sign * 10.0**log_b
        want = np.array(triangular_closed_form(a, b, c))
        try:
            got = expm(np.array([[a, b], [0.0, c]]))
        except EstimationError:  # allowed only at the top of the double range or past it
            assert not np.abs(want).max() < 1e300
            return
        assert np.isfinite(want).all()
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def hurwitz(M, margin):
    """``M`` shifted so its spectral abscissa is -margin."""
    return M - (np.linalg.eigvals(M).real.max() + margin) * np.eye(len(M))


NAMED_HURWITZ = {
    "non-normal": np.array([[-1.0, 100.0], [0.0, -1.0]]),
    "jordan": np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]]),
    "stiff": np.diag([-1e-3, -1e3]),
    "slow": hurwitz(np.random.default_rng(7).standard_normal((5, 5)), 1e-3),
}


def symmetric(rng, n):
    M = rng.standard_normal((n, n))
    return M + M.T


class TestLyapunovSolve:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(M=matrices(), margin=st.floats(-3.0, 0.0), general_q=st.booleans())
    def test_matches_scipy(self, M, margin, general_q):
        A = hurwitz(M, 10.0**margin)
        n = len(A)
        Q = symmetric(np.random.default_rng(n), n) if general_q else np.eye(n)
        P = lyapunov_solve(A, Q)
        assert rel_error(P, scipy.linalg.solve_continuous_lyapunov(A.T, -Q)) <= 1e-10

    @pytest.mark.parametrize("name", NAMED_HURWITZ)
    @pytest.mark.parametrize("general_q", [False, True])
    def test_named_cases_match_scipy(self, name, general_q):
        A = NAMED_HURWITZ[name]
        n = len(A)
        Q = symmetric(np.random.default_rng(1), n) if general_q else np.eye(n)
        P = lyapunov_solve(A, Q)
        assert rel_error(P, scipy.linalg.solve_continuous_lyapunov(A.T, -Q)) <= 1e-10
        assert np.array_equal(P, P.T)


def test_cli_never_imports_scipy(tmp_path):
    pair = {"modes": [{"kind": "matrix", "A": [[-1.0, 0.5], [0.0, -2.0]]},
                      {"kind": "matrix", "A": [[-2.0, 0.0], [0.3, -1.0]]}]}
    family = {"dwells": [0.5], "max_switches": 1}
    configs = {
        "gram": {"system": pair, "family": family, "state": {"coords": [1.0, 1.0]}},
        "certify": {"system": pair, "family": family, "n_samples": 1, "horizon": 1.0},
    }
    for task, doc in configs.items():
        (tmp_path / f"{task}.json").write_text(json.dumps(doc))
    script = (
        "import sys\n"
        "from swlyap.cli import main\n"
        "tmp = sys.argv[1]\n"
        "for task in sys.argv[2:]:\n"
        "    assert main([task, '--config', f'{tmp}/{task}.json', '--out', f'{tmp}/out']) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), *configs],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "gram.json").exists()
    assert (tmp_path / "out" / "certificates.json").exists()
