"""The four benchmark workloads: seeded config generators and output checks.

Each workload drives one `swlyap` CLI task.  The seed only picks the data
(state values, matrices, sample seeds); the shape of the work, and so its
item count, is the same for every seed, which keeps run-to-run spread small.
Each task takes about half a second to a second at nominal host speed, so a
run holds a dozen or more samples.

Why these four: the paper's worst-case functionals cost (family size) x
(per-signal energy or evolution), and four library paths pay that cost.

* transport-search   transport energy path: `v_sup` over 555 cascade signals,
                     each `trajectory_cost` materialising `apply` and
                     `canonicalize` at Gauss nodes.  Bypasses expm and
                     long-signal evolution.
* transport-simulate the same transport algebra used differently: 385 time
                     points, each re-evolved from t=0 through up to 96
                     segments, plus a CSV write.  Bypasses energy quadrature.
* matrix-certify     matrix adaptive Simpson under `generalized_derivative`:
                     hundreds of thousands of matrix `apply` calls served
                     mostly by the expm cache.  Bypasses transport and Gram.
* gram-deep          Gram assembly: 1,170 candidates, thousands of `expm`
                     calls for 16 distinct exponentials, a
                     `lyapunov_solve` per candidate and a JSON write.

The checks use only the artifacts, exact rational arithmetic and the test
suite's own quadrature oracle, never the library under test.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

# Tolerances the test suite already states.
CASCADE_ENERGY_BOUND = 1.5  # criterion 2: energy <= 1.5 ||f||^2
CASCADE_ENERGY_SLACK = 1e-9  # criterion 2's absolute excess allowance
CERTIFY_MU = 1.0  # test_certify_deterministic: decay.mu == approx(1.0, rel=0.05)
CERTIFY_MU_RTOL = 0.05
GRAM_ORACLE_RTOL = 1e-6  # criterion 6: quadratic forms vs quadrature
# Candidates compared against the quadrature oracle, as enumeration indices:
# constant signals, 1, 2 and 3 switches, and the last 3-switch signal.
GRAM_ORACLE_SAMPLE = (0, 1, 2, 17, 100, 600, 1169)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # swlyap subcommand
    item: str  # what one item of work is
    make_config: Callable[[int], dict]
    count_items: Callable[[dict], int]
    check: Callable[[dict, Path, Path], list]  # (config, out_dir, repo_root) -> problems


def _count_family(config: dict) -> int:
    """Signals in the config's family: sum over j <= max_switches of n^(j+1) d^j."""
    n, family = len(config["system"]["modes"]), config["family"]
    d, k = len(family["dwells"]), family["max_switches"]
    return sum(n ** (j + 1) * d**j for j in range(k + 1))


# Breaks of the transport states, on a 1/64 grid of the domain; the same for
# every seed.  With seeded breaks the pieces a task processes varied by up to
# 15% from seed to seed.
_BREAK_CELLS = (5, 13, 22, 37, 44, 58)
_ODD = np.arange(1, 2 * len(_BREAK_CELLS) + 2, 2)  # 1, 3, ..., 13


def _dyadic_state(rng, lo: float, hi: float) -> dict:
    """Piecewise-constant state with fixed breaks and seeded values.

    The values are +-k/4 for distinct odd k, so no two pieces ever merge:
    shifting keeps their order and amplifying multiplies by powers of
    2^(1/p), which never maps one odd k onto another.  Every seed then
    carries the same pieces through the same operations.
    """
    width = hi - lo
    breaks = [lo + width * c / 64.0 for c in _BREAK_CELLS]
    signs = rng.choice([-1.0, 1.0], size=len(_ODD))
    values = [float(s * k) / 4.0 for s, k in zip(signs, rng.permutation(_ODD))]
    return {"domain": [lo, hi], "breaks": breaks, "values": values}


def _exact_lp_pow(state: dict, p: int) -> Fraction:
    """sum |v|^p * piece length, in exact rational arithmetic."""
    edges = [state["domain"][0], *state["breaks"], state["domain"][1]]
    return sum(
        (abs(Fraction(v)) ** p * (Fraction(b) - Fraction(a))
         for a, b, v in zip(edges[:-1], edges[1:], state["values"])),
        Fraction(0),
    )


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


# -- transport-search -----------------------------------------------------------


def _cascade_modes(n: int, p: float) -> list:
    return [
        {
            "kind": "shift_amplify",
            "domain": [0.0, 1.0],
            "direction": "left",
            "amplify": [0.0, 4.0 ** -(j + 1)],
            "factor": 2.0 ** (1.0 / p),
        }
        for j in range(n)
    ]


def _search_config(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    return {
        "system": {"modes": _cascade_modes(5, 2.0), "norm": {"kind": "lp", "p": 2.0}},
        "state": _dyadic_state(rng, 0.0, 1.0),
        "family": {"dwells": [0.0625, 0.25], "max_switches": 2},
        "seed": seed,
    }


def _search_check(config: dict, out: Path, root: Path) -> list:
    est = _read_json(out / "estimate.json")
    n2 = float(_exact_lp_pow(config["state"], 2))
    limit = CASCADE_ENERGY_BOUND * n2 + CASCADE_ENERGY_SLACK
    if not (est["value"] > 0.0 and est["value"] <= limit):
        return [f"estimate.value {est['value']!r} outside (0, 1.5 ||f||^2 = {limit!r}]"]
    return []


# -- transport-simulate ----------------------------------------------------------


# The switching signal is the same for every seed.  Which segments double
# which pieces decides how many pieces every later state carries, so a seeded
# signal changed the task time by up to a quarter from seed to seed.  With it
# and the states' breaks fixed, every seed processes the same pieces.
_SIMULATE_MODES = [int(m) for m in np.random.default_rng([1000, 2]).integers(0, 2, size=96)]


def _simulate_config(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    return {
        "system": {
            "modes": [
                {"kind": "shift_amplify", "domain": [-1.0, 1.0], "direction": "left",
                 "amplify": [-1.0, 0.0], "factor": 2.0},
                {"kind": "shift_amplify", "domain": [-1.0, 1.0], "direction": "right",
                 "amplify": [0.0, 1.0], "factor": 2.0},
            ],
            "norm": {"kind": "lp", "p": 1.0},
        },
        "state": _dyadic_state(rng, -1.0, 1.0),
        "signal": {"segments": [[m, 0.015625] for m in _SIMULATE_MODES],
                   "tail": int(rng.integers(0, 2))},
        "dt": 0.00390625,
        "horizon": 1.5,
        "seed": seed,
    }


def _simulate_points(config: dict) -> int:
    return round(config["horizon"] / config["dt"]) + 1


def _simulate_check(config: dict, out: Path, root: Path) -> list:
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    problems = []
    if len(rows) - 1 != _simulate_points(config):
        problems.append(f"trajectory.csv has {len(rows) - 1} points, expected "
                        f"{_simulate_points(config)}")
    exact = float(_exact_lp_pow(config["state"], 1))
    if len(rows) < 2 or float(rows[1][0]) != 0.0 or float(rows[1][1]) != exact:
        problems.append(f"t=0 norm {rows[1][1] if len(rows) > 1 else None} != exact {exact!r}")
    return problems


# -- matrix-certify --------------------------------------------------------------


def _certify_config(seed: int) -> dict:
    # The commuting pair and family of test_certify_deterministic, with one
    # sample and horizon 4 instead of 3 and 6 to cut the task time; the
    # CLI's own seed picks the sampled state.
    return {
        "system": {
            "modes": [
                {"kind": "matrix", "A": [[-1.0, 0.0], [0.0, -2.0]]},
                {"kind": "matrix", "A": [[-2.0, 0.0], [0.0, -1.0]]},
            ]
        },
        "seed": seed,
        "n_samples": 1,
        "horizon": 4.0,
        "family": {"dwells": [0.5, 1.0], "max_switches": 1},
    }


def _certify_check(config: dict, out: Path, root: Path) -> list:
    doc = _read_json(out / "certificates.json")
    mu = doc.get("decay", {}).get("mu")
    if not isinstance(mu, float) or abs(mu - CERTIFY_MU) > CERTIFY_MU_RTOL * CERTIFY_MU:
        return [f"decay.mu {mu!r} not within 5% of {CERTIFY_MU}"]
    return []


# -- gram-deep -------------------------------------------------------------------


def _hurwitz(rng, dim: int) -> list:
    """Random matrix of unit spectral norm, shifted to a spectral abscissa in
    [-1.5, -0.5].  Fixing the norm keeps expm's scaling-and-squaring work,
    and so the run time, about the same for every seed."""
    M = rng.standard_normal((dim, dim))
    M /= np.linalg.norm(M, 2)
    alpha = float(np.max(np.linalg.eigvals(M).real))
    M -= (alpha + float(rng.uniform(0.5, 1.5))) * np.eye(dim)
    return M.tolist()


def _gram_config(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    modes = [{"kind": "matrix", "A": _hurwitz(rng, 3)} for _ in range(2)]
    x = rng.standard_normal(3)
    return {
        "system": {"modes": modes},
        "state": {"coords": (x / np.linalg.norm(x)).tolist()},
        "family": {"dwells": [0.25, 0.5, 0.75, 1.0], "max_switches": 3},
        "seed": seed,
    }


def _load_oracle(root: Path):
    path = root / "tests" / "oracle_quadrature.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle_quadrature", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gram_check(config: dict, out: Path, root: Path) -> list:
    doc = _read_json(out / "gram.json")
    cands = doc["candidates"]
    expected = _count_family(config)
    if len(cands) != expected:
        return [f"gram.json has {len(cands)} candidates, expected {expected}"]
    oracle = _load_oracle(root)
    modes = [SimpleNamespace(matrix=np.array(m["A"]), dim=len(m["A"]))
             for m in config["system"]["modes"]]
    system = SimpleNamespace(modes=modes, mode=lambda i: modes[i])
    x = np.array(config["state"]["coords"])
    probes = [x, *np.eye(x.size)]
    problems = []
    for i in GRAM_ORACLE_SAMPLE:
        src = cands[i]["source_signal"]
        sig = SimpleNamespace(segments=[tuple(s) for s in src["segments"]], tail_mode=src["tail"])
        B, W = np.array(cands[i]["B"]), oracle.quadrature_gram(system, sig)
        for v in probes:
            got, want = float(v @ B @ v), float(v @ W @ v)
            if not abs(got - want) <= GRAM_ORACLE_RTOL * max(abs(want), 1e-30):
                problems.append(f"candidate {i}: <v,Bv> {got!r} vs quadrature {want!r}")
    v_max = max(float(x @ np.array(c["B"]) @ x) for c in cands)
    if not math.isclose(doc.get("v_max", math.nan), v_max, rel_tol=1e-12):
        problems.append(f"v_max {doc.get('v_max')!r} != max candidate form {v_max!r}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "transport-search",
            "transport energy path: v_sup over 555 cascade signals; bypasses expm and "
            "long-signal evolution",
            "worst-case", "family signal", _search_config, _count_family, _search_check,
        ),
        Workload(
            "transport-simulate",
            "transport evolution path: 385 grid points re-evolved from t=0 over 96 "
            "segments; bypasses energy quadrature",
            "simulate", "grid point", _simulate_config, _simulate_points, _simulate_check,
        ),
        Workload(
            "matrix-certify",
            "matrix adaptive-Simpson path under generalized_derivative, served by the expm "
            "cache; bypasses transport and Gram",
            "certify", "sample state", _certify_config, lambda c: c["n_samples"],
            _certify_check,
        ),
        Workload(
            "gram-deep",
            "Gram, BLAS and write path: 1,170 candidates from 16 distinct exponentials "
            "and a gram.json write",
            "gram", "candidate", _gram_config, _count_family, _gram_check,
        ),
    )
}
