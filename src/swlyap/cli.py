"""Batch front door: validate a run config, execute the task, emit artifacts.

Artifacts are deterministic for a fixed config and seed: JSON is written with
sorted keys and shortest-roundtrip floats, CSV rows in a fixed order, and no
timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import presets
from .certificates import (
    EMPIRICAL_PROVENANCE,
    FitRefusal,
    condition_report,
    datko_certificate,
    fit_decay,
    fit_growth,
    gronwall_certificate,
)
from .errors import SwlyapError
from .gram import argmax_set, candidates_from_family, v_max
from .lyapunov import trajectory_cost, v_sup
from .semigroups import mode_from_json
from .state_space import NormSpec, PiecewiseConstantFn, euclidean_state, state_norm
from .switching import (
    SignalFamily,
    SwitchedSystem,
    SwitchingSignal,
    evolve,
    operator_norm_witness,
)

__all__ = ["RunConfig", "validate_config", "run", "main"]

TASKS = ("simulate", "worst_case", "certify", "gram", "reproduce")
EXAMPLES = ("example-2.1", "remark-3.2", "half-line-shift")
OUT_ENV = "SWLYAP_OUT"


@dataclass
class RunConfig:
    task: str
    system: SwitchedSystem | None = None
    signal: SwitchingSignal | None = None
    state: object | None = None
    family: SignalFamily | None = None
    horizon: float = 10.0
    dt: float = 0.01
    seed: int = 0
    n_samples: int = 5
    example: str | None = None
    params: dict = field(default_factory=dict)
    out_dir: str = "."


def _parse_state(obj, errors, path="state"):
    if isinstance(obj, dict) and "coords" in obj:
        try:
            return euclidean_state(obj["coords"])
        except SwlyapError as exc:
            errors.append(f"{path}: {exc}")
            return None
    if isinstance(obj, dict) and "domain" in obj:
        try:
            return PiecewiseConstantFn.from_json(obj)
        except SwlyapError as exc:
            errors.append(f"{path}: {exc}")
            return None
    errors.append(f"{path}: expected {{'coords': [...]}} or a piecewise function object")
    return None


def _parse_system(obj, errors):
    if not isinstance(obj, dict) or "modes" not in obj:
        errors.append("system.modes: required")
        return None
    modes = []
    bad = False
    for i, mobj in enumerate(obj["modes"]):
        try:
            modes.append(mode_from_json(mobj))
        except (SwlyapError, KeyError, TypeError, ValueError) as exc:
            errors.append(f"system.modes[{i}]: {exc}")
            bad = True
    if bad or not modes:
        if not modes and not bad:
            errors.append("system.modes: must be nonempty")
        return None
    try:
        norm = NormSpec.from_json(obj["norm"]) if "norm" in obj else _default_norm(modes)
        return SwitchedSystem(tuple(modes), norm)
    except SwlyapError as exc:
        errors.append(f"system: {exc}")
        return None


def _default_norm(modes):
    from .semigroups import mode_state_kind

    kinds = {mode_state_kind(m) for m in modes} - {"any"}
    return NormSpec(2.0) if kinds == {"function"} else NormSpec.euclidean()


def _parse_signal(obj, errors, path="signal"):
    if not isinstance(obj, dict) or "segments" not in obj or "tail" not in obj:
        errors.append(f"{path}: expected {{'segments': [[mode, dwell], ...], 'tail': mode}}")
        return None
    ok = True
    for i, seg in enumerate(obj["segments"]):
        if not (isinstance(seg, (list, tuple)) and len(seg) == 2):
            errors.append(f"{path}.segments[{i}]: expected a [mode, dwell] pair")
            ok = False
            continue
        if not (isinstance(seg[1], (int, float)) and seg[1] > 0):
            errors.append(f"{path}.segments[{i}].dwell: must be strictly positive")
            ok = False
    if not ok:
        return None
    try:
        return SwitchingSignal.from_json(obj)
    except SwlyapError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _parse_family(obj, errors, n_modes):
    if obj is None:
        return SignalFamily.default(n_modes) if n_modes else None
    try:
        return SignalFamily(
            tuple(obj.get("dwells", (0.25, 0.5, 1.0))),
            obj.get("max_switches", 2),
            tuple(obj.get("modes", range(n_modes))),
        )
    except SwlyapError as exc:
        errors.append(f"family: {exc}")
        return None


def _positive(obj, key, default, errors):
    val = obj.get(key, default)
    if not (isinstance(val, (int, float)) and val > 0 and math.isfinite(val)):
        errors.append(f"{key}: must be a positive number")
        return default
    return float(val)


def validate_config(raw):
    """Parse and validate a config document; collects every error found.

    Returns ``(RunConfig | None, errors)``; the config is None whenever the
    error list is nonempty.
    """
    errors = []
    if isinstance(raw, str):
        try:
            raw = json.loads(raw) if raw.strip() else {}
        except json.JSONDecodeError as exc:
            return None, [f"config: invalid JSON ({exc})"]
    if not isinstance(raw, dict):
        return None, ["config: expected a JSON object"]

    task = raw.get("task")
    if task is None:
        errors.append("task: required")
    elif task not in TASKS:
        errors.append(f"task: must be one of {', '.join(TASKS)}")

    needs_system = task in ("simulate", "worst_case", "certify", "gram") or task is None
    system = None
    if needs_system:
        if "system" not in raw:
            errors.append("system: required")
        else:
            system = _parse_system(raw["system"], errors)

    signal = None
    if task == "simulate":
        if "signal" not in raw:
            errors.append("signal: required")
        else:
            signal = _parse_signal(raw["signal"], errors)

    state = None
    if "state" in raw:
        state = _parse_state(raw["state"], errors)
    elif task in ("simulate", "worst_case"):
        errors.append("state: required")

    example = None
    if task == "reproduce":
        example = raw.get("example")
        if example is None:
            errors.append("example: required")
        elif example not in EXAMPLES:
            errors.append(f"example: must be one of {', '.join(EXAMPLES)}")

    family = _parse_family(raw.get("family"), errors, system.n_modes if system else 0)
    horizon = _positive(raw, "horizon", 10.0, errors)
    dt = _positive(raw, "dt", 0.01, errors)
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        errors.append("seed: must be an integer")
        seed = 0
    n_samples = raw.get("n_samples", 5)
    if not (isinstance(n_samples, int) and n_samples > 0):
        errors.append("n_samples: must be a positive integer")
        n_samples = 5
    params = raw.get("params", {})
    if not isinstance(params, dict):
        errors.append("params: must be an object")
        params = {}
    out_dir = os.environ.get(OUT_ENV) or raw.get("out_dir", ".")

    if errors:
        return None, errors
    return (
        RunConfig(
            task=task,
            system=system,
            signal=signal,
            state=state,
            family=family,
            horizon=horizon,
            dt=dt,
            seed=seed,
            n_samples=n_samples,
            example=example,
            params=params,
            out_dir=out_dir,
        ),
        [],
    )


# -- artifact writers -----------------------------------------------------------


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _out(config, name):
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, name)


# -- task runners -----------------------------------------------------------------


def _run_simulate(config: RunConfig):
    sys_, sig, x = config.system, config.signal, config.state
    ts = np.arange(0.0, config.horizon + 0.5 * config.dt, config.dt)
    rows = []
    for t in ts:
        t = float(t)
        n = state_norm(evolve(sys_, sig, t, x), sys_.norm)
        rows.append((repr(t), repr(n), sig.active_mode(t)))
    _write_csv(_out(config, "trajectory.csv"), ("t", "norm", "mode_active"), rows)
    norms = [float(r[1]) for r in rows]
    _write_json(
        _out(config, "summary.json"),
        {
            "task": "simulate",
            "seed": config.seed,
            "horizon": config.horizon,
            "initial_norm": norms[0],
            "final_norm": norms[-1],
            "max_norm": max(norms),
        },
    )
    return 0


def _run_worst_case(config: RunConfig):
    est = v_sup(config.system, config.state, config.family, config.horizon)
    doc = est.to_json()
    doc["task"] = "worst_case"
    doc["seed"] = config.seed
    _write_json(_out(config, "estimate.json"), doc)
    return 0


def _sample_states(sys_, n, rng):
    if sys_.norm.kind == "euclidean":
        dim = next(m.dim for m in sys_.modes if hasattr(m, "dim"))
        out = []
        for _ in range(n):
            v = rng.standard_normal(dim)
            out.append(euclidean_state(v / np.linalg.norm(v)))
        return out
    # piecewise states on the first transport mode's domain
    mode = next(m for m in sys_.modes if hasattr(m, "domain_lo"))
    lo, hi = mode.domain_lo, mode.domain_hi
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        pts = sorted(rng.integers(1, 64, size=k) * ((hi - lo) / 64.0) + lo)
        vals = [float(v) for v in rng.uniform(-2.0, 2.0, size=k + 1)]
        out.append(PiecewiseConstantFn(lo, hi, tuple(float(p) for p in pts), tuple(vals)))
    return out


def _run_certify(config: RunConfig):
    sys_ = config.system
    fam = config.family or SignalFamily.default(sys_.n_modes)
    rng = np.random.default_rng(config.seed)
    samples = _sample_states(sys_, config.n_samples, rng)
    time_grid = [0.25 * k for k in range(1, int(config.horizon / 0.25) + 1)]
    growth = fit_growth(sys_, fam, time_grid, samples)
    decay = fit_decay(sys_, fam, time_grid, samples)

    def v(x):
        return v_sup(sys_, x, fam, config.horizon, refine=False).value

    report = condition_report(sys_, v, samples, fam, growth=growth)
    doc = {
        "task": "certify",
        "seed": config.seed,
        "growth": {**growth.to_json(), "provenance": EMPIRICAL_PROVENANCE},
        "decay": decay.to_json()
        if isinstance(decay, FitRefusal)
        else {**decay.to_json(), "provenance": EMPIRICAL_PROVENANCE},
        "condition_report": report.to_json(),
        "bound_direction": "lower",
    }
    if report.lower_ok and report.upper_ok:
        eq = report.equivalence()
        doc["gronwall"] = gronwall_certificate(eq).to_json()
        doc["gronwall_conservative"] = gronwall_certificate(eq, conservative=True).to_json()
        k_hat = max(
            1.0,
            max(
                state_norm(evolve(sys_, sig, t, x), sys_.norm) / state_norm(x, sys_.norm)
                for sig in [SwitchingSignal((), m) for m in range(sys_.n_modes)]
                for t in time_grid[:8]
                for x in samples
            ),
        )
        datko = datko_certificate(growth, eq.C, 2.0, k_hat)
        doc["datko"] = {**datko.to_json(), "provenance": "conditional on sampled k"}
    if isinstance(decay, FitRefusal):
        doc["notes"] = ["decay fit refused; system is not uniformly decaying on samples"]
    _write_json(_out(config, "certificates.json"), doc)
    return 0


def _run_gram(config: RunConfig):
    cands = candidates_from_family(config.system, config.family)
    doc = {
        "task": "gram",
        "dim": cands[0].dim,
        "candidates": [c.to_json() for c in cands],
        "bound_direction": "lower",
    }
    if config.state is not None:
        doc["v_max"] = v_max(cands, config.state)
        doc["argmax"] = list(argmax_set(cands, config.state).indices)
        # family-size sensitivity: the same functional on constant signals only
        constants = tuple(c for c in cands if not c.source_signal.segments)
        if constants:
            doc["v_max_constant_signals_only"] = v_max(constants, config.state)
    _write_json(_out(config, "gram.json"), doc)
    return 0


def _run_reproduce(config: RunConfig):
    if config.example == "example-2.1":
        return _reproduce_blowup(config)
    if config.example == "remark-3.2":
        return _reproduce_cascade(config)
    return _reproduce_half_line(config)


def _reproduce_blowup(config: RunConfig):
    delta = float(config.params.get("delta", 0.5))
    sys_ = presets.blowup_transport_pair()
    sig = presets.alternating_signal(delta, 2.0)
    witnesses = presets.blowup_witnesses(8)
    rows, stairs, lines = [], [], []
    k = 1
    t = delta
    while t <= 2.0 + 1e-12:
        ratio = operator_norm_witness(sys_, sig, t, witnesses)
        bound = 2.0**k
        rows.append((repr(t), repr(ratio), repr(bound)))
        stairs.append({"t": t, "lower_bound": bound, "witness_ratio": ratio})
        lines.append(f"t={t:g}  switches={k}  lower_bound={bound:g}  witness_ratio={ratio:.12g}")
        k += 1
        t = k * delta
    _write_csv(_out(config, "staircase.csv"), ("t", "witness_ratio", "lower_bound"), rows)
    _write_json(
        _out(config, "summary.json"),
        {
            "task": "reproduce",
            "example": "example-2.1",
            "delta": delta,
            "staircase": stairs,
            "bound_direction": "lower",
            "note": "operator norm doubles per switch; no uniform growth envelope exists",
        },
    )
    text = "\n".join(
        ["alternating transport pair, dwell delta=%g" % delta]
        + lines
        + ["norm lower bounds " + ", ".join("%g" % s["lower_bound"] for s in stairs)]
    )
    with open(_out(config, "summary.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def _reproduce_cascade(config: RunConfig):
    p = float(config.params.get("p", 2.0))
    n = int(config.params.get("n", 4))
    rng = np.random.default_rng(config.seed)
    sys6 = presets.cascade_system(max(6, n), p)
    fam_ids = tuple(range(sys6.n_modes))
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(0, 4))
        segs = tuple(
            (int(rng.choice(fam_ids)), float(rng.integers(1, 32)) / 64.0) for _ in range(k)
        )
        sig = SwitchingSignal(segs, int(rng.choice(fam_ids)))
        for w in _sample_states(sys6, 4, rng):
            cost, _ = trajectory_cost(sys6, sig, w, 1.25)
            worst = max(worst, cost / state_norm(w, sys6.norm) ** 2)
    eps = 4.0 ** -(n + 1)
    sys_n = presets.cascade_system(n, p)
    ratio = operator_norm_witness(
        sys_n, presets.cascade_signal(n), 1.0 - eps, [presets.edge_witness(eps)]
    )
    doc = {
        "task": "reproduce",
        "example": "remark-3.2",
        "p": p,
        "n": n,
        "energy_bound": 1.5,
        "max_sampled_energy_ratio": worst,
        "witness_norm_ratio": ratio,
        "expected_ratio": 2.0 ** (n / p),
        "bound_direction": "lower",
        "note": "uniform energy bound 1.5 holds while witness growth is unbounded in n",
    }
    _write_json(_out(config, "summary.json"), doc)
    text = (
        f"amplifying cascade, p={p:g}, n={n}\n"
        f"sampled energy ratio max {worst:.6g} <= 1.5 (integral bound)\n"
        f"witness norm ratio {ratio:.12g} (expected {2.0 ** (n / p):g})"
    )
    with open(_out(config, "summary.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def _reproduce_half_line(config: RunConfig):
    sys_ = presets.half_line_system(1.0)
    domain_hi = 12.0
    compact = PiecewiseConstantFn.indicator(0.0, domain_hi, 1.0, 2.0)
    rows = []
    for t in [0.25 * k for k in range(0, 41)]:
        n = state_norm(evolve(sys_, SwitchingSignal((), 0), t, compact), sys_.norm)
        rows.append((repr(t), repr(n), 0))
    _write_csv(_out(config, "trajectory.csv"), ("t", "norm", "mode_active"), rows)
    ratios = []
    for t in range(1, 11):
        w = PiecewiseConstantFn.indicator(0.0, domain_hi, float(t), float(t) + 1.0)
        ratios.append(
            {
                "t": t,
                "ratio": operator_norm_witness(sys_, SwitchingSignal((), 0), float(t), [w]),
            }
        )
    doc = {
        "task": "reproduce",
        "example": "half-line-shift",
        "compact_witness_dies_at": 2.0,
        "unit_norm_ratios": ratios,
        "note": "strong stability without uniform decay: every trajectory dies, norm stays 1",
    }
    _write_json(_out(config, "summary.json"), doc)
    text = "\n".join(
        ["half-line left translation"]
        + [f"t={r['t']}  operator_norm_witness={r['ratio']:g}" for r in ratios]
        + ["compact witness reaches norm 0 at t=2"]
    )
    with open(_out(config, "summary.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def run(config: RunConfig) -> int:
    """Execute a validated config; returns a process exit status."""
    runners = {
        "simulate": _run_simulate,
        "worst_case": _run_worst_case,
        "certify": _run_certify,
        "gram": _run_gram,
        "reproduce": _run_reproduce,
    }
    try:
        return runners[config.task](config)
    except SwlyapError as exc:
        print(f"error in {config.task}: {exc}", file=sys.stderr)
        return 1


def _load_config_arg(args) -> dict:
    raw = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            raw = json.load(fh)
    return raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swlyap",
        description="Switched-semigroup stability toolbox: simulate, search, certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (env SWLYAP_OUT overrides)")
        p.add_argument("--seed", type=int)
        p.add_argument("--horizon", type=float)

    p_sim = sub.add_parser("simulate", help="evolve one signal and export the trajectory")
    common(p_sim)
    p_sim.add_argument("--dt", type=float)

    p_wc = sub.add_parser("worst-case", help="maximize trajectory energy over a family")
    common(p_wc)
    p_wc.add_argument("--dwells", help="comma-separated dwell grid")
    p_wc.add_argument("--max-switches", type=int, dest="max_switches")

    p_cert = sub.add_parser("certify", help="fit growth/decay envelopes and check conditions")
    common(p_cert)
    p_cert.add_argument("--samples", type=int, dest="n_samples")

    p_gram = sub.add_parser("gram", help="build trajectory-energy operators for a family")
    common(p_gram)

    p_rep = sub.add_parser("reproduce", help="run a pinned demonstration")
    p_rep.add_argument("example", choices=EXAMPLES)
    common(p_rep)
    p_rep.add_argument("--delta", type=float, help="dwell for example-2.1")
    p_rep.add_argument("--n", type=int, help="cascade depth for remark-3.2")
    p_rep.add_argument("--p", type=float, help="L^p exponent for remark-3.2")

    args = parser.parse_args(argv)
    raw = _load_config_arg(args)
    raw["task"] = args.command.replace("-", "_") if args.command != "reproduce" else "reproduce"
    if args.command == "reproduce":
        raw["example"] = args.example
        params = raw.setdefault("params", {})
        for key in ("delta", "n", "p"):
            if getattr(args, key, None) is not None:
                params[key] = getattr(args, key)
    for key in ("seed", "horizon", "dt", "n_samples"):
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    if getattr(args, "out", None):
        raw["out_dir"] = args.out
    if getattr(args, "dwells", None):
        fam = raw.setdefault("family", {})
        fam["dwells"] = [float(v) for v in args.dwells.split(",")]
    if getattr(args, "max_switches", None) is not None:
        raw.setdefault("family", {})["max_switches"] = args.max_switches

    config, errors = validate_config(raw)
    if errors:
        for err in errors:
            print(err, file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
