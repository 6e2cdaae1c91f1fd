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
from pathlib import Path

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
    norm_ratio_samples,
)
from .errors import StructuralError, SwlyapError, under
from .gram import _system_dim, argmax_set, candidates_from_family, v_max
from .lyapunov import family_max, trajectory_cost, v_sup
from .semigroups import MatrixMode, ShiftAmplifyMode, apply
from .state_space import PiecewiseConstantFn, euclidean_state, state_from_json, state_norm
from .switching import (
    SignalFamily,
    SwitchedSystem,
    SwitchingSignal,
    distinct_trajectories,
    enumerate_family,
    evolve,
    family_size,
    operator_norm_witness,
)

__all__ = ["RunConfig", "validate_config", "run", "main"]

TASKS = ("simulate", "worst_case", "certify", "gram", "reproduce")
OUT_ENV = "SWLYAP_OUT"

# Number fields as (cast, accepts, requirement); defaults are RunConfig's.
_SCALARS = {
    "horizon": (float, lambda v: v > 0, "a positive number"),
    "dt": (float, lambda v: v > 0, "a positive number"),
    "seed": (int, lambda v: v >= 0, "a nonnegative integer"),
    "n_samples": (int, lambda v: v >= 1, "a positive integer"),
}
# The params of each reproduce example, as (default, cast, accepts,
# requirement).  example-2.1 builds 2/delta segments and its run time grows
# with their square; past n = 25 the cascade's edge witness [1 - 4^-(n+1), 1]
# rounds to the empty set.
_PARAMS = {
    "example-2.1": {"delta": (0.5, float, lambda v: 1 / 64 <= v <= 2, "a number in [1/64, 2]")},
    "remark-3.2": {
        "n": (4, int, lambda v: 1 <= v <= 25, "an integer in [1, 25]"),
        "p": (2.0, float, lambda v: v >= 1, "a number >= 1"),
    },
    "half-line-shift": {},
}
EXAMPLES = tuple(_PARAMS)
# Work limits for `_bound`, each sized on a 2-vCPU host so that the slowest
# accepted run takes about 8 s.  simulate: each point is evolved from t = 0
# through every piece before it, at 1.7-8.6 us a piece (transport is slowest).
_SIMULATE_LIMIT = 1_000_000
# certify: per sample and distinct trajectory, a norm at each point of the
# time grid and of the growth check's 4-point grid, and 1 + 17 x modes values
# of V.  A unit took 0.5-0.67 ms on matrix systems of 2 to 8 dimensions and 2
# to 6 modes, and 0.05-0.08 ms on shift_amplify systems; the README config's
# 5 samples (13,430) took 8.1-9.0 s.  The count does not see how deep adaptive
# Simpson refines, so stiff or fast-rotating modes take longer: 1.7 ms a unit
# for the pair [[-0.1, -20], [40, -0.1]], [[-0.1, -40], [20, -0.1]].
_CERTIFY_LIMIT = 14_000
# worst_case: a segment energy a piece, 0.3-0.4 ms; a two-mode, one-dwell family
# is accepted at depth 9 (20,460) and refused at depth 10 (45,034).
_WORST_CASE_LIMIT = 25_000
# gram: a candidate whose dwells are new costs about 0.25 ms and writes a
# dim x dim operator; a pair of 1x1 modes with 4,999 dwells at one switch
# (19,998 x 3) took 4.8 s and wrote 4.6 MB.
_GRAM_LIMIT = 60_000
# certify counts a family's distinct trajectories by walking it, 0.2 us a piece.
_ENUMERATION_PIECES = 1_000_000
# certify fits its rates on the time grid 0.25 k, k = 1 .. horizon/0.25; a
# slope needs two points of it.
_CERTIFY_MIN_HORIZON = 0.5


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


def _parse(errors, path, build, *args):
    """``build(*args)``, or None after recording one ``path: message`` error.
    Nothing is built under a path already reported (a boolean inside it)."""
    if any(e.startswith((f"{path}: ", f"{path}.", f"{path}[")) for e in errors):
        return None
    try:
        return build(*args)
    except SwlyapError as exc:
        errors.append(under(path, str(exc)))
    return None


def _field(errors, raw, key, required, build, *args):
    """Build the section ``raw[key]``; its absence is an error when ``required``."""
    if key in raw:
        return _parse(errors, key, build, raw[key], *args)
    if required:
        errors.append(f"{key}: required")
    return None


def _number(value, cast, accepts, requirement):
    """``value`` as ``cast`` when it is a finite JSON number that ``accepts`` takes."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value) and cast(value) == value and accepts(value):
                return cast(value)
        except OverflowError:  # an integer past the double range
            pass
    raise StructuralError(f"must be {requirement}")


def _booleans(obj, path=""):
    """Paths of the boolean leaves of the JSON value ``obj``."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _booleans(v, f"{path}.{k}" if path else k)]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _booleans(v, f"{path}[{i}]")]
    return [path] if isinstance(obj, bool) else []


def _state(obj, system):
    """A coordinate or piecewise state that every mode of ``system`` can evolve."""
    x = state_from_json(obj)
    if system is not None:
        for mode in system.modes:
            apply(mode, 0.0, x)
        state_norm(x, system.norm)
    return x


def _gram_state(obj, system):
    """A state for ``gram``, whose argmax set is undefined at x = 0."""
    x = _state(obj, system)
    if isinstance(x, np.ndarray) and not x.any():
        raise StructuralError("must be nonzero: every gram candidate ties at x = 0")
    return x


def _signal(obj, system):
    sig = SwitchingSignal.from_json(obj)
    if system is not None:
        system.mode(sig.max_mode_id())
    return sig


def _family(obj, system):
    fam = SignalFamily.from_json(obj, system.n_modes)
    system.mode(max(fam.mode_ids))
    return fam


def _bound(errors, limit, what, factors):
    """Refuse a task whose work, the product of ``factors`` (field path ->
    count), exceeds ``limit``, blaming the largest factor's field.  Each factor
    is capped just past the limit, so a huge one keeps the product small."""
    capped = {path: min(count, limit + 1) for path, count in factors.items()}
    if math.prod(capped.values()) > limit:
        blame = max(capped, key=capped.get)
        errors.append(f"{blame}: {what}, more than {limit:,}")


def _trajectories(family):
    """The family's distinct trajectories, or its size when enumerating it
    would walk more than _ENUMERATION_PIECES signal pieces."""
    size = family_size(family)
    if size * (family.max_switches + 1) > _ENUMERATION_PIECES:
        return size
    return sum(1 for _ in distinct_trajectories(enumerate_family(family)))


def _sampler(system):
    """The first mode ``certify`` can draw sample states for."""
    for mode in system.modes:
        if isinstance(mode, (MatrixMode, ShiftAmplifyMode)):
            return mode
    raise StructuralError("certify samples states from a matrix or shift_amplify mode; none given")


def _merged(raw, overrides):
    """``raw`` with each ``"key"`` or ``"section.key"`` of ``overrides`` set."""
    raw = dict(raw)
    for path, value in overrides.items():
        section, _, key = path.rpartition(".")
        if not section:
            raw[key] = value
        elif raw.get(section) is None or isinstance(raw[section], dict):
            raw[section] = {**(raw.get(section) or {}), key: value}
    return raw


def validate_config(raw, overrides=None):
    """Parse and validate a config document; collects every error found.

    ``raw`` is a JSON object or its text.  ``overrides`` maps field paths
    such as ``"seed"`` or ``"family.dwells"`` to values that replace the
    document's (the CLI flags).  Returns ``(RunConfig | None, errors)``; the
    config is None whenever the error list is nonempty.
    """
    if isinstance(raw, str):
        try:
            raw = json.loads(raw) if raw.strip() else {}
        except json.JSONDecodeError as exc:
            return None, [f"config: invalid JSON ({exc})"]
    if not isinstance(raw, dict):
        return None, ["config: expected a JSON object"]
    raw = _merged(raw, overrides or {})
    errors = [f"{path}: booleans are not accepted" for path in _booleans(raw)]

    task = raw.get("task")
    if task not in TASKS:
        errors.append(
            "task: required" if task is None else f"task: must be one of {', '.join(TASKS)}"
        )
    scalars = {
        key: _parse(errors, key, _number, raw.get(key, getattr(RunConfig, key)), *spec)
        for key, spec in _SCALARS.items()
    }
    system = signal = family = example = None
    raw.setdefault("family", None)  # the default family, from the system's modes
    params = {}
    if task == "reproduce":
        example, given = raw.get("example"), raw.get("params", {})
        if example not in EXAMPLES:
            errors.append(
                "example: required" if example is None
                else f"example: must be one of {', '.join(EXAMPLES)}"
            )
        elif not isinstance(given, dict):
            errors.append("params: must be an object")
        else:
            params = {
                key: _parse(errors, f"params.{key}", _number, given.get(key, default), *spec)
                for key, (default, *spec) in _PARAMS[example].items()
            }
    else:
        system = _field(errors, raw, "system", True, SwitchedSystem.from_json)
    if task == "simulate":
        signal = _field(errors, raw, "signal", True, _signal, system)
        horizon, dt = scalars["horizon"], scalars["dt"]  # positive, or None on error
        if signal and horizon and dt:
            # stepping the grid forward (ROADMAP item 5) makes this points + segments
            _bound(errors, _SIMULATE_LIMIT, "simulate would evolve (horizon/dt + 1) "
                   "time points through (segments + 1) pieces each",
                   {"dt": horizon / dt + 1, "signal.segments": len(signal.segments) + 1})
    state = _field(errors, raw, "state", task in ("simulate", "worst_case"),
                   _gram_state if task == "gram" else _state, system)
    if system is not None:
        family = _field(errors, raw, "family", False, _family, system)
        if task == "certify":
            _parse(errors, "system.modes", _sampler, system)
            n_samples, horizon = scalars["n_samples"], scalars["horizon"]
            if horizon and horizon < _CERTIFY_MIN_HORIZON:
                errors.append(f"horizon: certify needs at least {_CERTIFY_MIN_HORIZON}, "
                              "two points of its 0.25 time grid to fit a rate")
            elif family and n_samples and horizon:
                _bound(errors, _CERTIFY_LIMIT, "certify would evaluate n_samples x distinct "
                       "trajectories x (horizon/0.25 + 5 + 17 x modes) signals",
                       {"n_samples": n_samples, "family": _trajectories(family),
                        "horizon": horizon // 0.25 + 5 + 17 * system.n_modes})
        elif task == "worst_case" and family:
            _bound(errors, _WORST_CASE_LIMIT, "worst_case would walk family size x "
                   "(max_switches + 1) signal pieces",
                   {"family": family_size(family), "family.max_switches": family.max_switches + 1})
        elif task == "gram":
            dim = _parse(errors, "system.modes", _system_dim, system)
            if dim and family:
                # time grows with the pieces walked, bytes with the entries written
                per = {"family.max_switches": family.max_switches + 1, "system.modes": dim * dim}
                _bound(errors, _GRAM_LIMIT, "gram would walk family size x (max_switches + 1 "
                       "+ dim^2) signal pieces and operator entries",
                       {"family": family_size(family), max(per, key=per.get): sum(per.values())})
    out_dir = os.environ.get(OUT_ENV) or raw.get("out_dir", ".")
    if not (isinstance(out_dir, str) and out_dir):
        errors.append("out_dir: must be a nonempty path")

    if errors:
        return None, errors
    config = RunConfig(task, system, signal, state, family, example=example, params=params,
                       out_dir=out_dir, **scalars)
    return config, []


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
    ts = [float(t) for t in np.arange(0.0, config.horizon + 0.5 * config.dt, config.dt)]
    norms = [state_norm(evolve(sys_, sig, t, x), sys_.norm) for t in ts]
    rows = [(repr(t), repr(n), sig.active_mode(t)) for t, n in zip(ts, norms)]
    _write_csv(_out(config, "trajectory.csv"), ("t", "norm", "mode_active"), rows)
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
    doc = {**est.to_json(), "task": "worst_case", "seed": config.seed}
    _write_json(_out(config, "estimate.json"), doc)
    return 0


def _sample_states(sys_, n, rng):
    """Unit coordinate states, or piecewise states on a transport mode's domain."""
    mode = _sampler(sys_)
    if isinstance(mode, MatrixMode):
        draws = (rng.standard_normal(mode.dim) for _ in range(n))
        return [euclidean_state(v / np.linalg.norm(v)) for v in draws]
    lo, hi = mode.domain
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        pts = sorted(rng.integers(1, 64, size=k) * ((hi - lo) / 64.0) + lo)
        vals = [float(v) for v in rng.uniform(-2.0, 2.0, size=k + 1)]
        out.append(PiecewiseConstantFn(lo, hi, tuple(float(p) for p in pts), tuple(vals)))
    return out


def _run_certify(config: RunConfig):
    sys_, fam = config.system, config.family
    rng = np.random.default_rng(config.seed)
    samples = _sample_states(sys_, config.n_samples, rng)
    time_grid = [0.25 * k for k in range(1, int(config.horizon / 0.25) + 1)]
    sweep = norm_ratio_samples(sys_, fam, time_grid, samples)
    growth = fit_growth(sweep)
    decay = fit_decay(sweep)

    signals = tuple(distinct_trajectories(enumerate_family(fam)))

    def v(x):
        return family_max(sys_, signals, x, config.horizon)[1]

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
        # k: the sampled norm ratios of the constant signals up to t = 2
        ratios = [operator_norm_witness(sys_, SwitchingSignal((), m), t, samples)
                  for m in range(sys_.n_modes) for t in time_grid[:8]]
        datko = datko_certificate(growth, eq.C, 2.0, max([1.0, *ratios]))
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


def _write_summary(config, doc, lines):
    """summary.json and summary.txt, and the text on stdout."""
    _write_json(_out(config, "summary.json"), doc)
    text = "\n".join(lines)
    with open(_out(config, "summary.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def _reproduce_blowup(config: RunConfig):
    delta = config.params["delta"]
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
    doc = {
        "task": "reproduce",
        "example": "example-2.1",
        "delta": delta,
        "staircase": stairs,
        "bound_direction": "lower",
        "note": "operator norm doubles per switch; no uniform growth envelope exists",
    }
    return _write_summary(
        config,
        doc,
        ["alternating transport pair, dwell delta=%g" % delta]
        + lines
        + ["norm lower bounds " + ", ".join("%g" % s["lower_bound"] for s in stairs)],
    )


def _reproduce_cascade(config: RunConfig):
    p, n = config.params["p"], config.params["n"]
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
            cost = trajectory_cost(sys6, sig, w, 1.25)
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
    return _write_summary(
        config,
        doc,
        [
            f"amplifying cascade, p={p:g}, n={n}",
            f"sampled energy ratio max {worst:.6g} <= 1.5 (integral bound)",
            f"witness norm ratio {ratio:.12g} (expected {2.0 ** (n / p):g})",
        ],
    )


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
    return _write_summary(
        config,
        doc,
        ["half-line left translation"]
        + [f"t={r['t']}  operator_norm_witness={r['ratio']:g}" for r in ratios]
        + ["compact witness reaches norm 0 at t=2"],
    )


def run(config: RunConfig) -> int:
    """Execute a validated config; returns a process exit status."""
    runners = {
        "simulate": _run_simulate,
        "worst_case": _run_worst_case,
        "certify": _run_certify,
        "gram": _run_gram,
        "reproduce": _run_reproduce,
    }
    # Overflow and NaN are caught by the library's own finiteness checks, which
    # raise; numpy's warning would only print a second line before the error.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return runners[config.task](config)
    except (SwlyapError, OverflowError, OSError) as exc:
        print(f"error in {config.task}: {exc}", file=sys.stderr)
        return 1


def _floats(text):
    return [float(v) for v in text.split(",")]


def main(argv=None) -> int:
    """Run one CLI command.  Each flag's dest is the config field it sets."""
    parser = argparse.ArgumentParser(
        prog="swlyap",
        description="Switched-semigroup stability toolbox: simulate, search, certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, about):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", dest="out_dir", help="output directory (env SWLYAP_OUT overrides)")
        p.add_argument("--seed", type=int)
        p.add_argument("--horizon", type=float)
        return p

    command("simulate", "evolve one signal and export the trajectory").add_argument(
        "--dt", type=float
    )
    p_wc = command("worst-case", "maximize trajectory energy over a family")
    p_wc.add_argument("--dwells", type=_floats, dest="family.dwells", help="comma-separated grid")
    p_wc.add_argument("--max-switches", type=int, dest="family.max_switches")
    command("certify", "fit growth/decay envelopes and check conditions").add_argument(
        "--samples", type=int, dest="n_samples"
    )
    command("gram", "build trajectory-energy operators for a family")
    p_rep = command("reproduce", "run a pinned demonstration")
    p_rep.add_argument("example", choices=EXAMPLES)
    p_rep.add_argument("--delta", type=float, dest="params.delta", help="dwell for example-2.1")
    p_rep.add_argument("--n", type=int, dest="params.n", help="cascade depth for remark-3.2")
    p_rep.add_argument("--p", type=float, dest="params.p", help="L^p exponent for remark-3.2")

    flags = vars(parser.parse_args(argv))
    path = flags.pop("config")
    overrides = {key: value for key, value in flags.items() if value is not None}
    overrides["task"] = overrides.pop("command").replace("-", "_")
    try:
        text = Path(path).read_text() if path else ""
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config: cannot read ({exc})", file=sys.stderr)
        return 2
    config, errors = validate_config(text, overrides)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
