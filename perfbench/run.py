"""Benchmark of the swlyap CLI: end-to-end task metrics and a per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each sample runs one workload through the real front door,
`swlyap.cli.main(argv)`, in a fresh worker process (perfbench/worker.py), so
import costs and the library's module-level caches are paid exactly as a CLI
user pays them.  Samples run back to back, one at a time (a closed loop with
one client), until `--seconds` have passed.  The workers inherit this
process's environment, BLAS thread variables included, minus SWLYAP_OUT.

--trace 0 reports the end-to-end metrics: medians over the samples of
  setup_s      `import swlyap.cli` in the fresh worker
  task_s       wall time of main(argv): validation, compute, artifact writes
  task_cpu_s   process CPU time during main, summed over all threads
  peak_rss_mb  the worker's peak resident memory
  items_per_s  workload items (signals, grid points, samples, candidates)
               per second of task_s
  success_rate samples that exited 0 and passed every output check, over
               samples attempted
  The three timings are given at a nominal host speed (see NOMINAL_PROBE_S);
  the unscaled wall-time medians are printed beside them.
--trace 1 alternates untraced and traced samples and reports the per-layer
  metrics of perfbench/tracer.py (call counts, self time, ratios), the
  tracing overhead, and a note re-measuring the task with only
  OPENBLAS_NUM_THREADS=1 changed.

Every sample's artifacts must be byte-identical to the first sample's and
pass the workload's output check (perfbench/workloads.py); traced call counts
must repeat exactly.  Each run's generated config, environment and full
result are saved under .perfbench_runs/ so a seed can be replayed.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
REQUIRED = (SRC / "swlyap" / "cli.py", ROOT / "tests" / "oracle_quadrature.py")

MIN_SAMPLES = 3  # untraced samples per --trace 0 run
# Host speed.  On a shared VM the CPU speed one process gets can swing by up
# to 2x for seconds to minutes at a time, which no run length averages out.
# So every untraced sample times a fixed reference probe every 10 ms while
# the task runs (worker.SpeedProbe), and each timing is reported as it would
# read on a host where the probe takes NOMINAL_PROBE_S: the sample's time,
# less the probes' own time, times NOMINAL_PROBE_S / its mean probe time.
# The mean weighs each stretch of the task by its length, as wall time does.
# A code change does not move the probe, so it moves these timings as it
# moves wall time.
NOMINAL_PROBE_S = 140e-6
MIN_PROBES = 10
MIN_TRACED = 2  # traced samples per --trace 1 run, so call counts can be compared
# A run must end within 180 s: no sample starts that could end past the
# budget, and a hung worker is killed well before that.
WORKER_TIMEOUT_S = 45.0
RUN_BUDGET_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "task_s": "s",
    "task_cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "success_rate": "ratio",
}

# Per-layer metrics and their units; every name listed here is always reported.
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in (
        "state_space.canonicalize", "state_space.lp_norm_pow",
        "semigroups.apply.transport", "semigroups.apply.matrix", "semigroups.apply.group",
        "semigroups.expm", "switching.evolve", "lyapunov.trajectory_cost",
        "gram.expm", "gram.segment_energy", "gram.lyapunov_solve", "gram.gram_of_signal",
    ) for m, u in (("calls", "count"), ("self_s", "s"))},
    "semigroups.expm_hit_ratio": "ratio",
    "switching.evolve.apply_per_call": "count/call",
    "switching.enumerate_family.signals": "count",
    "lyapunov.apply_per_cost": "count/call",
    "lyapunov.v_sup.calls": "count",
    "lyapunov.generalized_derivative.calls": "count",
    "certificates.fit_growth.self_s": "s",
    "certificates.fit_decay.self_s": "s",
    "certificates.condition_report.self_s": "s",
    "cli.validate_config.self_s": "s",
    "cli.main.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead": "ratio",
    "wall.task_s": "s",
    "host.slowdown": "ratio",
}
APPLY = ("semigroups.apply.transport", "semigroups.apply.matrix", "semigroups.apply.group")


@dataclass
class Sample:
    kind: str  # "plain", "traced" or "blas1"
    result: dict
    problems: list
    digest: str | None = None
    artifact_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Run:
    workload: object
    config: dict
    run_dir: Path
    env: dict
    samples: list = field(default_factory=list)
    checked: dict = field(default_factory=dict)  # artifact digest -> check problems

    def sample(self, kind: str) -> Sample:
        index = len(self.samples)
        out = self.run_dir / f"w{index}"
        req_path = self.run_dir / f"w{index}.request.json"
        res_path = self.run_dir / f"w{index}.result.json"
        argv = [self.workload.command, "--config", str(self.run_dir / "config.json"),
                "--out", str(out)]
        req = {"src": str(SRC), "argv": argv, "trace": kind == "traced", "result": str(res_path)}
        req_path.write_text(json.dumps(req))
        env = {**self.env, "OPENBLAS_NUM_THREADS": "1"} if kind == "blas1" else self.env
        problems, result = [], {}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(req_path)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
            )
            if proc.returncode != 0:
                problems.append(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        except subprocess.TimeoutExpired:
            problems.append(f"worker timed out after {WORKER_TIMEOUT_S} s")
        if res_path.exists():
            result = json.loads(res_path.read_text())
        elif not problems:
            problems.append("worker wrote no result")
        if result.get("error"):
            problems.append(f"worker raised: {result['error']}")
        elif result and result.get("exit") != 0:
            problems.append(f"swlyap exited {result.get('exit')}")
        probes = len(result.get("probe_s") or ())
        if kind != "traced" and not problems and probes < MIN_PROBES:
            problems.append(f"only {probes} speed probes ran; need {MIN_PROBES}")
        sample = Sample(kind, result, problems)
        if not problems:
            sample.digest, sample.artifact_bytes = _digest(out)
            if sample.digest not in self.checked:
                self.checked[sample.digest] = self.workload.check(self.config, out, ROOT)
            problems += self.checked[sample.digest]
            first = next((s.digest for s in self.samples if s.digest), sample.digest)
            if sample.digest != first:
                problems.append("artifacts differ from the first sample's")
        shutil.rmtree(out, ignore_errors=True)
        self.samples.append(sample)
        return sample


def _digest(out: Path):
    h, size = hashlib.sha256(), 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(out)).encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _median(values):
    return statistics.median(values) if values else None


def _spread(values) -> str:
    """Sample count and quartiles of the samples behind a median."""
    if len(values) < 2:
        return f" (n={len(values)})"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" (median of n={len(values)}, q1={q1:.6g}, q3={q3:.6g})"


def slowdown(r: dict) -> float:
    """How much slower than nominal the host ran a probed sample's task."""
    return statistics.mean(r["probe_s"]) / NOMINAL_PROBE_S


def unscaled(r: dict) -> dict:
    """A probed sample's wall and CPU times, less the probes' own time."""
    spent = sum(r["probe_s"])
    return {"setup_s": r["setup_s"], "task_s": r["task_s"] - spent,
            "task_cpu_s": r["task_cpu_s"] - spent}


def end_to_end(run: Run, items: int) -> tuple:
    plain = [s for s in run.samples if s.kind == "plain"]
    good = [s.result for s in plain if s.ok]
    scaled = [{k: v / slowdown(r) for k, v in unscaled(r).items()} for r in good]
    series = {
        "setup_s": [t["setup_s"] for t in scaled],
        "task_s": [t["task_s"] for t in scaled],
        "task_cpu_s": [t["task_cpu_s"] for t in scaled],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "items_per_s": [items / t["task_s"] for t in scaled],
    }
    metrics = {k: _median(v) for k, v in series.items()}
    metrics["success_rate"] = len(good) / len(plain) if plain else None
    return metrics, series


def wall(run: Run) -> dict:
    """Unscaled medians over the good plain samples, and the median slowdown."""
    good = [s.result for s in run.samples if s.kind == "plain" and s.ok]
    raw = [unscaled(r) for r in good]
    out = {k: _median([t[k] for t in raw]) for k in ("setup_s", "task_s", "task_cpu_s")}
    out["slowdown"] = _median([slowdown(r) for r in good])
    return out


def per_layer(run: Run) -> tuple:
    traced = [s for s in run.samples if s.kind == "traced" and s.ok]
    problems = []
    if len(traced) < MIN_TRACED:
        return {}, {}, [f"only {len(traced)} traced samples succeeded; need {MIN_TRACED}"]
    traces = [s.result["trace"] for s in traced]
    counts = [{k: t[k] for k in ("calls", "callers", "yielded")} for t in traces]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("traced call counts differ between samples of one seed")
    calls, callers = traces[0]["calls"], traces[0]["callers"]
    series, metrics = {}, {}
    for name, unit in PER_LAYER.items():
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = calls.get(base, 0)
        elif stat == "self_s":
            series[name] = [t["self_s"].get(base, 0.0) for t in traces]
            metrics[name] = _median(series[name])
    matrix_applies = calls.get("semigroups.apply.matrix", 0)
    # Share of matrix applies served without a new expm; 0 when there are none.
    metrics["semigroups.expm_hit_ratio"] = (
        1.0 - calls.get("semigroups.expm", 0) / matrix_applies if matrix_applies else 0.0)
    for name, caller in (("switching.evolve.apply_per_call", "switching.evolve"),
                         ("lyapunov.apply_per_cost", "lyapunov.trajectory_cost")):
        n = calls.get(caller, 0)
        metrics[name] = sum(callers.get(f"{caller}>{a}", 0) for a in APPLY) / n if n else 0.0
    metrics["switching.enumerate_family.signals"] = traces[0]["yielded"].get(
        "switching.enumerate_family", 0)
    metrics["cli.artifact_bytes"] = traced[0].artifact_bytes
    untraced = wall(run)
    metrics["wall.task_s"] = untraced["task_s"]
    metrics["host.slowdown"] = untraced["slowdown"]
    traced_task_s = _median([s.result["task_s"] for s in traced])
    metrics["trace.overhead"] = (traced_task_s / untraced["task_s"]
                                 if untraced["task_s"] else None)
    other = calls.get("semigroups.apply.other", 0)
    if other:
        problems.append(f"{other} apply calls on an unknown mode kind")
    return metrics, series, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    config = workload.make_config(seed)
    items = workload.count_items(config)
    env_block = environment()
    run_dir = RUNS / f"{name}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(config, indent=1, sort_keys=True))
    worker_env = {k: v for k, v in os.environ.items() if k != "SWLYAP_OUT"}
    run = Run(workload, config, run_dir, worker_env)

    start = time.monotonic()
    longest = 0.0

    def room() -> bool:
        return time.monotonic() - start + 1.5 * longest < RUN_BUDGET_S

    def take(kind):
        nonlocal longest
        t0 = time.monotonic()
        s = run.sample(kind)
        longest = max(longest, time.monotonic() - t0)
        status = "ok" if s.ok else "FAILED: " + "; ".join(s.problems)[:500]
        r = s.result
        speed = f"slowdown={slowdown(r):.3f} " if r.get("probe_s") else ""
        print(f"  sample {len(run.samples) - 1} {kind}: setup_s={r.get('setup_s', 0):.4f} "
              f"task_s={r.get('task_s', 0):.4f} task_cpu_s={r.get('task_cpu_s', 0):.4f} "
              f"{speed}{status}", flush=True)
        if r.get("trace_setup_error"):
            raise SystemExit(f"perfbench: {r['trace_setup_error']}")

    print(f"perfbench {name} seed={seed} trace={int(trace)} items={items} "
          f"({workload.item}s) config={run_dir / 'config.json'}", flush=True)
    if trace:
        while room() and (time.monotonic() - start < seconds
                          or sum(s.kind == "traced" for s in run.samples) < MIN_TRACED):
            take("plain")
            take("traced")
        take("blas1")
    else:
        while room() and (time.monotonic() - start < seconds or len(run.samples) < MIN_SAMPLES):
            take("plain")

    env_block["worker_blas_threads"] = run.samples[0].result.get("blas_threads")
    print("environment " + json.dumps(env_block), flush=True)
    metrics, series = end_to_end(run, items)
    problems = []
    notes = {"unscaled": wall(run)}
    if trace:
        metrics, series, problems = per_layer(run)
        blas1 = run.samples[-1]
        notes["blas_threads"] = {
            "inherited": {"threads": run.samples[0].result.get("blas_threads"),
                          **{k: notes["unscaled"][k] for k in ("task_s", "task_cpu_s")}},
            "OPENBLAS_NUM_THREADS=1": {"threads": blas1.result.get("blas_threads"),
                                       **(unscaled(blas1.result) if blas1.ok else {})},
        }
    print("note " + json.dumps(notes), flush=True)
    units = PER_LAYER if trace else END_TO_END
    for key, unit in units.items():
        spread = _spread(series[key]) if key in series else ""
        print(f"  {key} = {metrics.get(key)!r} {unit}{spread}")
    if any(metrics.get(key) is None for key in units):
        problems.append("some metrics could not be computed")
    failed = sum(not s.ok for s in run.samples)
    out = {
        "correct": failed == 0 and not problems,
        "attempted": len(run.samples),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if metrics.get(k) is not None},
    }
    for p in problems:
        print(f"  PROBLEM: {p}", flush=True)
    record = {
        "workload": name, "why": workload.why, "seed": seed, "trace": int(trace),
        "seconds": seconds, "items": items, "item": workload.item, "environment": env_block,
        "notes": notes, "problems": problems,
        "samples": [{"kind": s.kind, "ok": s.ok, "problems": s.problems, "digest": s.digest,
                     "artifact_bytes": s.artifact_bytes, **s.result} for s in run.samples],
        "result": out,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: not a swlyap checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    compileall.compile_dir(str(SRC / "swlyap"), quiet=1)
    if args.workload != "all":
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        outs = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
        out = {
            "correct": all(o["correct"] for o in outs.values()),
            "attempted": sum(o["attempted"] for o in outs.values()),
            "failed": sum(o["failed"] for o in outs.values()),
            "metrics": {f"{w}.{k}": v for w, o in outs.items() for k, v in o["metrics"].items()},
        }
    print(json.dumps(out, sort_keys=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
