"""Print, for each benchmark workload, how close its samples ran to the probe floor.

The benchmark counts a sample in which fewer than MIN_PROBES probes ran as
failed (the floor, read from perfbench/run.py), so a workload's fewest probes
is how near its fastest sample came to that floor.  Reads every
RUNS_DIR/<workload>-seed<n>-trace<t>-<ns>/w*.result.json (RUNS_DIR defaults to
.perfbench_runs) and prints one line per workload: the fewest probes, that
sample's slowdown (its mean probe time over NOMINAL_PROBE_S), its headroom
(fewest probes / floor: the largest speedup that sample could take and still
pass) and the sample's file; then how many of its probed samples ran under
the floor, how many ran at it or one probe above it, and the smallest sample
task_s as the sample recorded it.  Traced samples run no probe and are
skipped.  Given two or more RUNS_DIRs (say, a parent run and a change run),
it prints each directory's name and then its lines, indented, in the order
given; a directory without a probed sample is an error.

    python3 tools/probe_floor.py [RUNS_DIR...]
"""

import ast
import json
import statistics
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def run_constant(name, run_py=RUN_PY):
    """The value of the benchmark's top-level ``name = ...`` in ``run_py``."""
    for node in ast.parse(run_py.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    sys.exit(f"no {name} assignment in {run_py}")


def report(runs: Path, nominal: float, floor: int) -> list:
    """The lines for the probed samples under ``runs``, one per workload."""
    samples = {}  # workload -> [(probes, mean probe time, task_s, path)]
    for path in sorted(runs.glob("*/w*.result.json")):
        result = json.loads(path.read_text())
        probes = result.get("probe_s")
        if probes:
            workload = path.parent.name.rsplit("-seed", 1)[0]
            samples.setdefault(workload, []).append(
                (len(probes), statistics.mean(probes), result["task_s"], path))
    if not samples:
        sys.exit(f"no sample with probe times under {runs}")
    lines = []
    for workload, rows in sorted(samples.items()):
        n, mean_s, _, path = min(rows, key=lambda row: row[0])
        under = sum(row[0] < floor for row in rows)
        near = sum(floor <= row[0] <= floor + 1 for row in rows)
        lines.append(f"{workload}: {n} probes at slowdown {mean_s / nominal:.2f}, "
                     f"headroom {n / floor:.2f}x over the {floor}-probe floor "
                     f"({path.parent.name}/{path.name}); of {len(rows)} samples {under} ran "
                     f"under the floor and {near} at it or one probe above; "
                     f"smallest task_s {min(row[2] for row in rows):.4f} s")
    return lines


def main(argv):
    dirs = [Path(arg) for arg in argv] or [Path(".perfbench_runs")]
    nominal, floor = run_constant("NOMINAL_PROBE_S"), run_constant("MIN_PROBES")
    for runs in dirs:
        lines = report(runs, nominal, floor)
        if len(dirs) > 1:
            print(f"{runs}:")
            lines = [f"  {line}" for line in lines]
        print("\n".join(lines))


if __name__ == "__main__":
    main(sys.argv[1:])
