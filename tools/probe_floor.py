"""Print, for each benchmark workload, the fewest probes any sample ran.

The benchmark counts a sample in which fewer than MIN_PROBES probes ran as
failed (the floor, read from perfbench/run.py), so a workload's fewest probes
is how near its fastest sample came to that floor.  Reads every
RUNS_DIR/<workload>-seed<n>-trace<t>-<ns>/w*.result.json (RUNS_DIR defaults to
.perfbench_runs) and prints one line per workload: the fewest probes, that
sample's slowdown (its mean probe time over NOMINAL_PROBE_S), its headroom
(fewest probes / floor: the largest speedup that sample could take and still
pass) and the sample's file.  Traced samples run no probe and are skipped.

    python3 tools/probe_floor.py [RUNS_DIR]
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


def main(argv):
    runs = Path(argv[0] if argv else ".perfbench_runs")
    fewest = {}
    for path in sorted(runs.glob("*/w*.result.json")):
        probes = json.loads(path.read_text()).get("probe_s")
        workload = path.parent.name.rsplit("-seed", 1)[0]
        if probes and (workload not in fewest or len(probes) < fewest[workload][0]):
            fewest[workload] = (len(probes), statistics.mean(probes), path)
    if not fewest:
        sys.exit(f"no sample with probe times under {runs}")
    nominal, floor = run_constant("NOMINAL_PROBE_S"), run_constant("MIN_PROBES")
    for workload, (n, mean_s, path) in sorted(fewest.items()):
        print(f"{workload}: {n} probes at slowdown {mean_s / nominal:.2f}, "
              f"headroom {n / floor:.2f}x over the {floor}-probe floor "
              f"({path.parent.name}/{path.name})")


if __name__ == "__main__":
    main(sys.argv[1:])
