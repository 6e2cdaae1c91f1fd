"""Print, for each benchmark workload, the fewest probes any sample ran.

The benchmark counts a sample in which fewer than 10 probes ran as failed, so a
workload's fewest probes is how near its fastest sample came to that floor.
Reads every RUNS_DIR/<workload>-seed<n>-trace<t>-<ns>/w*.result.json (RUNS_DIR
defaults to .perfbench_runs) and prints one line per workload: the fewest
probes, that sample's slowdown (its mean probe time over the nominal 140 us)
and the sample's file.  Traced samples run no probe and are skipped.

    python3 tools/probe_floor.py [RUNS_DIR]
"""

import json
import statistics
import sys
from pathlib import Path

NOMINAL_PROBE_S = 140e-6


def main(argv):
    runs = Path(argv[0] if argv else ".perfbench_runs")
    fewest = {}
    for path in sorted(runs.glob("*/w*.result.json")):
        probes = json.loads(path.read_text()).get("probe_s")
        workload = path.parent.name.rsplit("-seed", 1)[0]
        if probes and (workload not in fewest or len(probes) < fewest[workload][0]):
            fewest[workload] = (len(probes), statistics.mean(probes) / NOMINAL_PROBE_S, path)
    if not fewest:
        sys.exit(f"no sample with probe times under {runs}")
    for workload, (n, slowdown, path) in sorted(fewest.items()):
        print(f"{workload}: {n} probes at slowdown {slowdown:.2f} "
              f"({path.parent.name}/{path.name})")


if __name__ == "__main__":
    main(sys.argv[1:])
