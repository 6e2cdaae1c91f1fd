"""Write the artifacts of the benchmark workloads and the reproduce examples to one tree.

For each SEED, each workload of perfbench/workloads.py gets its config from
the workload's own generator (imported, never edited) and its artifacts in
OUT_DIR/<workload>-seed<n>/; each `reproduce` example writes its artifacts
once, in OUT_DIR/reproduce-<id>/.  Every run calls `swlyap.cli.main` in this
process, from whichever `swlyap` is importable, so the tree reflects the
`src` on PYTHONPATH; each run gets its directory as `--out`, which nothing
overrides.  Prints one line per run; exits 1 if any run exits nonzero and 2
on bad arguments.  Two trees written from two checkouts compare with
tools/artifact_drift.py:

    PYTHONPATH=src python3 tools/workload_artifacts.py OUT_DIR SEED...
"""

import json
import sys
import tempfile
from pathlib import Path

from swlyap.cli import EXAMPLES
from swlyap.cli import main as swlyap_main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def runs(seeds, config_dir: Path):
    """``(name, argv)`` of every run: each workload at each seed, then each example."""
    for seed in seeds:
        for workload in WORKLOADS.values():
            name = f"{workload.name}-seed{seed}"
            path = config_dir / f"{name}.json"
            path.write_text(json.dumps(workload.make_config(seed)))
            yield name, [workload.command, "--config", str(path)]
    for example in EXAMPLES:
        yield f"reproduce-{example}", ["reproduce", example]


def main(argv):
    try:
        out, seeds = Path(argv[0]), [int(s) for s in argv[1:]]
    except (IndexError, ValueError):
        seeds = []
    if not seeds:
        print("usage: " + __doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as config_dir:
        for name, args in runs(seeds, Path(config_dir)):
            code = swlyap_main([*args, "--out", str(out / name)])
            print(f"{name}: exit {code}", flush=True)
            failed |= code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
