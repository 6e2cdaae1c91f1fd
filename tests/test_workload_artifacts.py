"""tools/workload_artifacts.py at one seed: one directory of artifacts per
benchmark workload and per reproduce example, each of which passes its
workload's own output check."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "workload_artifacts.py"
ARTIFACTS = {  # in the order of the runs
    "transport-search-seed5": {"estimate.json"},
    "transport-simulate-seed5": {"summary.json", "trajectory.csv"},
    "matrix-certify-seed5": {"certificates.json"},
    "gram-deep-seed5": {"gram.json"},
    "reproduce-example-2.1": {"staircase.csv", "summary.json", "summary.txt"},
    "reproduce-remark-3.2": {"summary.json", "summary.txt"},
    "reproduce-half-line-shift": {"summary.json", "summary.txt", "trajectory.csv"},
}


def _run(args, **env):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path, **env})


def test_one_seed_writes_every_workload_and_example(tmp_path):
    out = tmp_path / "out"
    proc = _run([out, 5])
    assert proc.returncode == 0, proc.stderr
    status = [line for line in proc.stdout.splitlines() if ": exit " in line]
    assert status == [f"{name}: exit 0" for name in ARTIFACTS]
    assert {d.name: {f.name for f in d.iterdir()} for d in out.iterdir()} == ARTIFACTS


def load_workloads():
    """perfbench/workloads.py, imported from its file and never edited."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_five_passes_every_workload_check(tmp_path):
    """Each workload's artifacts pass the check the benchmark applies to them:
    an oracle miss or a wrong count would make its run incorrect.  A sample
    that runs under the benchmark's 10-probe floor also makes a run incorrect,
    and this test cannot see that."""
    out = tmp_path / "out"
    assert _run([out, 5]).returncode == 0
    for name, workload in load_workloads().WORKLOADS.items():
        assert workload.check(workload.make_config(5), out / f"{name}-seed5", ROOT) == [], name


def test_usage(tmp_path):
    for args in ([], [tmp_path], [tmp_path, "one"]):
        assert _run(args).returncode == 2
