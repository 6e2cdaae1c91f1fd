"""tools/workload_artifacts.py at one seed: one directory of artifacts per
benchmark workload and per reproduce example."""

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
    proc = _run([out, 5], SWLYAP_OUT=str(tmp_path / "ignored"))
    assert proc.returncode == 0, proc.stderr
    status = [line for line in proc.stdout.splitlines() if ": exit " in line]
    assert status == [f"{name}: exit 0" for name in ARTIFACTS]
    assert {d.name: {f.name for f in d.iterdir()} for d in out.iterdir()} == ARTIFACTS
    assert not (tmp_path / "ignored").exists()


def test_usage(tmp_path):
    for args in ([], [tmp_path], [tmp_path, "one"]):
        assert _run(args).returncode == 2
