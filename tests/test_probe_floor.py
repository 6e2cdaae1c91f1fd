"""tools/probe_floor.py on a runs directory holding two fake sample results."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "probe_floor.py"


def _sample(runs, run, probe_s):
    (runs / run).mkdir()
    (runs / run / "w0.result.json").write_text(json.dumps({"task_s": 0.2, "probe_s": probe_s}))


def _probe_floor(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True)


def test_fewest_probes_per_workload_with_its_slowdown(tmp_path):
    _sample(tmp_path, "transport-search-seed1-trace0-7", [140e-6] * 14)
    _sample(tmp_path, "transport-search-seed2-trace0-8", [210e-6, 350e-6] * 6)
    out = _probe_floor(tmp_path)
    assert out.returncode == 0
    assert out.stdout.splitlines() == [
        "transport-search: 12 probes at slowdown 2.00 "
        "(transport-search-seed2-trace0-8/w0.result.json)"
    ]


def test_no_samples_is_an_error(tmp_path):
    out = _probe_floor(tmp_path)
    assert out.returncode == 1 and "no sample with probe times" in out.stderr
