"""tools/probe_floor.py on a runs directory holding fake sample results."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "probe_floor.py"


def _tool():
    spec = importlib.util.spec_from_file_location("probe_floor", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sample(runs, run, probe_s, task_s=0.2):
    (runs / run).mkdir()
    (runs / run / "w0.result.json").write_text(json.dumps({"task_s": task_s, "probe_s": probe_s}))


def _probe_floor(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True)


def test_fewest_probes_per_workload_with_its_slowdown(tmp_path):
    tool = _tool()
    nominal, floor = tool.run_constant("NOMINAL_PROBE_S"), tool.run_constant("MIN_PROBES")
    _sample(tmp_path, "transport-search-seed1-trace0-7", [nominal] * (floor + 4))
    _sample(tmp_path, "transport-search-seed2-trace0-8", [1.5 * nominal, 2.5 * nominal] * 6)
    _sample(tmp_path, "gram-deep-seed1-trace0-9", [nominal] * (3 * floor))
    out = _probe_floor(tmp_path)
    assert out.returncode == 0
    assert out.stdout.splitlines() == [
        f"gram-deep: {3 * floor} probes at slowdown 1.00, headroom 3.00x over the "
        f"{floor}-probe floor (gram-deep-seed1-trace0-9/w0.result.json); of 1 samples "
        f"0 ran under the floor and 0 at it or one probe above; "
        "smallest task_s 0.2000 s",
        f"transport-search: 12 probes at slowdown 2.00, headroom {12 / floor:.2f}x over the "
        f"{floor}-probe floor (transport-search-seed2-trace0-8/w0.result.json); of 2 samples "
        f"{int(12 < floor)} ran under the floor and {int(floor <= 12 <= floor + 1)} at it or "
        "one probe above; smallest task_s 0.2000 s",
    ]


def test_samples_under_and_near_the_floor_are_counted(tmp_path):
    tool = _tool()
    nominal, floor = tool.run_constant("NOMINAL_PROBE_S"), tool.run_constant("MIN_PROBES")
    for i, (probes, task_s) in enumerate([(floor + 3, 0.5), (floor - 1, 0.1), (floor, 0.12),
                                          (floor + 1, 0.13), (floor + 2, 0.2)]):
        _sample(tmp_path, f"matrix-certify-seed{i}-trace0-{i}", [nominal] * probes, task_s)
    _sample(tmp_path, "matrix-certify-seed9-trace1-9", None)  # traced: skipped
    out = _probe_floor(tmp_path)
    assert out.returncode == 0
    assert out.stdout.splitlines() == [
        f"matrix-certify: {floor - 1} probes at slowdown 1.00, headroom "
        f"{(floor - 1) / floor:.2f}x over the {floor}-probe floor "
        f"(matrix-certify-seed1-trace0-1/w0.result.json); of 5 samples 1 ran under the "
        f"floor and 2 at it or one probe above; "
        "smallest task_s 0.1000 s",
    ]


def test_constants_are_read_from_the_benchmark_not_copied(tmp_path):
    tool = _tool()
    assert tool.RUN_PY == SCRIPT.parents[1] / "perfbench" / "run.py"
    fake = tmp_path / "run.py"
    fake.write_text("import os\nNOMINAL_PROBE_S = 2e-4\nMIN_PROBES = 4  # floor\n")
    assert tool.run_constant("MIN_PROBES", fake) == 4
    assert tool.run_constant("NOMINAL_PROBE_S", fake) == 2e-4
    assert isinstance(tool.run_constant("MIN_PROBES"), int)


def test_no_samples_is_an_error(tmp_path):
    out = _probe_floor(tmp_path)
    assert out.returncode == 1 and "no sample with probe times" in out.stderr


def test_several_dirs_print_under_their_names(tmp_path):
    tool = _tool()
    nominal, floor = tool.run_constant("NOMINAL_PROBE_S"), tool.run_constant("MIN_PROBES")
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    _sample(parent, "transport-simulate-seed1-trace0-1", [nominal] * (floor + 6), 0.18)
    _sample(change, "transport-simulate-seed1-trace0-2", [2 * nominal] * (floor + 3), 0.15)
    _sample(change, "gram-deep-seed1-trace0-3", [nominal] * floor)
    alone = [_probe_floor(d).stdout.splitlines() for d in (parent, change)]
    out = _probe_floor(parent, change)
    assert out.returncode == 0
    assert out.stdout.splitlines() == (
        [f"{parent}:"] + [f"  {line}" for line in alone[0]]
        + [f"{change}:"] + [f"  {line}" for line in alone[1]])
    assert alone[1][1].startswith(f"transport-simulate: {floor + 3} probes at slowdown 2.00")
    # a directory without a probed sample fails the whole run
    empty = tmp_path / "empty"
    empty.mkdir()
    out = _probe_floor(parent, empty)
    assert out.returncode == 1 and f"no sample with probe times under {empty}" in out.stderr
