"""tools/artifact_drift.py on two small artifact trees."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "artifact_drift.py"


def _drift(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True)


def _tree(root, files):
    for name, content in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return root


def test_float_drift_alone_exits_0(tmp_path):
    doc = {"mu": 1.0, "ok": True, "B": [[2.0, 0.5], [0.5, 4.0]], "task": "certify"}
    old = _tree(tmp_path / "old", {"a/same.json": doc, "a/cert.json": doc,
                                   "run.csv": "t,norm\n0.0,1.0\n0.5,0.25\n"})
    moved = {**doc, "mu": 1.0 + 2**-52, "B": [[2.0, 0.5 + 2**-50], [0.5, 4.0]]}
    new = _tree(tmp_path / "new", {"a/same.json": doc, "a/cert.json": moved,
                                   "run.csv": f"t,norm\n0.0,1.0\n0.5,{0.25 + 2**-54!r}\n"})
    out = _drift(old, new)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"a/cert.json: 2 floats changed, largest relative change {2**-50 / 0.5:.2g} at B[0][1]",
        "a/same.json: identical",
        f"run.csv: 1 floats changed, largest relative change {2**-54 / 0.25:.2g} at [2][1]",
    ]


def test_every_other_change_is_named_and_exits_1(tmp_path):
    doc = {"argmax": [0, 2], "ok": True, "v": 1.0, "notes": ["a"]}
    old = _tree(tmp_path / "old", {"g.json": doc, "gone.json": doc, "s.txt": "x\n"})
    changed = {"argmax": [0, 3], "ok": False, "v": 1.5, "notes": ["a", "b"], "extra": 1}
    new = _tree(tmp_path / "new", {"g.json": changed, "s.txt": "y\n", "added.csv": "1\n"})
    out = _drift(old, new)
    assert out.returncode == 1
    assert out.stdout.splitlines() == [
        f"added.csv: only in {new}",
        "g.json: 1 floats changed, largest relative change 0.33 at v, 4 other values changed",
        "  argmax[1]",
        "  extra",
        "  notes[1]",
        "  ok",
        f"gone.json: only in {old}",
        "s.txt: bytes differ",
    ]


def test_identical_trees_and_usage(tmp_path):
    files = {"x.json": {"a": [1.0]}, "y.txt": "same\n"}
    old, new = _tree(tmp_path / "old", files), _tree(tmp_path / "new", files)
    out = _drift(old, new)
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["x.json: identical", "y.txt: identical"]
    assert _drift(old).returncode == 2
    assert _drift(old, tmp_path / "missing").returncode == 2
