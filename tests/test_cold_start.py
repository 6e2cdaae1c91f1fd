"""Transport tasks start without numpy, and no task loads `dataclasses`.

`import swlyap` and `import swlyap.cli` load no numpy, and neither does a task
on piecewise states: `simulate` and `worst-case` on the golden transport
configs, and `reproduce example-2.1` and `half-line-shift`, and neither do
`v_tilde` and `v_tilde_single_mode` on one.  A matrix task loads numpy at its
first matrix call.  The records are plain classes, so neither the
imports nor any task load `dataclasses` or its `inspect`; numpy imports
`inspect` itself, so only a run without numpy is free of it.  Each run is a
fresh interpreter, since the test process has numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden_artifacts import SEARCH, SIMULATE

SRC = str(Path(__file__).resolve().parent.parent / "src")

COMMUTING_CERTIFY = {
    "system": {"modes": [{"kind": "matrix", "A": [[-1.0, 0.0], [0.0, -2.0]]},
                         {"kind": "matrix", "A": [[-2.0, 0.0], [0.0, -1.0]]}]},
    "n_samples": 2,
    "horizon": 1.0,
    "family": {"dwells": [0.5], "max_switches": 1},
}

# Runs `main` on each (name, argv) of argv[1] in order and prints, as one JSON
# line, which of numpy, dataclasses and inspect were loaded after each import
# and after each run.
SCRIPT = """
import json, sys
def loaded():
    return [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
import swlyap
seen = {"import swlyap": loaded()}
import swlyap.cli
seen["import swlyap.cli"] = loaded()
for name, argv in json.loads(sys.argv[1]):
    assert swlyap.cli.main(argv) == 0, name
    seen[name] = loaded()
print(json.dumps(seen))
"""


def test_transport_tasks_never_load_numpy(tmp_path):
    runs = []
    for name, argv, config in (("worst-case", ["worst-case"], SEARCH),
                               ("simulate", ["simulate"], SIMULATE),
                               ("example-2.1", ["reproduce", "example-2.1"], None),
                               ("half-line-shift", ["reproduce", "half-line-shift"], None),
                               ("certify", ["certify"], COMMUTING_CERTIFY)):
        if config is not None:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        runs.append((name, [*argv, "--out", str(tmp_path / name)]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(runs)], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"import swlyap": [], "import swlyap.cli": [], "worst-case": [],
                      "simulate": [], "example-2.1": [], "half-line-shift": [],
                      "certify": ["numpy", "inspect"]}


# v_tilde and v_tilde_single_mode on a piecewise state, in a fresh interpreter;
# prints whether numpy was loaded after each call.
V_TILDE_SCRIPT = """
import sys
from swlyap import PiecewiseConstantFn, SignalFamily, v_tilde, v_tilde_single_mode
from swlyap.presets import blowup_transport_pair
system = blowup_transport_pair()
f = PiecewiseConstantFn.indicator(-1.0, 1.0, -0.25, 0.5)
est = v_tilde(system, f, SignalFamily((0.5,), 1, (0, 1)), 2.0)
after_v_tilde = "numpy" in sys.modules
value = v_tilde_single_mode(system.modes[0], 1.0, f, 2.0)
print(est.value > 0.0, value > 0.0, after_v_tilde, "numpy" in sys.modules)
"""


def test_v_tilde_on_a_piecewise_state_never_loads_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", V_TILDE_SCRIPT], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "False", "False"]
