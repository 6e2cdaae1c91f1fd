"""No task leaves state behind in a module: every module-level dict, list or
set of every ``swlyap`` module reads the same after ``main`` runs a task.

The one allowance is ``semigroups._EXPM_CACHE``, the matrix-exponential
memo that ``apply`` reads on ``evolve`` grids (the matrix energy path reads
none).  Once ``evolve`` no longer needs it, the allowance goes and the set of
changed names must be empty.
"""

import copy
import importlib
import json
import pkgutil

import numpy as np

import swlyap
from swlyap import semigroups
from swlyap.cli import main

ALLOWED = {"semigroups._EXPM_CACHE"}

CERTIFY = {
    "system": {"modes": [{"kind": "matrix", "A": [[-1.0, 0.0], [0.0, -2.0]]},
                         {"kind": "matrix", "A": [[-2.0, 0.0], [0.0, -1.0]]}]},
    "n_samples": 2,
    "horizon": 1.0,
    "family": {"dwells": [0.5], "max_switches": 1},
}

WORST_CASE = {
    "system": {
        "modes": [
            {"kind": "shift_amplify", "domain": [0.0, 1.0], "direction": "left",
             "amplify": [0.0, 4.0 ** -(j + 1)], "factor": 2.0 ** 0.5}
            for j in range(2)
        ],
        "norm": {"kind": "lp", "p": 2.0},
    },
    "state": {"domain": [0.0, 1.0], "breaks": [0.25, 0.875], "values": [1.5, -0.5, 2.0]},
    "family": {"dwells": [0.25], "max_switches": 1},
}


def module_containers() -> dict:
    """``{"module.name": value}`` of every non-dunder module-level dict, list or set."""
    found = {}
    for info in pkgutil.iter_modules(swlyap.__path__):
        mod = importlib.import_module(f"swlyap.{info.name}")
        for name, value in vars(mod).items():
            if not name.startswith("__") and type(value) in (dict, list, set):
                found[f"{info.name}.{name}"] = value
    return found


def same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def test_tasks_change_no_module_state_but_the_expm_cache(tmp_path, monkeypatch):
    monkeypatch.delenv("SWLYAP_OUT", raising=False)
    # start from an empty memo, so the run is seen to fill it
    monkeypatch.setattr(semigroups, "_EXPM_CACHE", {})
    before = {name: copy.deepcopy(value) for name, value in module_containers().items()}
    assert {"cli._SCALARS", "cli._PARAMS", *ALLOWED} <= before.keys()
    for task, config in (("certify", CERTIFY), ("worst-case", WORST_CASE)):
        path = tmp_path / f"{task}.json"
        path.write_text(json.dumps(config))
        assert main([task, "--config", str(path), "--out", str(tmp_path / task)]) == 0
    after = module_containers()
    assert after.keys() == before.keys()
    changed = {name for name in before if not same(before[name], after[name])}
    assert changed == ALLOWED
