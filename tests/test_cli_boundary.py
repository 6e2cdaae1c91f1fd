"""The CLI boundary: every malformed config exits 2 with its field path, every
numerical failure exits 1 with a message, and none prints a traceback."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swlyap.cli import RunConfig, main, validate_config

SRC = str(Path(__file__).resolve().parent.parent / "src")
PAIR = {
    "modes": [
        {"kind": "matrix", "A": [[-1.0, 0.0], [0.0, -2.0]]},
        {"kind": "matrix", "A": [[-2.0, 0.0], [0.0, -1.0]]},
    ]
}
UNIT = {"coords": [1.0, 1.0]}
SMALL_FAMILY = {"dwells": [0.5], "max_switches": 1}
MISSING = object()  # no config file at the given path


def pair_config(**fields):
    return {"system": PAIR, "state": UNIT, "family": SMALL_FAMILY, **fields}


def scalar_config(a):
    return {"system": {"modes": [{"kind": "matrix", "A": [[a]]}]}, "state": {"coords": [1.0]}}


def mode_config(**mode):
    """A one-mode coordinate config; its mode is a matrix mode unless ``kind`` is given."""
    return {"system": {"modes": [{"kind": "matrix", **mode}]}, "state": {"coords": [1.0]}}


def shift_config(**fields):
    """A one-mode transport config whose shift_amplify mode has ``fields`` replaced."""
    mode = {"kind": "shift_amplify", "domain": [0.0, 1.0], "direction": "left",
            "amplify": [0.0, 0.25], "factor": 2.0, **fields}
    return {"system": {"modes": [mode]},
            "state": {"domain": [0.0, 1.0], "breaks": [], "values": [1.0]}}


def half_line_config(p):
    """A one-mode half-line config in L^p whose state is the constant 1e300."""
    return {"system": {"modes": [{"kind": "half_line_shift"}], "norm": {"kind": "lp", "p": p}},
            "state": {"domain": [0.0, 1.0], "breaks": [], "values": [1e300]}}


# (id, argv, config document, exit code, stderr prefix)
PROBES = [
    ("modes-not-a-list", ["worst-case"], {"system": {"modes": 5}, "state": UNIT}, 2,
     "system.modes: "),
    ("norm-not-an-object", ["worst-case"], pair_config(system={**PAIR, "norm": 5}), 2,
     "system.norm: must be an object"),
    ("family-a-list", ["worst-case"], pair_config(family=[1]), 2, "family: "),
    ("family-dwells-text", ["worst-case"], pair_config(family={"dwells": "abc"}), 2,
     "family.dwells: must be a list of numbers"),
    ("family-max-switches-text", ["worst-case"], pair_config(family={"max_switches": "x"}), 2,
     "family.max_switches: must be an integer"),
    ("signal-segments-a-number", ["simulate"],
     pair_config(signal={"segments": 3, "tail": 0}), 2,
     "signal.segments: must be a list of [mode, dwell] pairs"),
    ("state-coords-text", ["worst-case"], pair_config(state={"coords": "ab"}), 2,
     "state.coords: must be a list of numbers"),
    ("delta-text", ["reproduce", "example-2.1"], {"params": {"delta": "a"}}, 2,
     "params.delta: "),
    ("delta-zero", ["reproduce", "example-2.1"], {"params": {"delta": 0}}, 2, "params.delta: "),
    ("delta-too-fine", ["reproduce", "example-2.1"], {"params": {"delta": 1 / 128}}, 2,
     "params.delta: "),
    ("n-text", ["reproduce", "remark-3.2"], {"params": {"n": "a"}}, 2, "params.n: "),
    ("n-too-deep", ["reproduce", "remark-3.2"], {"params": {"n": 26}}, 2, "params.n: "),
    ("n-fractional", ["reproduce", "remark-3.2"], {"params": {"n": 4.5}}, 2, "params.n: "),
    ("p-below-one", ["reproduce", "remark-3.2"], {"params": {"p": 0.5}}, 2, "params.p: "),
    ("certify-nothing-to-sample", ["certify"],
     {"system": {"modes": [{"kind": "diagonal_group", "mu": 1.0}]}}, 2, "system.modes: "),
    ("config-file-missing", ["worst-case"], MISSING, 2, "config: cannot read"),
    ("config-invalid-json", ["worst-case"], "{not json", 2, "config: invalid JSON"),
    ("config-top-level-list", ["worst-case"], [1, 2], 2, "config: expected a JSON object"),
    ("state-wrong-dimension", ["worst-case"], pair_config(state={"coords": [1.0, 2.0, 3.0]}), 2,
     "state: state dimension"),
    ("state-piecewise-for-matrix-modes", ["worst-case"],
     pair_config(state={"domain": [0, 1], "breaks": [], "values": [1.0]}), 2, "state: "),
    ("family-mode-out-of-range", ["worst-case"], pair_config(family={"modes": [0, 5]}), 2,
     "family: mode id 5 out of range"),
    ("signal-mode-out-of-range", ["simulate"],
     pair_config(signal={"segments": [[3, 0.5]], "tail": 0}), 2,
     "signal: mode id 3 out of range"),
    ("signal-negative-dwell", ["simulate"],
     pair_config(signal={"segments": [[0, 0.5], [1, -1.0]], "tail": 0}), 2,
     "signal.segments[1].dwell: "),
    ("horizon-true", ["worst-case"], pair_config(horizon=True), 2, "horizon: "),
    ("nested-boolean", ["worst-case"], {**scalar_config(-1.0), "state": {"coords": [True]}}, 2,
     "state.coords[0]: "),
    ("seed-negative", ["certify"], {"system": PAIR, "seed": -1}, 2, "seed: "),
    ("seed-huge-integer", ["worst-case"], pair_config(horizon=10**400), 2, "horizon: "),
    ("matrix-text", ["worst-case"], {"system": {"modes": [{"kind": "matrix", "A": "zz"}]},
                                     "state": {"coords": [1.0]}}, 2,
     "system.modes[0].A: must be a list of rows of numbers"),
    ("mode-missing-field", ["worst-case"], {"system": {"modes": [{"kind": "matrix"}]},
                                            "state": {"coords": [1.0]}}, 2,
     "system.modes[0].A: required"),
    ("modes-missing", ["worst-case"], {"system": {}, "state": UNIT}, 2, "system.modes: required"),
    ("out-dir-a-number", ["worst-case"], pair_config(out_dir=5), 2, "out_dir: "),
    ("family-numeric-strings", ["worst-case"],
     pair_config(family={"dwells": "25", "max_switches": "1"}), 2,
     "family.dwells: must be a list of numbers"),
    ("coords-numeric-string", ["worst-case"], pair_config(state={"coords": ["2", 1.0]}), 2,
     "state.coords[0]: must be a number"),
    ("matrix-numeric-string", ["worst-case"],
     {"system": {"modes": [{"kind": "matrix", "A": [["-1"]]}]}, "state": {"coords": [1.0]}},
     2, "system.modes[0].A[0][0]: must be a number"),
    ("segments-numeric-strings", ["simulate"],
     pair_config(signal={"segments": [["0", "0.5"]], "tail": 0}), 2,
     "signal.segments[0].mode: must be an integer"),
    ("simulate-grid-too-fine", ["simulate"],
     pair_config(signal={"segments": [], "tail": 0}, dt=1e-8, horizon=10.0), 2, "dt: "),
    ("scalar-overflow-worst-case", ["worst-case"], scalar_config(1000.0), 1,
     "error in worst_case: "),
    ("scalar-overflow-certify", ["certify"], {**scalar_config(1000.0), "n_samples": 1}, 1,
     "error in certify: "),
    ("scalar-energy-overflow", ["worst-case"], scalar_config(40.0), 1, "error in worst_case: "),
    # certify fits its rates on the time grid 0.25 k, so it needs two points
    ("certify-horizon-before-first-sample", ["certify"],
     {**scalar_config(-1.0), "horizon": 0.1, "n_samples": 1}, 2,
     "horizon: certify needs at least 0.5"),
    ("certify-horizon-one-grid-point", ["certify"],
     {**scalar_config(-1.0), "horizon": 0.25, "n_samples": 1}, 2,
     "horizon: certify needs at least 0.5"),
    ("gram-zero-state", ["gram"], pair_config(state={"coords": [0.0, 0.0]}), 2,
     "state: must be nonzero"),
    # a matrix product past the double range prints the error line alone
    ("simulate-matmul-overflow", ["simulate"],
     {"system": {"modes": [{"kind": "matrix", "A": [[5.0, 0.0], [0.0, 1.0]]}]},
      "state": {"coords": [1e300, 1.0]}, "signal": {"segments": [], "tail": 0},
      "dt": 1.0, "horizon": 10.0}, 1, "error in simulate: "),
    ("worst-case-matmul-overflow", ["worst-case"],
     {"system": {"modes": [{"kind": "matrix", "A": [[-1.0, 0.0], [0.0, -2.0]]}]},
      "state": {"coords": [1e200, 1e200]}, "family": {"dwells": [0.5], "max_switches": 0}},
     1, "error in worst_case: "),
    # a section or field of the wrong JSON type is named with what it needs
    ("system-null", ["worst-case"], {"system": None, "state": UNIT}, 2,
     "system: must be an object with a 'modes' list"),
    ("family-a-number", ["worst-case"], pair_config(family=5), 2, "family: must be an object"),
    ("family-max-switches-a-list", ["worst-case"], pair_config(family={"max_switches": [1]}), 2,
     "family.max_switches: must be an integer"),
    ("state-a-list", ["worst-case"], pair_config(state=[1, 2]), 2, "state: must be an object"),
    ("signal-a-number", ["simulate"], pair_config(signal=5), 2, "signal: must be an object"),
    # certify's signal evaluations are bounded before it runs
    ("certify-horizon-too-long", ["certify"], pair_config(horizon=1e5), 2, "horizon: certify"),
    ("certify-too-many-samples", ["certify"], pair_config(n_samples=10**5), 2,
     "n_samples: certify"),
    # each mode and norm field is checked by its reader, and named by its path
    ("matrix-a-number", ["worst-case"], mode_config(A=5), 2,
     "system.modes[0].A: must be a list of rows of numbers"),
    ("matrix-a-flat-list", ["worst-case"], mode_config(A=[5]), 2,
     "system.modes[0].A[0]: must be a list of numbers"),
    ("mu-a-list", ["worst-case"], mode_config(kind="diagonal_group", mu=[1]), 2,
     "system.modes[0].mu: must be a number"),
    ("domain-a-number", ["worst-case"], shift_config(domain=5), 2,
     "system.modes[0].domain: must be a [lo, hi] pair of numbers"),
    ("direction-a-number", ["worst-case"], shift_config(direction=5), 2,
     "system.modes[0].direction: must be 'left' or 'right'"),
    ("factor-a-list", ["worst-case"], shift_config(factor=[2]), 2,
     "system.modes[0].factor: must be a number"),
    # an L^p norm past the double range is a state error, for every p
    ("state-norm-overflows-p3", ["worst-case"], half_line_config(3), 2,
     "state: L^p norm is not finite"),
    ("state-norm-overflows-p2", ["worst-case"], half_line_config(2), 2,
     "state: L^p norm is not finite"),
    ("norm-p-a-list", ["worst-case"],
     pair_config(system={**PAIR, "norm": {"kind": "euclidean", "p": [2]}}), 2,
     "system.norm.p: must be a number"),
]


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    if doc is not MISSING:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "argv, doc, code, prefix", [p[1:] for p in PROBES], ids=[p[0] for p in PROBES]
)
def test_probe(tmp_path, capsys, monkeypatch, argv, doc, code, prefix):
    monkeypatch.delenv("SWLYAP_OUT", raising=False)
    path = write_config(tmp_path, doc)
    out = [] if isinstance(doc, dict) and "out_dir" in doc else ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # it would print before the error
        assert main([*argv, "--config", str(path), *out]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert "Traceback" not in err
    if code == 1:  # a numerical failure prints one line
        assert err.count("\n") == 1 and err.endswith("\n"), err


def test_non_finite_matrix_energy_exits_1_without_hanging(tmp_path):
    # At e^{300 t} the adaptive Simpson integrand overflows; refining it used
    # to recurse 2^36 times instead of failing.
    doc = {"system": {"modes": [{"kind": "matrix", "A": [[300.0, 0.0], [0.0, 1.0]]}]},
           "state": UNIT}
    path = write_config(tmp_path, doc)
    cmd = "import sys; from swlyap.cli import main; raise SystemExit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", cmd, "worst-case", "--config", str(path),
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error in worst_case: ")
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_flags_override_config_fields(tmp_path):
    doc = pair_config(family=None, horizon=4.0)
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    argv = ["worst-case", "--config", str(path), "--dwells", "0.5,1", "--max-switches", "0",
            "--horizon", "2", "--out", str(out)]
    assert main(argv) == 0
    est = json.loads((out / "estimate.json").read_text())
    assert est["horizon"] == 2.0
    assert est["witness"]["segments"] == []


def test_flag_into_malformed_section_reports_the_section(tmp_path, capsys):
    path = write_config(tmp_path, pair_config(family=[1]))
    assert main(["worst-case", "--config", str(path), "--dwells", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("family: ")


def test_unparsable_flag_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["worst-case", "--dwells", "a,b"])
    assert exc.value.code == 2
    assert "--dwells" in capsys.readouterr().err


def test_numeric_strings_are_rejected_only_where_numbers_belong():
    doc = {**BASES["certify"], "system": {**BASES["certify"]["system"],
                                          "norm": {"kind": "lp", "p": "2"}}}
    assert validate_config(doc)[1] == ["system.norm.p: must be a number"]
    # text fields keep their strings; a mode kind that reads as a number is
    # still only an unknown kind
    assert validate_config(BASES["certify"])[1] == []
    doc = {**BASES["simulate"], "system": {"modes": [{"kind": "1"}]}}
    assert validate_config(doc)[1] == ["system.modes[0]: unknown mode kind '1'"]


def test_simulate_grid_bound_sits_at_the_limit():
    base = {**BASES["simulate"], "horizon": 1.0}
    assert validate_config({**base, "dt": 1.0 / 999_998})[1] == []
    assert validate_config({**base, "dt": 1.0 / 1_000_000})[1][0].startswith("dt: ")
    # dt is used by simulate only
    assert validate_config({**BASES["certify"], "dt": 1e-12})[1] == []


def test_certify_cost_bound_sits_at_the_limit():
    # one mode, one signal: n_samples x (horizon/0.25 + 1 + 18) evaluations
    base = {"task": "certify", **scalar_config(-1.0),
            "family": {"dwells": [1.0], "max_switches": 0}, "n_samples": 500}
    assert validate_config({**base, "horizon": 495.25})[1] == []  # 500 x 2,000
    assert validate_config({**base, "horizon": 495.5})[1][0].startswith("horizon: ")
    base["horizon"] = 120.25  # 500 evaluations per sample
    assert validate_config({**base, "n_samples": 2000})[1] == []
    assert validate_config({**base, "n_samples": 2001})[1][0].startswith("n_samples: ")
    # the benchmark's matrix-certify config makes 1 x 10 x 53 = 530
    doc = {"task": "certify", "system": PAIR, "n_samples": 1, "horizon": 4.0,
           "family": {"dwells": [0.5, 1.0], "max_switches": 1}}
    assert validate_config(doc)[1] == []
    # a family too large to enumerate is blamed on the family, not printed
    doc["family"]["max_switches"] = 20_000
    assert validate_config(doc)[1][0].startswith("family: certify")
    # the configs that ran past 10 s are refused before anything runs
    for field in ({"horizon": 1e5}, {"n_samples": 10**5}):
        t0 = time.perf_counter()
        assert validate_config({**doc, "family": SMALL_FAMILY, **field})[1]
        assert time.perf_counter() - t0 < 1.0


def test_certify_horizon_minimum_is_two_grid_points():
    doc = {"task": "certify", **scalar_config(-1.0), "n_samples": 1}
    assert validate_config({**doc, "horizon": 0.5})[1] == []
    assert validate_config({**doc, "horizon": 0.4999})[1][0].startswith("horizon: ")
    # the other tasks take any positive horizon
    assert validate_config({**doc, "task": "worst_case", "horizon": 0.1})[1] == []


def test_params_are_parsed_once():
    cfg, errors = validate_config({"task": "reproduce", "example": "remark-3.2",
                                   "params": {"n": 5.0}})
    assert errors == []
    assert cfg.params == {"n": 5, "p": 2.0}
    assert isinstance(cfg.params["n"], int)


# -- fuzzing ------------------------------------------------------------------------

BASES = {
    "simulate": {
        "task": "simulate",
        "system": {"modes": [{"kind": "matrix", "A": [[-1.0, 0.5], [0.0, -2.0]]},
                             {"kind": "diagonal_group", "mu": 1.0}]},
        "signal": {"segments": [[0, 0.5], [1, 0.25]], "tail": 0},
        "state": {"coords": [1.0, -1.0]},
        "family": {"dwells": [0.5], "max_switches": 1, "modes": [0, 1]},
        "horizon": 2.0,
        "dt": 0.5,
        "seed": 1,
        "n_samples": 2,
    },
    "certify": {
        "task": "certify",
        "system": {"modes": [{"kind": "shift_amplify", "domain": [0.0, 1.0],
                              "direction": "left", "amplify": [0.0, 0.25], "factor": 2.0},
                             {"kind": "half_line_shift"}],
                   "norm": {"kind": "lp", "p": 2.0}},
        "state": {"domain": [0.0, 1.0], "breaks": [0.5], "values": [1.0, 2.0]},
        "family": {"dwells": [0.5], "max_switches": 1, "modes": [1, 0]},
    },
    "reproduce": {"task": "reproduce", "example": "remark-3.2", "params": {"n": 3, "p": 2.0},
                  "out_dir": "out"},
}


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, prefix + (i,))


FIELDS = [(name, path) for name, doc in BASES.items() for path in _paths(doc) if path]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def _replace(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


# Every error starts with the path of a config field ...
FIELD_PATH = re.compile("(%s)[.[:]" % "|".join(f.name for f in dataclasses.fields(RunConfig)))
# ... and none carries Python's own words for a value of the wrong type.
PYTHON_TEXT = ("argument must be", "could not convert", "cannot unpack", "object is not",
               "has no attribute", "not iterable")


@settings(max_examples=600, deadline=None, derandomize=True)
@given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
def test_validate_config_never_raises(field, value):
    name, path = field
    cfg, errors = validate_config(_replace(BASES[name], path, value))
    if cfg is None:
        assert errors and all(isinstance(e, str) and ": " in e for e in errors)
        for error in errors:
            assert FIELD_PATH.match(error), error
            assert not any(text in error for text in PYTHON_TEXT), error
    else:
        assert isinstance(cfg, RunConfig) and errors == []
        assert math.isfinite(cfg.horizon) and cfg.horizon > 0


# One small valid config per CLI command; the fuzzer below replaces one field.
RUNS = {
    "simulate": (["simulate"], pair_config(signal={"segments": [[0, 0.5]], "tail": 1},
                                           horizon=1.0, dt=0.25)),
    "worst-case": (["worst-case"], pair_config(horizon=2.0)),
    "certify": (["certify"], {"system": {"modes": [{"kind": "matrix", "A": [[-1.0]]},
                                                  {"kind": "matrix", "A": [[-2.0]]}]},
                              "family": SMALL_FAMILY, "horizon": 1.0, "n_samples": 1}),
    "gram": (["gram"], pair_config()),
    "reproduce": (["reproduce", "remark-3.2"], {"params": {"n": 2, "p": 2.0}}),
}
RUN_FIELDS = [(name, path) for name, (_, doc) in RUNS.items() for path in _paths(doc) if path]


# Each example starts a fresh interpreter (about 0.3 s, mostly the numpy
# import), so the count is small.  Small numbers keep most configs
# valid, so the task itself runs too.
RUN_VALUES = st.integers(-1, 4) | st.floats(-4.0, 4.0) | JSON_VALUES


@settings(max_examples=8, deadline=None, derandomize=True)
@given(field=st.sampled_from(RUN_FIELDS), value=RUN_VALUES)
def test_cli_exits_cleanly_on_any_one_field(field, value):
    name, path = field
    argv, doc = RUNS[name]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(_replace(doc, path, value)))
        env = {k: v for k, v in os.environ.items() if k != "SWLYAP_OUT"}
        proc = subprocess.run(
            [sys.executable, "-m", "swlyap.cli", *argv, "--config", str(config),
             "--out", str(Path(tmp) / "out")],
            env={**env, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode == 1:  # a numerical failure, reported by `run`
        assert proc.stderr.splitlines()[-1].startswith(f"error in {argv[0].replace('-', '_')}: ")
