import csv
import json
import math
import random

import numpy as np
import pytest

from swlyap import lyapunov
from swlyap.cli import main, run, validate_config


def read(path):
    with open(path) as fh:
        return fh.read()


MINIMAL_SIMULATE = {
    "task": "simulate",
    "system": {"modes": [{"kind": "matrix", "A": [[-1.0]]}]},
    "signal": {"segments": [], "tail": 0},
    "state": {"coords": [1.0]},
}


class TestValidateConfig:
    def test_empty_document(self):
        cfg, errors = validate_config({})
        assert cfg is None
        assert "task: required" in errors
        assert "system: required" in errors

    def test_empty_text(self):
        cfg, errors = validate_config("")
        assert cfg is None and "task: required" in errors

    def test_negative_dwell_names_segment(self):
        raw = dict(MINIMAL_SIMULATE)
        raw["signal"] = {"segments": [[0, 0.5], [0, -1.0]], "tail": 0}
        cfg, errors = validate_config(raw)
        assert cfg is None
        assert any("signal.segments[1].dwell" in e for e in errors)

    def test_unknown_task(self):
        cfg, errors = validate_config({"task": "fly"})
        assert any(e.startswith("task: must be one of") for e in errors)

    def test_minimal_valid_fills_defaults(self):
        cfg, errors = validate_config(dict(MINIMAL_SIMULATE))
        assert errors == []
        assert cfg.horizon == 10.0
        assert cfg.dt == 0.01
        assert cfg.seed == 0
        assert cfg.family is not None

    def test_collects_multiple_errors(self):
        raw = {
            "task": "simulate",
            "system": {"modes": [{"kind": "matrix", "A": [[1.0, 2.0]]}]},
            "signal": {"segments": [[0, -1.0]], "tail": 0},
            "horizon": -5,
        }
        cfg, errors = validate_config(raw)
        assert cfg is None
        assert len(errors) >= 3

    def test_bad_json_text(self):
        cfg, errors = validate_config("{not json")
        assert cfg is None and errors[0].startswith("config: invalid JSON")


class TestSimulate:
    def test_scalar_decay_csv(self, tmp_path):
        raw = dict(MINIMAL_SIMULATE)
        raw["horizon"] = 5.0
        raw["out_dir"] = str(tmp_path)
        cfg, errors = validate_config(raw)
        assert errors == []
        assert run(cfg) == 0
        rows = list(csv.DictReader(open(tmp_path / "trajectory.csv")))
        assert rows[0]["mode_active"] == "0"
        for row in rows:
            t, n = float(row["t"]), float(row["norm"])
            assert abs(n - math.exp(-t)) <= 1e-10
        summary = json.loads(read(tmp_path / "summary.json"))
        assert summary["final_norm"] == pytest.approx(math.exp(-5.0), rel=1e-9)

    def test_grid_is_numpys_arange(self, tmp_path):
        # the k * dt grid, element for element, on dyadic and decimal steps and
        # on horizons at, between and half a step past grid points
        raw = {"task": "simulate", "system": {"modes": [{"kind": "diagonal_group", "mu": 1.0}],
                                              "norm": {"kind": "lp", "p": 2.0}},
               "signal": {"segments": [], "tail": 0},
               "state": {"domain": [0.0, 1.0], "breaks": [], "values": [1.0]},
               "out_dir": str(tmp_path)}
        rng = random.Random(26)
        for dt in (0.01, 0.1, 1 / 3, 0.25, 2.0**-7, 0.00390625):
            for _ in range(50):
                k = rng.randint(1, 1000)
                horizon = rng.choice([k * dt, (k + 0.5) * dt, round(k * dt, 2) or dt, k / 64,
                                      rng.uniform(dt, 1000 * dt)])
                cfg, errors = validate_config({**raw, "horizon": horizon, "dt": dt})
                assert errors == [] and run(cfg) == 0
                with open(tmp_path / "trajectory.csv") as fh:
                    ts = [float(row[0]) for row in list(csv.reader(fh))[1:]]
                assert ts == [float(t) for t in np.arange(0.0, horizon + 0.5 * dt, dt)], (horizon, dt)


class TestWorstCase:
    def test_scalar_pair_estimate(self, tmp_path):
        raw = {
            "task": "worst_case",
            "system": {
                "modes": [
                    {"kind": "matrix", "A": [[-1.0]]},
                    {"kind": "matrix", "A": [[-2.0]]},
                ]
            },
            "state": {"coords": [1.0]},
            "out_dir": str(tmp_path),
        }
        cfg, errors = validate_config(raw)
        assert errors == []
        assert run(cfg) == 0
        doc = json.loads(read(tmp_path / "estimate.json"))
        assert doc["value"] == pytest.approx(0.5, abs=1e-3)
        assert doc["witness"] == {"segments": [], "tail": 0}
        assert doc["bound_direction"] == "lower"


class TestReproduce:
    def test_blowup_staircase(self, tmp_path):
        assert main(["reproduce", "example-2.1", "--delta", "0.5", "--out", str(tmp_path)]) == 0
        text = read(tmp_path / "summary.txt")
        for val in ("2", "4", "8", "16"):
            assert f"lower_bound={val}" in text
        doc = json.loads(read(tmp_path / "summary.json"))
        stairs = {s["t"]: s for s in doc["staircase"]}
        for k, t in enumerate((0.5, 1.0, 1.5, 2.0), start=1):
            assert stairs[t]["lower_bound"] == 2.0**k
            assert abs(stairs[t]["witness_ratio"] - 2.0**k) <= 1e-12

    def test_cascade_summary(self, tmp_path):
        assert main(["reproduce", "remark-3.2", "--n", "4", "--out", str(tmp_path)]) == 0
        doc = json.loads(read(tmp_path / "summary.json"))
        assert doc["energy_bound"] == 1.5
        assert doc["max_sampled_energy_ratio"] <= 1.5 + 1e-9
        assert doc["witness_norm_ratio"] == pytest.approx(4.0, abs=1e-12)
        assert "1.5" in read(tmp_path / "summary.txt")

    def test_half_line(self, tmp_path):
        assert main(["reproduce", "half-line-shift", "--out", str(tmp_path)]) == 0
        doc = json.loads(read(tmp_path / "summary.json"))
        assert all(r["ratio"] == 1.0 for r in doc["unit_norm_ratios"])
        rows = list(csv.DictReader(open(tmp_path / "trajectory.csv")))
        final = [float(r["norm"]) for r in rows if float(r["t"]) >= 2.0]
        assert all(n == 0.0 for n in final)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert (
                main(["reproduce", "remark-3.2", "--seed", "7", "--out", str(out)]) == 0
            )
        assert read(out1 / "summary.json") == read(out2 / "summary.json")

    def test_certify_deterministic(self, tmp_path):
        raw = {
            "task": "certify",
            "system": {
                "modes": [
                    {"kind": "matrix", "A": [[-1.0, 0.0], [0.0, -2.0]]},
                    {"kind": "matrix", "A": [[-2.0, 0.0], [0.0, -1.0]]},
                ]
            },
            "seed": 3,
            "n_samples": 3,
            "horizon": 6.0,
            "family": {"dwells": [0.5, 1.0], "max_switches": 1},
        }
        docs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg, errors = validate_config({**raw, "out_dir": str(out)})
            assert errors == []
            assert run(cfg) == 0
            docs.append(read(out / "certificates.json"))
        assert docs[0] == docs[1]
        parsed = json.loads(docs[0])
        assert parsed["decay"]["mu"] == pytest.approx(1.0, rel=0.05)
        assert parsed["condition_report"]["supports"] == {"A": True, "B": True, "C": True}
        assert {"gronwall", "gronwall_conservative", "datko"} <= parsed.keys()
        assert parsed["datko"]["C_int"] == parsed["condition_report"]["C_hat"]


class TestCertifyEnvelopes:
    def test_no_decay_envelope_the_report_does_not_support(self, tmp_path):
        # norms grow like e^{0.1 t} in mode 0; both comparability checks pass, but
        # the derivative check fails, so neither converse route is supported
        raw = {
            "system": {"modes": [{"kind": "matrix", "A": [[0.1, 0.0], [0.0, 0.1]]},
                                 {"kind": "matrix", "A": [[-1.0, 0.0], [0.0, -1.0]]}]},
            "family": {"dwells": [0.5], "max_switches": 1},
            "n_samples": 1,
            "horizon": 1.0,
            "seed": 0,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["certify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        doc = json.loads(read(tmp_path / "out" / "certificates.json"))
        assert doc["decay"]["refused"] is True
        assert doc["decay"]["reason"] == ("sampled sup norm is nondecreasing over the last "
                                          "decade of the grid")
        assert doc["decay"]["signal"] == {"segments": [], "tail": 0}
        assert doc["notes"] == ["decay fit refused; system is not uniformly decaying on samples"]
        report = doc["condition_report"]
        assert report["upper_ok"] and report["lower_ok"] and not report["derivative_ok"]
        assert report["supports"] == {"A": False, "B": False, "C": False}
        assert not {"gronwall", "gronwall_conservative", "datko"} & doc.keys()


class TestCertifyCost:
    def test_certify_integrates_each_energy_once(self, tmp_path, monkeypatch):
        # V(x) once per sample and once per mode and derivative step, each a
        # sweep of the family's distinct trajectories; the sample's own V(x)
        # serves every mode.
        raw = {
            "system": {"modes": [{"kind": "matrix", "A": [[-1.0]]},
                                 {"kind": "matrix", "A": [[-2.0]]}]},
            "n_samples": 2,
            "horizon": 1.0,
            "family": {"dwells": [0.5], "max_switches": 1},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        real, calls = lyapunov.trajectory_cost, []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(lyapunov, "trajectory_cost", counting)
        assert main(["certify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        # of the 2 + 2 * 2 * 1 family signals, 0.5 in mode 0 then the tail in
        # mode 0 repeats the constant signal 0, and likewise for mode 1
        n_samples, n_modes, distinct = 2, 2, 2 + 2 * 2 * 1 - 2
        steps = len(lyapunov.DERIVATIVE_STEPS)
        assert steps == 17
        assert len(calls) == n_samples * (1 + steps * n_modes) * distinct


class TestGramTask:
    def test_gram_artifact_roundtrips(self, tmp_path):
        raw = {
            "task": "gram",
            "system": {
                "modes": [
                    {"kind": "matrix", "A": [[-1.0, 0.0], [0.0, -2.0]]},
                    {"kind": "matrix", "A": [[-2.0, 0.0], [0.0, -1.0]]},
                ]
            },
            "family": {"dwells": [0.5], "max_switches": 1},
            "state": {"coords": [1.0, 1.0]},
            "out_dir": str(tmp_path),
        }
        cfg, errors = validate_config(raw)
        assert errors == []
        assert run(cfg) == 0
        doc = json.loads(read(tmp_path / "gram.json"))
        assert doc["dim"] == 2
        assert len(doc["candidates"]) == 2 + 4
        # emitted candidate signals re-validate under the signal schema
        from swlyap import SwitchingSignal

        for cand in doc["candidates"]:
            sig = SwitchingSignal.from_json(cand["source_signal"])
            assert sig.to_json() == cand["source_signal"]
        assert doc["v_max"] > 0
        # richer families can only raise the lower envelope
        assert doc["v_max"] >= doc["v_max_constant_signals_only"] - 1e-12

    def test_cli_validation_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"system": {"modes": []}}))
        code = main(["worst-case", "--config", str(cfg_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "state: required" in err


def test_mixed_matrix_dimensions_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "mixed.json"
    cfg_path.write_text(
        json.dumps(
            {
                "system": {
                    "modes": [
                        {"kind": "matrix", "A": [[-1.0, 0.0], [0.0, -2.0]]},
                        {"kind": "matrix", "A": [[-1.0]]},
                    ]
                },
                "state": {"coords": [1.0, 1.0]},
            }
        )
    )
    code = main(["worst-case", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("system: matrix modes have different dimensions")


def test_artifacts_land_in_out_whatever_the_environment_says(tmp_path, monkeypatch):
    # --out, then the config's out_dir, then "."; no SWLYAP_* variable moves them
    for name in ("OUT", "OUT_DIR"):
        monkeypatch.setenv(f"SWLYAP_{name}", str(tmp_path / "env"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": str(tmp_path / "config")}))
    argv = ["reproduce", "half-line-shift", "--config", str(config)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert main(argv) == 0
    assert (tmp_path / "out" / "summary.json").exists()
    assert (tmp_path / "config" / "summary.json").exists()
    assert not (tmp_path / "env").exists()


class TestUnconvergedMatrixEnergy:
    # every signal from this state has energy at most 0.5; an adaptive Simpson that
    # accepted what was still open after 36 levels wrote 1.135396859348709 at a horizon
    # of 1e12 and 1.13e88 at 1e100
    CONFIG = {
        "task": "worst_case",
        "system": {"modes": [{"kind": "matrix", "A": [[-1.0, 0.0], [0.0, -2.0]]},
                             {"kind": "matrix", "A": [[-2.0, 0.0], [0.0, -1.0]]}]},
        "state": {"coords": [1.0, 0.0]},
        "family": {"dwells": [0.5], "max_switches": 0},
    }

    def run(self, tmp_path, horizon):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.CONFIG))
        return main(["worst-case", "--config", str(path), "--horizon", horizon,
                     "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("horizon", ["1e12", "1e100"])
    def test_exits_1_with_one_line(self, tmp_path, capsys, horizon):
        assert self.run(tmp_path, horizon) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith("error in worst_case: matrix energy did not converge in 36 levels")
        assert "Traceback" not in err

    def test_converged_horizon_is_unchanged(self, tmp_path):
        assert self.run(tmp_path, "1e6") == 0
        assert json.loads(read(tmp_path / "out" / "estimate.json")) == {
            "bound_direction": "lower", "horizon": 1e6, "kind": "V", "seed": 0,
            "task": "worst_case", "value": 0.500000000009543,
            "witness": {"segments": [], "tail": 0},
        }
