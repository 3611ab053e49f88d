import itertools
import json
import math
import time

import jsonschema
import numpy as np
import pytest

from spikelab import spikes, stieltjes
from spikelab.cli import CONFIG_SCHEMAS, OutputSession, main


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


THEORY_CFG = {
    "covariance": {"recipe": "identity", "dim": 200},
    "signal": {"kind": "localized", "strength_sq": 5.25},
    "noise": {"kind": "gaussian"},
    "samples": 400,
}


CVS = {"critical_values": {"cv_ds": 3.0251, "cv_rs": 18.992}}


class TestTheory:
    def test_reference_report(self, tmp_path):
        cfg = write_config(tmp_path, THEORY_CFG)
        out = str(tmp_path / "out")
        assert main(["theory", "--config", cfg, "--out", out]) == 0
        report = json.loads((tmp_path / "out" / "theory_report.json").read_text())
        rep = report["report"]
        assert rep["edge"]["lambda_plus"] == pytest.approx(2.9142136, abs=1e-6)
        assert rep["theta"][0] == pytest.approx(6.8452381, abs=1e-6)
        assert rep["K0"] == 1
        assert report["meta"]["config"]["samples"] == 400

    def test_subcritical_advisory(self, tmp_path):
        cfg = dict(THEORY_CFG, signal={"kind": "localized", "strength_sq": 0.5})
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["theory", "--config", path, "--out", out]) == 0
        rep = json.loads((tmp_path / "out" / "theory_report.json").read_text())
        assert rep["report"]["K0"] == 0
        assert "theta" not in rep["report"]

    def test_toeplitz_report_factors_no_m_by_m_matrix(self, tmp_path, eigh_calls):
        # toeplitz eigendata in closed form, deform by its K x K secular equation
        cfg = write_config(tmp_path, dict(
            THEORY_CFG, covariance={"recipe": "toeplitz", "dim": 200, "rho": 0.1}))
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert all(max(shape) == 1 for shape in eigh_calls)

    def test_one_bulk_solve_per_call(self, tmp_path, monkeypatch):
        # deform solves the noise bulk once; the assumption checks read it
        calls = []
        solve = stieltjes.find_w_plus

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        for module in (stieltjes, spikes):
            monkeypatch.setattr(module, "find_w_plus", counting)
        cfg = write_config(tmp_path, THEORY_CFG)
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_wall_time_ignores_the_system_clock(self, tmp_path, monkeypatch):
        # a system clock stepped backwards during the run
        ticks = itertools.count(step=-60.0)
        monkeypatch.setattr(time, "time", lambda: 1.8e9 + next(ticks))
        cfg = write_config(tmp_path, THEORY_CFG)
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        meta = json.loads((tmp_path / "out" / "theory_report.json").read_text())["meta"]
        assert meta["wall_time_s"] >= 0

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"covariance": [,}')
        assert main(["theory", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = dict(THEORY_CFG, extra_field=1)
        path = write_config(tmp_path, cfg)
        assert main(["theory", "--config", path, "--out", str(tmp_path / "o")]) == 1


class TestCalibrateAndTest:
    def test_calibrate_flags(self, tmp_path):
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            code = main(["calibrate", "--kstar", "4", "--nstar", "100",
                         "--reps", "400", "--seed", "3", "--threads", threads,
                         "--out", str(out)])
            assert code == 0
            payload = json.loads((out / "critical_values.json").read_text())
            runs[threads] = payload["critical_values"]
        cvs = runs["1"]
        assert cvs["cv_ds"] > 0 and cvs["cv_rs"] > cvs["cv_ds"]
        assert runs["2"] == cvs  # the worker count never moves the values

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["calibrate", "--kstar", "2", "--nstar", "10", "--reps", "100",
                     "--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config field master_seed:")
        assert err.count("\n") == 1 and not out.exists()

    def test_negative_calibration_block_seed_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "k_star": 2,
            "generate": {"covariance": {"recipe": "identity", "dim": 10},
                         "samples": 40},
            "calibration": {"k_star": 2, "n_star": 10, "reps": 100,
                            "master_seed": -1},
        })
        out = tmp_path / "out"
        assert main(["test", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "master_seed" in err
        assert err.count("\n") == 1 and not out.exists()

    def test_nstar_below_2kstar_minus_1_is_config_error(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setattr("spikelab.hetero.stream", None)  # no draw may run
        out = tmp_path / "out"
        assert main(["calibrate", "--kstar", "6", "--nstar", "10", "--reps", "100",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "n_star=10" in err and not out.exists()

    def test_detection_on_generated_alternative(self, tmp_path):
        cfg = write_config(tmp_path, {
            "k_star": 4,
            "critical_values": {"cv_ds": 3.0251, "cv_rs": 18.992},
            "generate": {
                "covariance": {"recipe": "identity", "dim": 100},
                "samples": 200,
                "clusters": 2,
            },
        })
        out = str(tmp_path / "out")
        assert main(["test", "--config", cfg, "--seed", "5", "--out", out]) == 0
        decision = json.loads((tmp_path / "out" / "detection.json").read_text())
        assert decision["decision"]["reject_ds"] is True

    def test_detection_on_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((60, 120))
        csv = tmp_path / "data.csv"
        np.savetxt(csv, data, delimiter=",")
        cfg = write_config(tmp_path, {
            "k_star": 4,
            "critical_values": {"cv_ds": 3.0251, "cv_rs": 18.992},
            "data_csv": str(csv),
        })
        out = str(tmp_path / "out")
        assert main(["test", "--config", cfg, "--out", out]) == 0
        decision = json.loads((tmp_path / "out" / "detection.json").read_text())
        assert decision["decision"]["reject_ds"] is False


    @pytest.mark.parametrize("source, cvs", [
        (None, CVS),                                   # missing file
        ("", CVS),                                     # empty file
        ("1,2,3\n4,5\n", CVS),                         # ragged rows
        ("\n".join(",".join(["nan"] + ["1"] * 19) for _ in range(10)) + "\n", CVS),
        ("\n".join(",".join(["inf"] + ["1"] * 19) for _ in range(10)) + "\n", CVS),
        (",".join(str(i) for i in range(8)) + "\n", CVS),  # 1x8: too few for 2K*-1
        ({"covariance": {"recipe": "identity", "dim": 5}, "samples": 50}, CVS),
        (None, {"calibration": {"k_star": 4, "n_star": 100, "reps": 30000}}),
    ], ids=["missing", "empty", "ragged", "nan", "inf", "one-row", "generate-5x50",
            "missing-uncalibrated"])
    def test_bad_test_data_is_config_error(self, tmp_path, capsys, monkeypatch,
                                           source, cvs):
        # bad data is reported before any calibration runs
        monkeypatch.setattr("spikelab.cli.calibrate", None)
        cfg = {"k_star": 4, **cvs}
        if isinstance(source, dict):
            cfg["generate"] = source
        else:
            cfg["data_csv"] = str(tmp_path / "data.csv")
            if source is not None:
                (tmp_path / "data.csv").write_text(source)
        path = write_config(tmp_path, cfg)
        assert main(["test", "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


class TestSimulate:
    def test_csv_roundtrip_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, {
            "covariance": {"recipe": "identity", "dim": 60},
            "signal": {"kind": "localized", "strength_sq": 5.25},
            "samples": 120,
            "reps": 12,
            "couple_theta": True,
        })
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", cfg, "--seed", "21",
                     "--out", out_a, "--threads", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--seed", "21",
                     "--out", out_b, "--threads", "4"]) == 0
        bytes_a = (tmp_path / "a" / "spike_samples.csv").read_bytes()
        bytes_b = (tmp_path / "b" / "spike_samples.csv").read_bytes()
        assert bytes_a == bytes_b
        header = bytes_a.decode().splitlines()[0].split(",")
        assert header[0] == "rep" and "lambda_1" in header
        assert any(c.startswith("theta_comp") for c in header)

    @pytest.mark.parametrize("signal, n_top", [
        ({"kind": "localized", "strength_sq": 5.25}, 21),  # above min(M, N)
        ({"kind": "random-svd", "strengths": [3.0, 2.5], "seed": 1}, 1),  # below K0=2
    ], ids=["above-min-dim", "below-K0"])
    def test_n_top_out_of_range_is_config_error(self, tmp_path, capsys,
                                                monkeypatch, signal, n_top):
        monkeypatch.setattr("spikelab.ensemble.stream", None)  # no draw may run
        cfg = write_config(tmp_path, {
            "covariance": {"recipe": "identity", "dim": 20},
            "signal": signal, "samples": 40, "reps": 3, "n_top": n_top,
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"n_top={n_top} is outside" in err and not out.exists()


class TestReproduce:
    def test_tiny_size_table(self, tmp_path):
        cfg = write_config(tmp_path, {
            "target": "table1",
            "calibration": {"k_star": 4, "n_star": 100, "reps": 300,
                            "master_seed": 1},
        })
        out = str(tmp_path / "out")
        assert main(["reproduce", "--config", cfg, "--scale", "0.002",
                     "--seed", "2", "--out", out]) == 0
        lines = (tmp_path / "out" / "table1.csv").read_text().splitlines()
        assert len(lines) == 1 + 6
        meta = json.loads((tmp_path / "out" / "table1.meta.json").read_text())
        assert meta["reps"] == 20

    def test_figure2_smoke(self, tmp_path):
        cfg = write_config(tmp_path, {"target": "figure2"})
        out = str(tmp_path / "out")
        assert main(["reproduce", "--config", cfg, "--scale", "0.004",
                     "--seed", "3", "--out", out]) == 0
        text = (tmp_path / "out" / "figure2_hist.csv").read_text()
        assert text.startswith("dim,hypothesis,statistic")


    def test_figure1_keeps_reproduce_config(self, tmp_path):
        cfg = write_config(tmp_path, {"target": "figure1", "precision": 4})
        out = tmp_path / "out"
        assert main(["reproduce", "--config", cfg, "--scale", "0.002",
                     "--seed", "3", "--out", str(out)]) == 0
        lines = (out / "nonuniversality_hist.csv").read_text().splitlines()[1:]
        edges = [float(x) for line in lines for x in line.split(",")[2:4]]
        assert edges and all(x == float(format(x, ".4g")) for x in edges)
        meta = json.loads((out / "nonuniversality_ks.json").read_text())["meta"]
        assert meta["config"] == {"target": "figure1", "precision": 4,
                                  "scale": 0.002, "master_seed": 3}


@pytest.mark.parametrize("argv", [
    ["theory", "--reps", "5"],
    ["verify", "--reps", "5"],
    ["reproduce", "--reps", "5"],
])
def test_flag_a_subcommand_ignores_is_usage_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "unrecognized arguments: --reps 5" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, key", [
    ("theory", "master_seed"),
    ("theory", "threads"),
    ("test", "precision"),
    ("verify", "precision"),
])
def test_config_key_a_subcommand_ignores_is_config_error(tmp_path, capsys, command, key):
    cfg = {"theory": THEORY_CFG, "test": {"k_star": 3, **CVS}, "verify": {}}[command]
    path = write_config(tmp_path, {**cfg, key: 3})
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"'{key}' was unexpected" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config_text, argv, field", [
    (json.dumps(dict(THEORY_CFG, signal={"kind": "localized", "strength_sq": math.nan})),
     ["theory"], "signal/strength_sq"),
    (json.dumps(dict(THEORY_CFG, tau=math.inf)), ["theory"], "tau"),
    ('{"target": "figure2", "scale": 1e400}', ["reproduce"], "scale"),
    (None, ["reproduce", "--figure", "2", "--scale", "inf"], "scale"),
    (None, ["calibrate", "--kstar", "2", "--nstar", "10", "--reps", "100",
            "--quantile", "nan"], "quantile"),
], ids=["nan-literal", "infinity-literal", "1e400", "scale-inf", "quantile-nan"])
def test_non_finite_number_is_config_error(tmp_path, capsys, config_text, argv, field):
    if config_text is not None:
        (tmp_path / "cfg.json").write_text(config_text)
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"config field {field}: not a finite number" in err and not out.exists()


@pytest.mark.parametrize("covariance, signal, message", [
    ({"recipe": "dense", "dim": 3, "matrix": [[1, 0, 0], [0, 1], [0, 0, 1]]},
     {"kind": "localized", "strength_sq": 5.0}, "dense covariance matrix"),
    ({"recipe": "dense", "dim": 2, "matrix": [[1, None], [None, 1]]},
     {"kind": "localized", "strength_sq": 5.0}, "dense covariance matrix"),
    ({"recipe": "identity", "dim": 3},
     {"kind": "mixture-explicit", "centers": [[1, -1], [0, 0], [0]]},
     "mixture-explicit centers is not"),
    ({"recipe": "identity", "dim": 3},
     {"kind": "mixture-explicit", "centers": [[1, -1], [0, 0]]}, "expected 3 rows"),
    ({"recipe": "identity", "dim": 3},
     {"kind": "localized", "strength_sq": 5.0, "row": 3}, "(3, 0) is outside"),
    ({"recipe": "identity", "dim": 3},
     {"kind": "localized", "strength_sq": 5.0, "col": 6}, "(0, 6) is outside"),
], ids=["ragged-matrix", "null-in-matrix", "ragged-centers", "centers-rows",
        "localized-row", "localized-col"])
def test_misshapen_config_array_is_config_error(tmp_path, capsys, covariance, signal,
                                                message):
    path = write_config(tmp_path, {"covariance": covariance, "signal": signal,
                                   "samples": 6})
    out = tmp_path / "out"
    assert main(["theory", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert message in err and not out.exists()


def test_output_session_removes_partial_files(tmp_path):
    with pytest.raises(RuntimeError):
        with OutputSession(str(tmp_path)) as session:
            session.write_json("partial.json", {})
            raise RuntimeError("failure after a write")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(CONFIG_SCHEMAS))
def test_config_schema_is_valid(command):
    schema = CONFIG_SCHEMAS[command]
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("cfg", [
    dict(THEORY_CFG, extra_field=1),
    dict(THEORY_CFG, samples="400"),
    dict(THEORY_CFG, covariance={"recipe": "toeplitz", "dim": 3}),
    {k: v for k, v in THEORY_CFG.items() if k != "samples"},
], ids=["unknown-key", "wrong-type", "no-recipe-matches", "missing-required"])
def test_schema_error_is_the_one_validate_reports(tmp_path, capsys, cfg):
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.validate(cfg, CONFIG_SCHEMAS["theory"])
    loc = "/".join(map(str, exc.value.absolute_path)) or "<root>"
    path = write_config(tmp_path, cfg)
    assert main(["theory", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"config error: config field {loc}: {exc.value.message}\n")


class TestVerifyCli:
    def test_report_consistent_with_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["verify", "--n", "100", "--seeds", "6", "--seed", "4",
                     "--out", out])
        payload = json.loads((tmp_path / "out" / "verification.json").read_text())
        assert code == (0 if payload["all_passed"] else 3)
        # the algebraic identities are deterministic and must always pass
        for name in ("null_vector", "quad_identity", "master_singularity",
                     "block_consistency"):
            assert payload["checks"][name]["passed"] is True
