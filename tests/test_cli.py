import argparse
import ast
import copy
import functools
import itertools
import json
import math
import operator
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab import cli, spikes, stieltjes
from spikelab.cli import CONFIG_SCHEMAS, OutputSession, main
from spikelab.spectra import CovarianceModel


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

README_THEORY_CFG = {
    "covariance": {"recipe": "toeplitz", "dim": 200, "rho": 0.1},
    "signal": {"kind": "localized", "strength_sq": 5.25},
    "noise": {"kind": "three-point"},
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

    def test_toeplitz_report_forms_no_dense_function(self, tmp_path, monkeypatch):
        # Sigma^(1/2) psi goes through Sigma's spectral form, never a dense M x M
        calls = []
        dense = CovarianceModel.function

        def counting(self, fn):
            calls.append(fn)
            return dense(self, fn)

        monkeypatch.setattr(CovarianceModel, "function", counting)
        cfg = write_config(tmp_path, {
            "covariance": {"recipe": "toeplitz", "dim": 800, "rho": 0.2},
            "signal": {"kind": "random-svd", "strengths": [3.0, 2.5, 2.0], "seed": 7},
            "samples": 1600})
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert calls == []

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
            assert payload["meta"]["stream_version"] == 2
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

    def test_calibration_block_k_star_mismatch_is_config_error(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setattr("spikelab.ensemble.stream", None)  # no draw may run
        monkeypatch.setattr("spikelab.cli.stream", None)
        cfg = write_config(tmp_path, {
            "k_star": 2,
            "generate": {"covariance": {"recipe": "identity", "dim": 10},
                         "samples": 40, "clusters": 2},
            "calibration": {"k_star": 4, "n_star": 50, "reps": 100},
        })
        out = tmp_path / "out"
        assert main(["test", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "k_star=2" in err and "k_star=4" in err and not out.exists()

    def test_both_cutoff_blocks_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("spikelab.cli.calibrate", None)  # no calibration may run
        csv = tmp_path / "data.csv"
        np.savetxt(csv, np.eye(10), delimiter=",")
        cfg = write_config(tmp_path, {
            "k_star": 2, "data_csv": str(csv), **CVS,
            "calibration": {"k_star": 2, "n_star": 50, "reps": 100, "quantile": 0.9},
        })
        out = tmp_path / "out"
        assert main(["test", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: give critical_values or calibration, not both\n"
        assert not out.exists()

    def test_nstar_below_2kstar_minus_1_is_config_error(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setattr("spikelab.ensemble.stream", None)  # no draw may run
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


@pytest.mark.filterwarnings("error")
def test_huge_discrete_atoms_standardize_like_small_ones(tmp_path, capsys):
    # +-1e200 and +-3 with equal weights both standardize to the Rademacher law
    reports, csvs = [], []
    for a in (1e200, 3.0):
        cfg = dict(README_THEORY_CFG, covariance={"recipe": "identity", "dim": 30},
                   samples=60, noise={"kind": "discrete", "atoms": [-a, a],
                                      "probs": [0.5, 0.5]})
        out = tmp_path / f"out{a}"
        assert main(["theory", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        reports.append(json.loads((out / "theory_report.json").read_text())["report"])
        cfg = write_config(tmp_path, dict(cfg, reps=5))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        csvs.append((out / "spike_samples.csv").read_bytes())
    assert reports[0]["noise"] == {"kind": "discrete", "kappa3": 0.0, "kappa4": -2.0}
    assert reports[0]["gauss_cov"] == reports[1]["gauss_cov"]
    assert csvs[0] == csvs[1]
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("n_a, n_b", [(300, 300), (250, 520), (1, 9)])
def test_ks_distance_is_the_exact_two_sample_statistic(n_a, n_b):
    from scipy.stats import ks_2samp   # the oracle only
    rng = np.random.default_rng(n_a * n_b)
    gridded = (rng.integers(0, 9, n_a) / 4.0, rng.integers(1, 10, n_b) / 4.0)  # ties
    smooth = (rng.standard_normal(n_a), rng.standard_normal(n_b) + 0.2)
    for a, b in (gridded, smooth):
        assert cli._ks_distance(a, b) == ks_2samp(a, b).statistic


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this spikelab."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)


def test_cli_runs_without_jsonschema(tmp_path):
    cfg = write_config(tmp_path, THEORY_CFG)
    proc = run_python(
        "import sys\n"
        "from spikelab import cli\n"
        "imported = 'jsonschema' in sys.modules\n"
        f"rc = cli.main(['theory', '--config', {cfg!r}, '--out', {str(tmp_path)!r}])\n"
        "print(imported, rc, 'jsonschema' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0 False"


def test_nonuniversality_imports_no_scipy(tmp_path):
    proc = run_python(
        "import sys\n"
        "from spikelab import cli\n"
        f"rc = cli.main(['nonuniversality', '--reps', '20', '--out', {str(tmp_path)!r}])\n"
        "print(rc, 'scipy' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("module, absent", [
    ("spikelab", "spikelab."),                    # the root loads no submodule
    ("spikelab.spectra", "spikelab.stieltjes"),   # the lowest layer stands alone
])
def test_import_loads_no_higher_layer(module, absent):
    proc = run_python(f"import sys, {module}\n"
                      "print(*sorted(m for m in sys.modules if m.startswith('spikelab')))\n")
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert not any(m.startswith(absent) for m in loaded), loaded


def test_no_private_cross_module_import():
    # a name with a leading underscore belongs to its own module
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [a.name for a in node.names
                           if a.name.startswith("_") and not a.name.endswith("__")]
                assert not private, f"{path.name} imports {private} from .{node.module}"


@pytest.mark.parametrize("command, cfg", [
    # the toeplitz basis alone is 298 GiB
    ("theory", dict(THEORY_CFG, covariance={"recipe": "toeplitz", "dim": 200000,
                                            "rho": 0.1})),
    # the M x N shift alone is 149 GiB
    ("simulate", dict(THEORY_CFG, covariance={"recipe": "identity", "dim": 100000},
                      samples=200000, reps=2)),
], ids=["theory-toeplitz", "simulate-identity"])
def test_out_of_memory_is_one_line(tmp_path, command, cfg):
    # the address-space limit is set in the child only
    proc = run_python(
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
        "from spikelab.cli import main\n"
        f"sys.exit(main([{command!r}, '--config', {write_config(tmp_path, cfg)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]))\n")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("out of memory: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not list(tmp_path.glob("out/*"))


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


@pytest.mark.parametrize("cfg, code, message", [
    (dict(THEORY_CFG, noise={"kind": "discrete", "atoms": [-1, 0, 1], "probs": [0.5, 0.5]}),
     1, "config error: discrete law needs one probability per atom"),
    (dict(THEORY_CFG, covariance={"recipe": "identity", "dim": 3},
          signal={"kind": "random-svd", "strengths": [3, 2, 1.5, 1.2], "seed": 7}),
     1, "config error: random-svd has 4 strengths"),
    (dict(THEORY_CFG, signal={"kind": "mixture", "clusters": 3, "seed": 1}, samples=2),
     1, "config error: 2 samples cannot fill 3 clusters"),
    (dict(THEORY_CFG, signal={"kind": "random-svd", "strengths": [3], "seed": -1}),
     1, "config error: config field signal/seed: -1 is less than the minimum of 0\n"),
    (dict(THEORY_CFG, covariance={"recipe": "haar", "dim": 20, "bounds": [1, 2], "seed": -1}),
     1, "config error: config field covariance/seed: -1 is less than the minimum of 0\n"),
    (dict(THEORY_CFG, covariance={"recipe": "identity", "dim": 3},
          signal={"kind": "mixture-explicit", "centers": [[1, -1], [0, 0], [0, 0]],
                  "assignment": "random"}),
     1, "config error: unknown assignment rule 'random'"),
    (dict(THEORY_CFG, signal={"kind": "localized", "strength_sq": 1e300}),
     2, "numerical failure: spike 1e+300 is too strong"),
    (dict(THEORY_CFG, signal={"kind": "localized", "strength_sq": 1e308}),
     2, "numerical failure: eigenvalue scale 1e+308 is too large to bisect in float64\n"),
    (dict(THEORY_CFG, signal={"kind": "random-svd", "strengths": [1e200], "seed": 1}),
     2, "numerical failure: eigenvalue scale inf is too large to bisect in float64\n"),
], ids=["discrete-lengths", "strengths-above-dim", "samples-below-clusters",
        "negative-signal-seed", "negative-haar-seed", "unknown-assignment",
        "overflowing-strength", "unbisectable-strength", "overflowing-svd-strength"])
@pytest.mark.filterwarnings("error")   # a numpy warning would be a second line
def test_bad_theory_config_exits_with_one_line(tmp_path, capsys, cfg, code, message):
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["theory", "--config", path, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1 and not out.exists()


def test_parser_is_built_once(tmp_path, monkeypatch):
    cli.build_parser.cache_clear()
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cfg = write_config(tmp_path, THEORY_CFG)
    for _ in range(2):
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert built.count("spikelab") == 1


def test_output_session_removes_partial_files(tmp_path):
    with pytest.raises(RuntimeError):
        with OutputSession(str(tmp_path), {}) as session:
            session.write_json("partial.json", {})
            raise RuntimeError("failure after a write")
    assert list(tmp_path.iterdir()) == []


def test_output_session_formats_floats_at_its_precision(tmp_path):
    session = OutputSession(str(tmp_path), {"precision": 4})
    path = session.write_csv("t.csv", ("a", "b", "c", "d"),
                             [(1 / 3, np.float64(2 / 3), 12345678, "x")])
    assert Path(path).read_text() == "a,b,c,d\n0.3333,0.6667,12345678,x\n"


def test_every_flag_is_a_config_key():
    # load_config copies a flag's value to the config key named by its dest
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        dests = {action.dest for action in parser._actions} - {"help", "config", "out"}
        assert dests <= set(CONFIG_SCHEMAS[command]["properties"]), command


@pytest.mark.parametrize("command", sorted(CONFIG_SCHEMAS))
def test_config_schema_is_valid(command):
    schema = CONFIG_SCHEMAS[command]
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("cfg", [
    dict(THEORY_CFG, extra_field=1),
    dict(THEORY_CFG, samples="400"),
    dict(THEORY_CFG, covariance={"recipe": "toeplitz", "dim": 3}),
    {k: v for k, v in THEORY_CFG.items() if k != "samples"},
    dict(THEORY_CFG, zeta=1, alpha=2),
], ids=["unknown-key", "wrong-type", "no-recipe-matches", "missing-required",
        "two-unknown-keys"])
def test_schema_error_is_the_one_validate_reports(tmp_path, capsys, cfg):
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.validate(cfg, CONFIG_SCHEMAS["theory"])
    loc = "/".join(map(str, exc.value.absolute_path)) or "<root>"
    path = write_config(tmp_path, cfg)
    assert main(["theory", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"config error: config field {loc}: {exc.value.message}\n")


SIMULATE_CFG = {"covariance": {"recipe": "identity", "dim": 20},
                "signal": {"kind": "localized", "strength_sq": 5.25},
                "samples": 40, "reps": 3}


@pytest.mark.parametrize("command, cfg, as_float, output", [
    ("simulate", SIMULATE_CFG, dict(SIMULATE_CFG, samples=40.0), "spike_samples.csv"),
    ("theory", README_THEORY_CFG, dict(README_THEORY_CFG, covariance={
        "recipe": "toeplitz", "dim": 200.0, "rho": 0.1}), "theory_report.json"),
    ("theory", dict(THEORY_CFG, precision=10), dict(THEORY_CFG, precision=10.0),
     "theory_report.json"),
], ids=["simulate-samples", "theory-dim", "theory-precision"])
def test_integral_float_is_an_integer(tmp_path, command, cfg, as_float, output):
    # JSON Schema counts 40.0 as an integer; the handler must see 40
    outputs = []
    for name, payload in (("int", cfg), ("float", as_float)):
        out = tmp_path / name
        path = write_config(tmp_path, payload, f"{name}.json")
        assert main([command, "--config", path, "--out", str(out)]) == 0
        if output.endswith(".json"):
            report = json.loads((out / output).read_text())
            report["meta"].pop("wall_time_s")
            outputs.append(report)
        else:
            outputs.append((out / output).read_bytes())
    assert outputs[0] == outputs[1]


# -- the config validator against jsonschema ------------------------------


def _subschemas(schema):
    yield schema
    for value in schema.values():
        for sub in (value.values() if isinstance(value, dict)
                    else value if isinstance(value, list) else ()):
            if isinstance(sub, dict):
                yield from _subschemas(sub)


_ALL_SCHEMAS = [sub for schema in CONFIG_SCHEMAS.values() for sub in _subschemas(schema)]
_KEYS = sorted({key for sub in _ALL_SCHEMAS for key in sub.get("properties", {})}
               | {"extra"})
_TAGS = sorted({tag for sub in _ALL_SCHEMAS for tag in sub.get("enum", [])})


def _field_bounds():
    """Field name -> the numbers at and one step past each of its bounds; an
    integral one appears both as an int and as a float."""
    bounds = {}
    for sub in _ALL_SCHEMAS:
        for name, field in sub.get("properties", {}).items():
            for kw, b in field.items():
                if kw in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"):
                    bounds.setdefault(name, {}).update(
                        {repr(x): x for step in (-1, -0.5, 0, 0.5, 1)
                         for x in (b + step, float(b + step))})
    return {name: sorted(values.values(), key=float) for name, values in bounds.items()}


_FIELD_BOUNDS = _field_bounds()
_BOUND_VALUES = sorted({repr(v): v for values in _FIELD_BOUNDS.values()
                        for v in values}.values(), key=float)
_OTHER_TYPES = ["400", True, None, [], {}, [1.0], {"kind": "gaussian"}]

# the README and CI configs, with one block per tag the schemas know
_BASE_CONFIGS = [
    ("theory", README_THEORY_CFG),
    ("theory", {"covariance": {"recipe": "toeplitz", "dim": 800, "rho": 0.2},
                "signal": {"kind": "random-svd", "strengths": [3.0, 2.5, 2.0], "seed": 7},
                "samples": 1600}),
    ("theory", {"covariance": {"recipe": "diagonal", "dim": 4,
                               "entries": [2.0, 2.0, 1.0, 1.0]},
                "signal": {"kind": "mixture", "clusters": 2, "seed": 8, "scale": 1.0},
                "noise": {"kind": "discrete", "atoms": [-1, 1], "probs": [0.5, 0.5]},
                "samples": 80, "tau": 0.01, "precision": 17}),
    ("theory", {"covariance": {"recipe": "haar", "dim": 20, "bounds": [1, 2], "seed": 1},
                "signal": {"kind": "mixture-explicit", "centers": [[1.0, -1.0] for _ in range(20)],
                           "assignment": "equal"},
                "samples": 40}),
    ("theory", {"covariance": {"recipe": "identity", "dim": 3},
                "signal": {"kind": "random-svd", "strengths": [3.0], "seed": 1},
                "samples": 6}),
    ("theory", {"covariance": {"recipe": "dense", "dim": 2, "matrix": [[1, 0], [0, 1]]},
                "signal": {"kind": "localized", "strength_sq": 5.0, "row": 1, "col": 1},
                "samples": 4}),
    ("simulate", {**README_THEORY_CFG, "reps": 2000, "couple_theta": True,
                  "model": "additive", "n_top": 2, "master_seed": 3, "threads": 2}),
    ("test", {"k_star": 3,
              "generate": {"covariance": {"recipe": "diagonal", "dim": 10,
                                          "entries": [1.0, 1.1, 1.2, 1.3, 1.4,
                                                      1.5, 1.6, 1.7, 1.8, 1.9]},
                           "samples": 40, "clusters": 2},
              "calibration": {"k_star": 3, "n_star": 50, "reps": 200}}),
    ("test", {"k_star": 4, **CVS, "data_csv": "data.csv", "center": True}),
    ("calibrate", {"k_star": 4, "n_star": 100, "reps": 100, "threads": 2,
                   "quantile": 0.95, "master_seed": 0}),
    ("reproduce", {"target": "table1", "scale": 0.01, "threads": 2,
                   "calibration": {"k_star": 4, "n_star": 100, "reps": 300}}),
    ("reproduce", {"target": "figure2", "scale": 0.001}),
    ("nonuniversality", {"reps": 20, "dim": 200, "samples": 400, "strength_sq": 5.25,
                         "laws": ["gaussian", "three-point"], "precision": 10}),
    ("verify", {"samples": 200, "seeds": 50, "threads": 2}),
]


def _nodes(value, path=()):
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _nodes(item, (*path, key))


@st.composite
def mutated_configs(draw):
    """A README or CI config with one to three mutations: a key dropped, added
    or retyped, a number at or past a schema bound, an array one item short or
    long, a tag swapped."""
    command, cfg = draw(st.sampled_from(_BASE_CONFIGS))
    cfg = copy.deepcopy(cfg)
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_nodes(cfg))))
        parent = functools.reduce(operator.getitem, path[:-1], cfg)
        ops = (["add"] if isinstance(node, dict) else []) + (
            ["drop", "retype"] if path else []) + (
            ["bound"] if isinstance(node, (int, float)) else []) + (
            ["tag"] if isinstance(node, str) else []) + (
            ["shorten", "lengthen"] if isinstance(node, list) else [])
        op = draw(st.sampled_from(ops))
        if op == "add":
            node[draw(st.sampled_from(_KEYS))] = copy.deepcopy(draw(st.sampled_from(
                _OTHER_TYPES + _BOUND_VALUES + _TAGS)))
        elif op == "drop":
            del parent[path[-1]]
        elif op == "retype":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_OTHER_TYPES)))
        elif op == "bound":
            own = _FIELD_BOUNDS.get(path[-1]) or _BOUND_VALUES
            parent[path[-1]] = draw(st.sampled_from(own + [1e300, -1e300]))
        elif op == "tag":
            parent[path[-1]] = draw(st.sampled_from(_TAGS + ["unknown"]))
        elif op == "shorten":
            node[-1:] = []
        else:
            node.append(node[-1] if node else 1.0)
    return command, cfg


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("oracle") / "cfg.json")


def _line(path, message):
    return f"config field {'/'.join(map(str, path)) or '<root>'}: {message}"


@given(mutated_configs())
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_validator_agrees_with_jsonschema(config_file, command_cfg):
    command, cfg = command_cfg
    schema = CONFIG_SCHEMAS[command]
    oracle = jsonschema.validators.validator_for(schema)(schema)
    theirs = [(tuple(e.absolute_path), e.message) for e in oracle.iter_errors(cfg)]
    ours = list(cli._schema_errors(schema, copy.deepcopy(cfg)))
    # the same decision, every error one of jsonschema's, in jsonschema's order
    assert ours == theirs
    with open(config_file, "w") as fh:
        json.dump(cfg, fh)
    args = argparse.Namespace(command=command, config=config_file)
    if not theirs:
        cli.load_config(args)
        return
    with pytest.raises(cli.ConfigError) as exc:
        cli.load_config(args)
    # with several errors, best_match's choice among them varies by version;
    # the validator reports the first at the shallowest field
    if len(theirs) == 1:
        best = jsonschema.exceptions.best_match(oracle.iter_errors(cfg))
        assert str(exc.value) == _line(best.absolute_path, best.message)
    else:
        assert str(exc.value) == _line(*min(theirs, key=lambda error: len(error[0])))


class TestVerifyCli:
    def test_failed_battery_keeps_its_report(self, tmp_path, capsys):
        # four seeds are too few for the scaling bands: exit 3, report kept
        out = tmp_path / "out"
        assert main(["verify", "--n", "50", "--seeds", "4", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "verification failure: one or more verification checks failed\n")
        payload = json.loads((out / "verification.json").read_text())
        assert payload["all_passed"] is False

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
