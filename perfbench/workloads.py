"""The four benchmark workloads: their inputs, operations and output gates.

Each workload is a list of operations (one entry-point call each) that one
pass runs back to back, plus gates that check the pass's outputs.  The
gates test invariants of the outputs, never stored random draws, so they
survive a documented change of the random streams.  Inputs depend only on
the workload seed; sizes are fixed per workload.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_THEORY = HERE / "reference" / "theory_readme.json"

# The README's simulate/theory configuration.
README_CONFIG = {
    "covariance": {"recipe": "toeplitz", "dim": 200, "rho": 0.1},
    "signal": {"kind": "localized", "strength_sq": 5.25},
    "noise": {"kind": "three-point"},
    "samples": 400,
}

Z_GATE = 5.0      # z-bound of the statistical gates; a false failure needs a 5-sigma draw
SIZE_SLACK = 0.03  # criterion 11 accepts size rates in 0.05 +- 0.03


class OpFailed(Exception):
    pass


@dataclass
class Op:
    label: str                 # reported operation kind, e.g. "simulate"
    fn: Callable[[Path], None]  # runs the operation, writing into out dir op<i>
    draws: int = 0             # Monte-Carlo noise draws (theory: reports)


@dataclass
class Plan:
    ops: list[Op]
    gate: Callable[[Path], dict]   # out dir of the pass -> {gate name: passed}
    records: Callable[[Path], dict] = field(default=lambda out: {})


def cli(argv: list[str]):
    """One spikelab CLI invocation; a nonzero exit code is a failed op."""
    import spikelab.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = spikelab.cli.main(argv)
    if code != 0:
        raise OpFailed(f"spikelab {argv[0]} exited with {code}")


def _write_json(path: Path, payload) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return str(path)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- spike_mc -------------------------------------------------------------


def spike_mc(seed: int, threads: int, smoke: bool, cfg_dir: Path) -> Plan:
    """simulate on the README config, then nonuniversality at 200 x 400."""
    rng = random.Random(seed)
    sim_seed, nu_seed = rng.randrange(2**31), rng.randrange(2**31)
    sim_reps, nu_reps = (20, 4) if smoke else (150, 25)   # 150 draws each
    laws = ("gaussian", "three-point", "four-point")

    sim_cfg = dict(README_CONFIG, reps=sim_reps, couple_theta=True,
                   master_seed=sim_seed)
    sim_path = _write_json(cfg_dir / "simulate.json", sim_cfg)
    expected_bias = _spike_bias(sim_cfg)

    ops = [
        Op("simulate", lambda out: cli(["simulate", "--config", sim_path,
                                        "--threads", str(threads), "--out", str(out)]),
           draws=sim_reps),
        Op("nonuniversality", lambda out: cli(
            ["nonuniversality", "--reps", str(nu_reps), "--seed", str(nu_seed),
             "--threads", str(threads), "--out", str(out)]),
           draws=2 * len(laws) * nu_reps),
    ]

    def gate(out: Path) -> dict:
        rows = _read_csv(out / "op0" / "spike_samples.csv")
        values = np.array([[float(v) for v in r.values()] for r in rows])
        checks = {"simulate.rows": len(rows) == sim_reps,
                  "simulate.finite": bool(np.isfinite(values).all())}
        fluct_cols = [c for c in rows[0] if c.startswith("fluct_")] if rows else []
        ok = len(fluct_cols) == len(expected_bias)
        for col, bias in zip(fluct_cols, expected_bias):
            f = np.array([float(r[col]) for r in rows])
            se = f.std(ddof=1) / math.sqrt(len(f))
            ok &= bool(abs(f.mean() - bias) <= Z_GATE * se)
        checks["simulate.fluct_mean"] = ok

        ks = json.loads((out / "op1" / "nonuniversality_ks.json").read_text())["ks"]
        pairs = {f"{a}|{b}" for i, a in enumerate(laws) for b in laws[i + 1:]}
        checks["nonuniversality.ks"] = (
            set(ks) == {"additive", "multiplicative"}
            and all(set(ks[m]) == pairs and all(0.0 <= v <= 1.0 for v in ks[m].values())
                    for m in ks))
        counts = {}
        for r in _read_csv(out / "op1" / "nonuniversality_hist.csv"):
            key = (r["law"], r["model"])
            counts[key] = counts.get(key, 0) + int(r["count"])
        checks["nonuniversality.hist_counts"] = (
            len(counts) == 2 * len(laws) and set(counts.values()) == {nu_reps})
        return checks

    return Plan(ops, gate)


def _spike_bias(cfg: dict) -> list[float]:
    """Deterministic spike bias of a simulate config, from the library."""
    from spikelab import cli as c
    from spikelab.spikes import asymptotic_quantities, deform

    sigma = c.build_covariance(cfg["covariance"])
    signal = c.build_signal(cfg["signal"], sigma.dim, cfg["samples"])
    law = c.build_noise(cfg.get("noise"))
    pop = deform(sigma, signal, cfg.get("tau", 0.01))
    theory = asymptotic_quantities(sigma, signal, pop, law, cfg["samples"])
    return [float(b) for b in theory.spike_bias]


# -- detection ------------------------------------------------------------


def detection(seed: int, threads: int, smoke: bool, cfg_dir: Path) -> Plan:
    """Size table, power table (K=2) and figure 2 with a reduced calibration."""
    rng = random.Random(seed)
    cal_seed, t1_seed, t2_seed, f2_seed = (rng.randrange(2**31) for _ in range(4))
    cal_reps = 100 if smoke else 300
    table_scale = 0.002 if smoke else 0.005      # x 10000 base reps per cell
    figure_scale = 0.0006 if smoke else 0.004     # x 5000 base reps
    table_reps = max(round(10000 * table_scale), 1)
    figure_reps = max(round(5000 * figure_scale), 1)
    n_cells = 12

    cfg_path = _write_json(cfg_dir / "reproduce.json", {"calibration": {
        "k_star": 4, "n_star": 100, "reps": cal_reps, "master_seed": cal_seed}})

    def table(n, s):
        return lambda out: cli(["reproduce", "--table", str(n), "--scale", str(table_scale),
                                "--config", cfg_path, "--seed", str(s),
                                "--threads", str(threads), "--out", str(out)])

    ops = [
        Op("reproduce", table(1, t1_seed), draws=cal_reps + n_cells * table_reps),
        Op("reproduce", table(2, t2_seed), draws=cal_reps + n_cells * table_reps),
        Op("reproduce", lambda out: cli(
            ["reproduce", "--figure", "2", "--scale", str(figure_scale),
             "--seed", str(f2_seed), "--threads", str(threads), "--out", str(out)]),
           draws=6 * figure_reps),
    ]

    def rates(path: Path) -> dict:
        return {(r["sigma"], r["statistic"], col): float(v)
                for r in _read_csv(path) for col, v in r.items()
                if col not in ("sigma", "statistic") and v != ""}

    def gate(out: Path) -> dict:
        meta = json.loads((out / "op0" / "table1.meta.json").read_text())
        cv = meta["critical_values"]
        checks = {"table1.cv": all(math.isfinite(cv[k]) and cv[k] > 0
                                   for k in ("cv_ds", "cv_rs"))}
        size = rates(out / "op0" / "table1.csv")
        power = rates(out / "op1" / "table2.csv")
        # Upper end of the size band: the nominal level, plus the finite-size
        # deviation the acceptance suite allows (criterion 11), plus the
        # calibration's quantile error, plus the cell's binomial error.
        p = 1.0 - cv["quantile"]
        p_hi = p + SIZE_SLACK + Z_GATE * math.sqrt(p * (1 - p) / cal_reps)
        hi = p_hi + Z_GATE * math.sqrt(p_hi * (1 - p_hi) / table_reps)
        checks["table1.size_band"] = (len(size) == 2 * n_cells
                                      and all(0.0 <= r <= hi for r in size.values()))
        checks["table2.power_ge_size"] = (set(power) == set(size)
                                          and all(power[k] >= size[k] for k in size))
        sums = {}
        for r in _read_csv(out / "op2" / "figure2_hist.csv"):
            key = (r["dim"], r["hypothesis"], r["statistic"])
            sums[key] = sums.get(key, 0) + int(r["count"])
        checks["figure2.counts"] = len(sums) == 12 and set(sums.values()) == {figure_reps}
        return checks

    return Plan(ops, gate)


# -- locallaw_verify ------------------------------------------------------

IDENTITY_CHECKS = ("resolvent_identity", "block_consistency", "pi_prime_fd", "pi2_fd",
                   "trace_identity_m", "trace_identity_n", "null_vector",
                   "quad_identity", "master_singularity", "det_contrast")


def locallaw_verify(seed: int, threads: int, smoke: bool, cfg_dir: Path) -> Plan:
    """run_verification comparing N = 200 against N = 800."""
    master_seed = random.Random(seed).randrange(2**31)
    n_small, seeds = (50, 2) if smoke else (200, 2)

    def verify(out: Path):
        import spikelab.verification

        report = spikelab.verification.run_verification(
            n_small=n_small, seeds=seeds, master_seed=master_seed, workers=threads)
        _write_json(out / "verification.json", report.to_jsonable())

    ops = [Op("verify", verify, draws=1 + 2 * seeds * 8)]

    def load(out: Path) -> dict:
        return json.loads((out / "op0" / "verification.json").read_text())

    def gate(out: Path) -> dict:
        checks = load(out)["checks"]
        return {f"verify.{name}": bool(checks.get(name, {}).get("passed"))
                for name in IDENTITY_CHECKS}

    def records(out: Path) -> dict:
        rep = load(out)
        rec = {name: chk["value"]["ratio"] for name, chk in rep["checks"].items()
               if name.startswith("scaling_")}
        rec["green_rep_magnitude"] = rep["checks"]["green_rep_magnitude"]["value"]["fraction"]
        rec["skipped_seeds"] = rep["skipped_seeds"]
        return rec

    return Plan(ops, gate, records)


# -- theory_sweep ---------------------------------------------------------


def theory_sweep(seed: int, threads: int, smoke: bool, cfg_dir: Path) -> Plan:
    """theory reports: a d^2 and noise-law sweep at M=800, which sets the
    median, plus small-M reports with closed forms and one M=1200 report in
    nine, which sets the tail."""
    rng = random.Random(seed)
    laws = ("gaussian", "three-point", "four-point", "uniform-sym")
    configs = [("readme", dict(README_CONFIG))]
    # (recipe, M, N, toeplitz rho).  rho stays fixed because it sets the
    # eigh cost (clustered spectra deflate faster); the seed draws d^2 and the law.
    shapes = [("identity", 200, 400, None), ("identity", 400, 1000, None)] if smoke else [
        ("identity", 200, 400, None), ("identity", 400, 1000, None),
        *[("toeplitz", 800, 1600, 0.2)] * 5, ("toeplitz", 1200, 2400, 0.2)]
    for i, (recipe, m, n, rho) in enumerate(shapes):
        cov = {"recipe": recipe, "dim": m}
        if rho is not None:
            cov["rho"] = rho
        configs.append((f"{recipe}{m}x{n}-{i}", {
            "covariance": cov,
            "signal": {"kind": "localized", "strength_sq": round(rng.uniform(3.0, 8.0), 6)},
            "noise": {"kind": rng.choice(laws)},
            "samples": n,
        }))
    paths = {name: _write_json(cfg_dir / f"theory_{name}.json", dict(cfg, precision=17))
             for name, cfg in configs}

    def report(name):
        return lambda out: cli(["theory", "--config", paths[name], "--out", str(out)])

    ops = [Op("theory", report(name), draws=1) for name, _cfg in configs]

    def gate(out: Path) -> dict:
        checks = {}
        for i, (name, cfg) in enumerate(configs):
            rep = json.loads((out / f"op{i}" / "theory_report.json").read_text())["report"]
            if name == "readme":
                ref = json.loads(REFERENCE_THEORY.read_text())
                checks["theory.readme_reference"] = close(rep, ref, rtol=1e-9)
            elif cfg["covariance"]["recipe"] == "identity":
                phi = cfg["covariance"]["dim"] / cfg["samples"]
                d2 = cfg["signal"]["strength_sq"]
                checks[f"theory.{name}.lambda_plus"] = math.isclose(
                    rep["edge"]["lambda_plus"], (1 + math.sqrt(phi)) ** 2, rel_tol=1e-9)
                checks[f"theory.{name}.theta"] = math.isclose(
                    rep["theta"][0], (1 + d2) * (1 + phi / d2), rel_tol=1e-9)
            else:
                checks[f"theory.{name}.K0"] = rep["K0"] == 1 and all(
                    math.isfinite(x) for x in rep["theta"] + rep["gauss_cov"][0])
        return checks

    return Plan(ops, gate)


def close(a, b, rtol: float) -> bool:
    """Recursive equality with a relative tolerance on floats."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)
    return a == b


WORKLOADS = {
    "spike_mc": spike_mc,
    "detection": detection,
    "locallaw_verify": locallaw_verify,
    "theory_sweep": theory_sweep,
}
