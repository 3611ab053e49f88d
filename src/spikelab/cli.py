"""Batch command-line front end.

Subcommands: theory, simulate, nonuniversality, calibrate, test, reproduce,
verify.  Configuration is JSON validated against a published schema with
unknown keys rejected; every output embeds (directly or through its JSON
sidecar) the exact configuration and master seed that regenerate it.

Exit codes: 0 ok, 1 config error, 2 numerical failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time
import warnings

import numpy as np
import jsonschema

from .errors import ConfigError, SpikelabError
from .spectra import check_assumptions, make_covariance
from .spikes import (
    SignalModel,
    asymptotic_quantities,
    deform,
    delocalization_profile,
)
from .ensemble import (
    SpikeMCConfig,
    make_noise_law,
    mixture_signal,
    parallel_map,
    run_spike_mc,
    stream,
)
from .hetero import (
    CriticalValues,
    Scenario,
    calibrate,
    default_grid,
    detect,
    draw_centers,
    draw_data,
    ds_rs_from_data,
    run_power_experiment,
    run_size_experiment,
)
from .verification import jsonable, run_verification

# -- config schemas -------------------------------------------------------

_COVARIANCE_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"properties": {"recipe": {"const": "identity"},
                        "dim": {"type": "integer", "minimum": 1}},
         "required": ["recipe", "dim"], "additionalProperties": False},
        {"properties": {"recipe": {"const": "diagonal"},
                        "dim": {"type": "integer", "minimum": 1},
                        "entries": {"type": "array", "items": {"type": "number"}}},
         "required": ["recipe", "dim", "entries"], "additionalProperties": False},
        {"properties": {"recipe": {"const": "toeplitz"},
                        "dim": {"type": "integer", "minimum": 1},
                        "rho": {"type": "number"}},
         "required": ["recipe", "dim", "rho"], "additionalProperties": False},
        {"properties": {"recipe": {"const": "haar"},
                        "dim": {"type": "integer", "minimum": 1},
                        "bounds": {"type": "array", "items": {"type": "number"},
                                   "minItems": 2, "maxItems": 2},
                        "seed": {"type": "integer"}},
         "required": ["recipe", "dim", "bounds", "seed"],
         "additionalProperties": False},
        {"properties": {"recipe": {"const": "dense"},
                        "dim": {"type": "integer", "minimum": 1},
                        "matrix": {"type": "array"}},
         "required": ["recipe", "dim", "matrix"], "additionalProperties": False},
    ],
}

_SIGNAL_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"properties": {"kind": {"const": "localized"},
                        "strength_sq": {"type": "number", "exclusiveMinimum": 0},
                        "row": {"type": "integer", "minimum": 0},
                        "col": {"type": "integer", "minimum": 0}},
         "required": ["kind", "strength_sq"], "additionalProperties": False},
        {"properties": {"kind": {"const": "random-svd"},
                        "strengths": {"type": "array",
                                      "items": {"type": "number"}, "minItems": 1},
                        "seed": {"type": "integer"}},
         "required": ["kind", "strengths", "seed"], "additionalProperties": False},
        {"properties": {"kind": {"const": "mixture"},
                        "clusters": {"type": "integer", "minimum": 2, "maximum": 4},
                        "seed": {"type": "integer"},
                        "scale": {"type": "number"}},
         "required": ["kind", "clusters", "seed"], "additionalProperties": False},
        {"properties": {"kind": {"const": "mixture-explicit"},
                        "centers": {"type": "array"},
                        "assignment": {"type": "string"}},
         "required": ["kind", "centers"], "additionalProperties": False},
    ],
}

_NOISE_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"properties": {"kind": {"enum": ["gaussian", "uniform-sym", "three-point",
                                          "four-point", "shifted-exponential"]}},
         "required": ["kind"], "additionalProperties": False},
        {"properties": {"kind": {"const": "discrete"},
                        "atoms": {"type": "array", "items": {"type": "number"}},
                        "probs": {"type": "array", "items": {"type": "number"}}},
         "required": ["kind", "atoms", "probs"], "additionalProperties": False},
    ],
}

_CALIBRATION_SCHEMA = {
    "type": "object",
    "properties": {
        "k_star": {"type": "integer", "minimum": 2},
        "n_star": {"type": "integer", "minimum": 10},
        "reps": {"type": "integer", "minimum": 100},
        "quantile": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "master_seed": {"type": "integer", "minimum": 0},
    },
    "required": ["k_star", "n_star", "reps"],
    "additionalProperties": False,
}

# shared keys; each command's schema takes only those its handler reads
_SEED = {"master_seed": {"type": "integer", "minimum": 0}}
_PRECISION = {"precision": {"type": "integer", "minimum": 1, "maximum": 17}}
_THREADS = {"threads": {"type": "integer", "minimum": 1}}

CONFIG_SCHEMAS = {
    "theory": {
        "type": "object",
        "properties": {
            "covariance": _COVARIANCE_SCHEMA,
            "signal": _SIGNAL_SCHEMA,
            "noise": _NOISE_SCHEMA,
            "samples": {"type": "integer", "minimum": 1},
            "tau": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            **_PRECISION,
        },
        "required": ["covariance", "signal", "samples"],
        "additionalProperties": False,
    },
    "simulate": {
        "type": "object",
        "properties": {
            "covariance": _COVARIANCE_SCHEMA,
            "signal": _SIGNAL_SCHEMA,
            "noise": _NOISE_SCHEMA,
            "samples": {"type": "integer", "minimum": 1},
            "tau": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "reps": {"type": "integer", "minimum": 1},
            "model": {"enum": ["additive", "multiplicative"]},
            "couple_theta": {"type": "boolean"},
            "n_top": {"type": "integer", "minimum": 1},
            **_SEED, **_PRECISION, **_THREADS,
        },
        "required": ["covariance", "signal", "samples", "reps"],
        "additionalProperties": False,
    },
    "nonuniversality": {
        "type": "object",
        "properties": {
            "dim": {"type": "integer", "minimum": 1},
            "samples": {"type": "integer", "minimum": 1},
            "strength_sq": {"type": "number", "exclusiveMinimum": 0},
            "laws": {"type": "array", "items": {"type": "string"}, "minItems": 2},
            "reps": {"type": "integer", "minimum": 2},
            **_SEED, **_PRECISION, **_THREADS,
        },
        "additionalProperties": False,
    },
    "calibrate": {**_CALIBRATION_SCHEMA,
                  "properties": {**_CALIBRATION_SCHEMA["properties"],
                                 **_SEED, **_THREADS}},
    "test": {
        "type": "object",
        "properties": {
            "k_star": {"type": "integer", "minimum": 2},
            "critical_values": {
                "type": "object",
                "properties": {"cv_ds": {"type": "number"},
                               "cv_rs": {"type": "number"}},
                "required": ["cv_ds", "cv_rs"],
                "additionalProperties": False,
            },
            "calibration": _CALIBRATION_SCHEMA,
            "data_csv": {"type": "string"},
            "generate": {
                "type": "object",
                "properties": {
                    "covariance": _COVARIANCE_SCHEMA,
                    "noise": _NOISE_SCHEMA,
                    "samples": {"type": "integer", "minimum": 1},
                    "clusters": {"type": "integer", "minimum": 0, "maximum": 4},
                    "center_scale": {"type": "number"},
                },
                "required": ["covariance", "samples"],
                "additionalProperties": False,
            },
            "center": {"type": "boolean"},
            **_SEED, **_THREADS,
        },
        "required": ["k_star"],
        "additionalProperties": False,
    },
    "reproduce": {
        "type": "object",
        "properties": {
            "target": {"enum": ["table1", "table2", "table3", "table4",
                                "figure1", "figure2"]},
            "scale": {"type": "number", "exclusiveMinimum": 0},
            "calibration": _CALIBRATION_SCHEMA,
            **_SEED, **_PRECISION, **_THREADS,
        },
        "required": ["target"],
        "additionalProperties": False,
    },
    "verify": {
        "type": "object",
        "properties": {
            "samples": {"type": "integer", "minimum": 50},
            "seeds": {"type": "integer", "minimum": 2},
            **_SEED, **_THREADS,
        },
        "additionalProperties": False,
    },
}

# built once: the test suite checks the schemas, not every load
_VALIDATORS = {command: jsonschema.validators.validator_for(schema)(schema)
               for command, schema in CONFIG_SCHEMAS.items()}

_BASE_REPS = {"table1": 10000, "table2": 10000, "table3": 10000,
              "table4": 10000, "figure1": 5000, "figure2": 5000}
_DEFAULT_CALIBRATION = {"k_star": 4, "n_star": 100, "reps": 30000,
                        "quantile": 0.95, "master_seed": 0}


# config key that each command-line flag overrides
_FLAG_KEYS = {"seed": "master_seed", "reps": "reps", "threads": "threads",
              "kstar": "k_star", "nstar": "n_star", "quantile": "quantile",
              "target": "target", "scale": "scale", "n": "samples",
              "seeds": "seeds"}


class VerificationFailure(SpikelabError):
    pass


def load_config(args) -> dict:
    """The subcommand's JSON config with its command-line flags applied."""
    cfg = {}
    path = args.config
    if path is not None:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for flag, key in _FLAG_KEYS.items():
        if getattr(args, flag, None) is not None:
            cfg[key] = getattr(args, flag)
    for bad in _non_finite_fields(cfg):
        raise ConfigError(f"config field {'/'.join(map(str, bad))}: not a finite number")
    error = jsonschema.exceptions.best_match(_VALIDATORS[args.command].iter_errors(cfg))
    if error is not None:
        loc = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config field {loc}: {error.message}") from error
    return cfg


def _non_finite_fields(value, path=()):
    """Paths to the NaN and infinite floats in a config."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _non_finite_fields(item, (*path, key))


def _float_array(value, name: str) -> np.ndarray:
    """A config array as floats; a ragged, non-numeric or null-holding one is a
    config error."""
    with contextlib.suppress(TypeError, ValueError):
        arr = np.asarray(value, dtype=float)
        if np.isfinite(arr).all():
            return arr
    raise ConfigError(f"{name} is not a rectangular array of finite numbers")


def build_covariance(spec: dict):
    params = {k: v for k, v in spec.items() if k not in ("recipe", "dim", "seed")}
    if "matrix" in params:
        params["matrix"] = _float_array(params["matrix"], "dense covariance matrix")
    return make_covariance(spec["recipe"], spec["dim"], seed=spec.get("seed"),
                           **params)


def build_signal(spec: dict, m_dim: int, n_dim: int) -> SignalModel:
    kind = spec["kind"]
    if kind == "localized":
        row, col = spec.get("row", 0), spec.get("col", 0)
        if row >= m_dim or col >= n_dim:
            raise ConfigError(f"localized signal entry ({row}, {col}) is outside "
                              f"the {m_dim}x{n_dim} data matrix")
        return SignalModel.localized(math.sqrt(spec["strength_sq"]), m_dim, n_dim,
                                     row=row, col=col)
    if kind == "random-svd":
        rng = stream(spec["seed"], 0)
        k = len(spec["strengths"])
        left = np.linalg.qr(rng.standard_normal((m_dim, k)))[0]
        right = np.linalg.qr(rng.standard_normal((n_dim, k)))[0]
        return SignalModel.from_factors(left, spec["strengths"], right)
    if kind == "mixture":
        rng = stream(spec["seed"], 0)
        centers = draw_centers(spec["clusters"], m_dim, rng,
                               spec.get("scale", 1.0)) * math.sqrt(n_dim)
        sig, _counts = mixture_signal(centers, "equal", n_dim)
        return sig
    if kind == "mixture-explicit":
        centers = _float_array(spec["centers"], "mixture-explicit centers")
        if centers.ndim != 2 or centers.shape[0] != m_dim:
            raise ConfigError(f"mixture-explicit centers have shape {centers.shape}; "
                              f"expected {m_dim} rows, one per dimension")
        sig, _counts = mixture_signal(centers, spec.get("assignment", "equal"),
                                      n_dim)
        return sig
    raise ConfigError(f"unknown signal kind {kind!r}")


def build_noise(spec: dict | None):
    if spec is None:
        return make_noise_law("gaussian")
    return make_noise_law(spec["kind"], atoms=spec.get("atoms"),
                          probs=spec.get("probs"))


class OutputSession:
    """Tracks files written by one command; used as a context manager, it
    removes them when the block raises."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.paths: list[str] = []

    def path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        p = os.path.join(self.out_dir, name)
        self.paths.append(p)
        return p

    def write_json(self, name: str, payload: dict) -> str:
        p = self.path(name)
        with open(p, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return p

    def write_csv(self, name: str, header, rows) -> str:
        p = self.path(name)
        with open(p, "w") as fh:
            for row in [header, *rows]:
                fh.write(",".join(str(x) for x in row) + "\n")
        return p

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for p in self.paths:
                with contextlib.suppress(OSError):
                    os.remove(p)


def _fmt(x, sig: int) -> str:
    return format(float(x), f".{sig}g")


def _meta(cfg: dict, t0: float) -> dict:
    from . import __version__
    return {"config": cfg, "version": __version__,
            "wall_time_s": round(time.perf_counter() - t0, 3)}


# -- subcommand handlers --------------------------------------------------


def cmd_theory(args) -> int:
    cfg = load_config(args)
    t0 = time.perf_counter()
    sigma = build_covariance(cfg["covariance"])
    n_dim = cfg["samples"]
    signal = build_signal(cfg["signal"], sigma.dim, n_dim)
    law = build_noise(cfg.get("noise"))
    tau = cfg.get("tau", 0.01)
    sig_digits = cfg.get("precision", 10)

    pop = deform(sigma, signal, tau)
    assumptions = check_assumptions(pop.edge, tau)
    report = {
        "phi": pop.edge.phi,
        "edge": {
            "w_plus": pop.edge.w_plus,
            "lambda_plus": pop.edge.lambda_plus,
            "f_second_at_w_plus": pop.edge.f_second_at_w_plus,
            "sigma_tw": pop.edge.sigma_tw,
        },
        "threshold": pop.threshold,
        "sigma_tilde": pop.sigma_tilde,
        "K0": pop.K0,
        "warnings": list(pop.warnings),
        "assumptions": {
            "all_ok": assumptions.all_ok,
            "aspect_ratio": vars(assumptions.aspect_ratio),
            "norm_bound": vars(assumptions.norm_bound),
            "low_mass": vars(assumptions.low_mass),
            "edge_regularity": vars(assumptions.edge_regularity),
        },
        "noise": {"kind": law.kind, "kappa3": law.kappa3, "kappa4": law.kappa4},
    }
    if pop.K0 >= 1:
        theory = asymptotic_quantities(sigma, signal, pop, law, n_dim)
        profile = delocalization_profile(theory)
        report.update({
            "theta": theory.theta,
            "theta_prime": theory.theta_prime,
            "spike_bias": theory.spike_bias,
            "gauss_cov": theory.gauss_cov,
            "gauss_cov_base": theory.gauss_cov_base,
            "gauss_cov_kurtosis": theory.gauss_cov_kurtosis,
            "cross_cov": theory.cross_cov,
            "delocalization": {
                "sqrt_sigma_psi_sup": profile[:, 0],
                "s_top_psi_sup": profile[:, 1],
            },
        })
    with OutputSession(args.out) as session:
        p = session.write_json("theory_report.json", {
            "report": jsonable(report, sig_digits), "meta": _meta(cfg, t0)})
    print(p)
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args)
    t0 = time.perf_counter()
    sigma = build_covariance(cfg["covariance"])
    n_dim = cfg["samples"]
    signal = build_signal(cfg["signal"], sigma.dim, n_dim)
    law = build_noise(cfg.get("noise"))
    mc = SpikeMCConfig(
        sigma=sigma, signal=signal, law=law, reps=cfg["reps"],
        master_seed=cfg.get("master_seed", 0),
        model=cfg.get("model", "additive"),
        couple_theta=cfg.get("couple_theta", False),
        n_top=cfg.get("n_top"), tau=cfg.get("tau", 0.01),
        workers=cfg.get("threads"),
    )
    samples = run_spike_mc(mc)
    with OutputSession(args.out) as session:
        csv_path = session.path("spike_samples.csv")
        samples.to_csv(csv_path, precision=cfg.get("precision", 10))
        meta = _meta(cfg, t0)
        meta["theta"] = jsonable(samples.theory.theta) if samples.theory else None
        meta["K0"] = int(samples.fluctuations.shape[1])
        session.write_json("spike_samples.meta.json", meta)
    print(csv_path)
    return 0


def _histogram_rows(values: np.ndarray, sig_digits: int) -> list:
    """(bin_left, bin_right, count) rows over Freedman-Diaconis bins."""
    q75, q25 = np.percentile(values, [75, 25])
    span = float(np.ptp(values))
    width = 2.0 * (q75 - q25) / len(values) ** (1.0 / 3.0)
    if width <= 0:
        width = max(span, 1.0) / 10.0
    nbins = max(int(math.ceil(span / width)), 1)
    counts, edges = np.histogram(values, bins=nbins, range=(values.min(), values.max()))
    return [(_fmt(edges[i], sig_digits), _fmt(edges[i + 1], sig_digits), int(c))
            for i, c in enumerate(counts)]


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    from scipy.stats import ks_2samp
    return float(ks_2samp(a, b).statistic)


def cmd_nonuniversality(args) -> int:
    cfg = load_config(args)
    t0 = time.perf_counter()
    with OutputSession(args.out) as session:
        hist_path = _nonuniversality(session, cfg, cfg.get("reps", 2000), t0)
    print(hist_path)
    return 0


def _nonuniversality(session, cfg, reps, t0):
    """Spike histograms and pairwise KS distances per law and model; also
    the body of ``reproduce --figure 1``, whose config holds no model keys."""
    m_dim = cfg.get("dim", 200)
    n_dim = cfg.get("samples", 400)
    laws = cfg.get("laws", ["gaussian", "three-point", "four-point"])
    seed = cfg.get("master_seed", 0)
    sig_digits = cfg.get("precision", 10)

    sigma = build_covariance({"recipe": "identity", "dim": m_dim})
    signal = SignalModel.localized(math.sqrt(cfg.get("strength_sq", 5.25)),
                                  m_dim, n_dim)
    results = {}
    for li, law_kind in enumerate(laws):
        for mi, model in enumerate(("additive", "multiplicative")):
            mc = SpikeMCConfig(sigma=sigma, signal=signal,
                               law=make_noise_law(law_kind), reps=reps,
                               master_seed=seed + 1000 * li + 100 * mi,
                               model=model, workers=cfg.get("threads"))
            results[(law_kind, model)] = run_spike_mc(mc).lambdas[:, 0]

    hist_path = session.write_csv(
        "nonuniversality_hist.csv", ("law", "model", "bin_left", "bin_right", "count"),
        [(law_kind, model, *row) for (law_kind, model), lam in sorted(results.items())
         for row in _histogram_rows(lam, sig_digits)])
    ks = {model: {f"{la}|{lb}": _ks_distance(results[(la, model)],
                                             results[(lb, model)])
                  for la, lb in itertools.combinations(laws, 2)}
          for model in ("additive", "multiplicative")}
    session.write_json("nonuniversality_ks.json",
                       {"ks": jsonable(ks, sig_digits), "meta": _meta(cfg, t0)})
    return hist_path


def cmd_calibrate(args) -> int:
    cfg = load_config(args)
    t0 = time.perf_counter()
    cv = calibrate(cfg["k_star"], cfg["n_star"], cfg["reps"],
                   cfg.get("quantile", 0.95), cfg.get("master_seed", 0),
                   workers=cfg.get("threads"))
    with OutputSession(args.out) as session:
        p = session.write_json("critical_values.json",
                               {"critical_values": jsonable(vars(cv)),
                                "meta": _meta(cfg, t0)})
    print(p)
    print(f"cv_DS={cv.cv_ds:.6g} cv_RS={cv.cv_rs:.6g}")
    return 0


def _critical_values_from_cfg(cfg: dict, threads=None) -> CriticalValues:
    if "critical_values" in cfg:
        cvs = cfg["critical_values"]
        return CriticalValues(k_star=cfg["k_star"], n_star=0, reps=0,
                              quantile=0.95, cv_ds=cvs["cv_ds"],
                              cv_rs=cvs["cv_rs"], master_seed=0)
    cal = {**_DEFAULT_CALIBRATION, **cfg.get("calibration", {})}
    k_star = cfg.get("k_star", cal["k_star"])
    return calibrate(k_star, cal["n_star"], cal["reps"],
                     cal["quantile"], cal["master_seed"], workers=threads)


def cmd_test(args) -> int:
    cfg = load_config(args)
    t0 = time.perf_counter()
    if "data_csv" in cfg:
        data = _load_data_csv(cfg["data_csv"])
    elif "generate" in cfg:
        gen = cfg["generate"]
        sigma = build_covariance(gen["covariance"])
        scenario = Scenario(sigma.dim, gen["samples"], build_noise(gen.get("noise")),
                            sigma, gen.get("clusters", 0),
                            gen.get("center_scale", 1.0))
        data = draw_data(scenario, stream(cfg.get("master_seed", 0), 0))
    else:
        raise ConfigError("test needs either data_csv or generate")
    if min(data.shape) < 2 * cfg["k_star"] - 1:
        raise ConfigError(f"test data is {data.shape[0]}x{data.shape[1]}; K*="
                          f"{cfg['k_star']} needs {2 * cfg['k_star'] - 1} rows and columns")
    cv = _critical_values_from_cfg(cfg, cfg.get("threads"))
    result = detect(data, cfg["k_star"], cv, center=cfg.get("center", False))
    with OutputSession(args.out) as session:
        p = session.write_json("detection.json", {
            "decision": jsonable(vars(result)),
            "critical_values": jsonable(vars(cv)),
            "meta": _meta(cfg, t0),
        })
    print(p)
    print(f"DS={result.ds:.6g} (reject={result.reject_ds}) "
          f"RS={result.rs:.6g} (reject={result.reject_rs})")
    return 0


def _load_data_csv(path: str) -> np.ndarray:
    """Read an M x N data matrix of finite numbers."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # an empty file only warns
            data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError, UserWarning) as exc:
        raise ConfigError(f"cannot read data_csv {path}: {exc}") from exc
    if not np.isfinite(data).all():
        raise ConfigError(f"data_csv {path} has non-finite entries")
    return data


def _write_table(session, name, report, cfg, t0, sig_digits):
    header, rows = report.to_rows()
    csv_path = session.write_csv(f"{name}.csv", header, [
        [x if isinstance(x, str) else _fmt(x, sig_digits) for x in row]
        for row in rows])
    session.write_json(f"{name}.meta.json", {
        "meta": _meta(cfg, t0),
        "critical_values": jsonable(vars(report.cv)),
        "reps": report.reps,
        "master_seed": report.master_seed,
        "cells": [c.label for c in report.cells],
    })
    return csv_path


def cmd_reproduce(args) -> int:
    cfg = load_config(args)
    t0 = time.perf_counter()
    target = cfg["target"]
    scale = cfg.get("scale", 1.0)
    seed = cfg.get("master_seed", 0)
    threads = cfg.get("threads")
    sig_digits = cfg.get("precision", 10)
    reps = max(int(round(_BASE_REPS[target] * scale)), 1)
    with OutputSession(args.out) as session:
        if target.startswith("table"):
            cv = _critical_values_from_cfg(cfg, threads)
            grid = default_grid()
            if target == "table1":
                report = run_size_experiment(grid, reps, cv, seed, threads)
            else:
                clusters = {"table2": 2, "table3": 3, "table4": 4}[target]
                report = run_power_experiment(clusters, grid, reps, cv, seed,
                                              threads)
            path = _write_table(session, target, report, cfg, t0, sig_digits)
        elif target == "figure1":
            path = _nonuniversality(session, cfg, reps, t0)
        else:  # figure2
            path = _figure2(session, reps, seed, cfg, t0, sig_digits)
    print(path)
    return 0


def _figure2(session, reps, seed, cfg, t0, sig_digits):
    """Null/alternative DS and RS samples for M in {100, 200, 400}, N = 2M."""
    k_star = 4
    law = make_noise_law("gaussian")
    rows = []
    for mi, m_dim in enumerate((100, 200, 400)):
        n_dim = 2 * m_dim
        c1 = np.zeros(m_dim)
        c1[0] = 1.5
        sigma = make_covariance("identity", m_dim)
        for hi, hypothesis in enumerate(("null", "alt")):
            centers = np.column_stack([c1, -c1]) if hypothesis == "alt" else None
            scenario = Scenario(m_dim, n_dim, law, sigma, centers=centers)

            def one(rep, _s=scenario, _mi=mi, _hi=hi):
                return ds_rs_from_data(draw_data(_s, stream(seed, _mi, _hi, rep)),
                                       k_star)

            stats = parallel_map(one, range(reps), cfg.get("threads"))
            for stat_idx, stat_name in ((0, "DS"), (1, "RS")):
                vals = np.array([s[stat_idx] for s in stats])
                rows += [(m_dim, hypothesis, stat_name, *row)
                         for row in _histogram_rows(vals, sig_digits)]
    csv_path = session.write_csv(
        "figure2_hist.csv",
        ("dim", "hypothesis", "statistic", "bin_left", "bin_right", "count"), rows)
    session.write_json("figure2.meta.json", {"meta": _meta(cfg, t0),
                                             "reps": reps,
                                             "master_seed": seed})
    return csv_path


def cmd_verify(args) -> int:
    cfg = load_config(args)
    t0 = time.perf_counter()
    report = run_verification(
        n_small=cfg.get("samples", 200), seeds=cfg.get("seeds", 50),
        master_seed=cfg.get("master_seed", 0), workers=cfg.get("threads"),
    )
    with OutputSession(args.out) as session:
        p = session.write_json("verification.json",
                               {**report.to_jsonable(), "meta": _meta(cfg, t0)})
    print(p)
    for name, chk in report.checks.items():
        print(f"{'PASS' if chk['passed'] else 'FAIL'} {name}")
    if not report.all_passed:
        raise VerificationFailure("one or more verification checks failed")
    return 0


# -- entry point ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a config error (exit 1, one line)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spikelab",
        description="Spectral theory and Monte-Carlo validation for spiked "
                    "signal-plus-noise matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, seeded=True, reps=False):
        """Subcommand taking --config, --out and only the flags it reads."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, help="master seed (overrides config)")
            p.add_argument("--threads", type=int, help="worker threads")
        if reps:
            p.add_argument("--reps", type=int, help="replications (overrides config)")
        p.set_defaults(func=func)
        return p

    command("theory", cmd_theory, "deterministic spike theory report",
            seeded=False)
    command("simulate", cmd_simulate, "seeded spike Monte Carlo to CSV", reps=True)
    command("nonuniversality", cmd_nonuniversality,
            "additive vs multiplicative spike histograms per law", reps=True)

    p = command("calibrate", cmd_calibrate, "critical values via null Monte Carlo",
                reps=True)
    p.add_argument("--kstar", type=int, help="cluster-count bound K*")
    p.add_argument("--nstar", type=int, help="null ensemble dimension")
    p.add_argument("--quantile", type=float, help="quantile level (default 0.95)")

    command("test", cmd_test, "run the heterogeneity test on data")

    p = command("reproduce", cmd_reproduce, "regenerate published tables/figures")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--table", dest="target", type="table{}".format,
                        choices=[f"table{i}" for i in (1, 2, 3, 4)])
    target.add_argument("--figure", dest="target", type="figure{}".format,
                        choices=["figure1", "figure2"])
    p.add_argument("--scale", type=float,
                   help="replication scale factor (1.0 = published count)")

    p = command("verify", cmd_verify, "run the local-law verification battery")
    p.add_argument("--n", type=int, help="small size N (protocol compares N, 4N)")
    p.add_argument("--seeds", type=int, help="seeds per size")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except SpikelabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
