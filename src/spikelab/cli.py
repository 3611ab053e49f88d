"""Batch command-line front end.

Subcommands: theory, simulate, nonuniversality, calibrate, test, reproduce,
verify.  Configuration is JSON checked against ``CONFIG_SCHEMAS`` by this
module's validator of the JSON Schema keywords they use (jsonschema is only the
tests' oracle), unknown keys rejected; every output embeds (directly or through
its JSON sidecar) the exact configuration and master seed that regenerate it.

Exit codes: 0 ok, 1 config error, 2 numerical failure or out of memory,
3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import operator
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .errors import ConfigError, SpikelabError, VerificationFailure
from .spectra import make_covariance
from .stieltjes import check_assumptions
from .spikes import (
    SignalModel,
    asymptotic_quantities,
    deform,
    delocalization_profile,
)
from .ensemble import make_noise_law, mixture_signal, run_spike_mc, stream
from .hetero import (
    CriticalValues,
    Scenario,
    calibrate,
    default_grid,
    detect,
    draw_centers,
    draw_data,
    figure2_samples,
    run_power_experiment,
    run_size_experiment,
)
from .verification import jsonable, run_verification

# -- config schemas -------------------------------------------------------


def _tagged(key: str, variants: dict) -> dict:
    """Schema of a block whose ``key`` names one of ``variants`` (tag ->
    (properties, required keys)), each variant admitting only its own keys.

    One if/then per tag, rather than a oneOf, lets a bad value inside a
    block report its own field instead of "not valid under any of the given
    schemas".
    """
    return {
        "type": "object",
        "properties": {key: {"enum": list(variants)}},
        "required": [key],
        "allOf": [
            {"if": {"properties": {key: {"const": tag}}, "required": [key]},
             "then": {"properties": {key: {}, **props},
                      "required": [key, *required], "additionalProperties": False}}
            for tag, (props, required) in variants.items()
        ],
    }


_COVARIANCE_SCHEMA = _tagged("recipe", {
    "identity": ({"dim": {"type": "integer", "minimum": 1}}, ["dim"]),
    "diagonal": ({"dim": {"type": "integer", "minimum": 1},
                  "entries": {"type": "array", "items": {"type": "number"}}},
                 ["dim", "entries"]),
    "toeplitz": ({"dim": {"type": "integer", "minimum": 1},
                  "rho": {"type": "number"}},
                 ["dim", "rho"]),
    "haar": ({"dim": {"type": "integer", "minimum": 1},
              "bounds": {"type": "array", "items": {"type": "number"},
                         "minItems": 2, "maxItems": 2},
              "seed": {"type": "integer", "minimum": 0}},
             ["dim", "bounds", "seed"]),
    "dense": ({"dim": {"type": "integer", "minimum": 1},
               "matrix": {"type": "array"}},
              ["dim", "matrix"]),
})

_SIGNAL_SCHEMA = _tagged("kind", {
    "localized": ({"strength_sq": {"type": "number", "exclusiveMinimum": 0},
                   "row": {"type": "integer", "minimum": 0},
                   "col": {"type": "integer", "minimum": 0}},
                  ["strength_sq"]),
    "random-svd": ({"strengths": {"type": "array",
                                  "items": {"type": "number"}, "minItems": 1},
                    "seed": {"type": "integer", "minimum": 0}},
                   ["strengths", "seed"]),
    "mixture": ({"clusters": {"type": "integer", "minimum": 2, "maximum": 4},
                 "seed": {"type": "integer", "minimum": 0},
                 "scale": {"type": "number"}},
                ["clusters", "seed"]),
    "mixture-explicit": ({"centers": {"type": "array"},
                          "assignment": {"type": "string"}},
                         ["centers"]),
})

_NOISE_SCHEMA = _tagged("kind", {
    **{kind: ({}, []) for kind in ("gaussian", "uniform-sym", "three-point",
                                    "four-point", "shifted-exponential")},
    "discrete": ({"atoms": {"type": "array", "items": {"type": "number"}},
                  "probs": {"type": "array", "items": {"type": "number"}}},
                 ["atoms", "probs"]),
})

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
_MODEL = {
    "covariance": _COVARIANCE_SCHEMA,
    "signal": _SIGNAL_SCHEMA,
    "noise": _NOISE_SCHEMA,
    "samples": {"type": "integer", "minimum": 1},
    "tau": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
}

CONFIG_SCHEMAS = {
    "theory": {
        "type": "object",
        "properties": {**_MODEL, **_PRECISION},
        "required": ["covariance", "signal", "samples"],
        "additionalProperties": False,
    },
    "simulate": {
        "type": "object",
        "properties": {
            **_MODEL,
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

# -- config validation ----------------------------------------------------
# jsonschema's wording for the keywords CONFIG_SCHEMAS uses.  A bool is neither
# an integer nor a number, an integral float is an integer; enums hold strings.

_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "number": (int, float), "integer": int}
_BOUNDS = {"minimum": (operator.lt, "less than the minimum of"),
           "maximum": (operator.gt, "greater than the maximum of"),
           "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
           "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of")}


def _is_type(value, name: str) -> bool:
    if isinstance(value, bool):
        return name == "boolean"
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _JSON_TYPES[name])


def _schema_errors(schema: dict, value, path=()):
    """(path, message) for each way ``value`` breaks ``schema``, in jsonschema's
    order.  An integral float in a checked ``integer`` field becomes an int."""
    is_dict, is_list = isinstance(value, dict), isinstance(value, list)
    for key, rule in schema.items():
        if key == "type" and not _is_type(value, rule):
            yield path, f"{value!r} is not of type {rule!r}"
        elif key == "enum" and value not in rule:
            yield path, f"{value!r} is not one of {rule!r}"
        elif key == "const" and value != rule:
            yield path, f"{rule!r} was expected"
        elif key in _BOUNDS and _is_type(value, "number") and _BOUNDS[key][0](value, rule):
            yield path, f"{value!r} is {_BOUNDS[key][1]} {rule!r}"
        elif key == "required" and is_dict:
            yield from ((path, f"{name!r} is a required property")
                        for name in rule if name not in value)
        elif key == "properties" and is_dict:
            for name, sub in rule.items():
                if name in value:
                    yield from _schema_errors(sub, value[name], (*path, name))
                    if sub.get("type") == "integer" and _is_type(value[name], "integer"):
                        value[name] = int(value[name])
        elif key == "additionalProperties" and is_dict:
            extra = sorted(name for name in value if name not in schema["properties"])
            if extra:
                yield path, ("Additional properties are not allowed ("
                             f"{', '.join(map(repr, extra))} "
                             f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        elif key == "items" and is_list:
            for i, item in enumerate(value):
                yield from _schema_errors(rule, item, (*path, i))
        elif key == "minItems" and is_list and len(value) < rule:
            yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif key == "maxItems" and is_list and len(value) > rule:
            yield path, f"{value!r} is too long"
        elif key == "allOf":
            for sub in rule:
                yield from _schema_errors(sub, value, path)
        elif key == "if" and not any(_schema_errors(rule, value, path)):
            yield from _schema_errors(schema["then"], value, path)


_BASE_REPS = {"table1": 10000, "table2": 10000, "table3": 10000,
              "table4": 10000, "figure1": 5000, "figure2": 5000}
_DEFAULT_CALIBRATION = {"k_star": 4, "n_star": 100, "reps": 30000,
                        "quantile": 0.95, "master_seed": 0}


def load_config(args) -> dict:
    """The subcommand's JSON config with its command-line flags applied: each
    flag's ``dest`` is the config key it sets."""
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
    keys = CONFIG_SCHEMAS[args.command]["properties"]
    cfg.update((key, value) for key, value in vars(args).items()
               if value is not None and key in keys)
    for bad in _non_finite_fields(cfg):
        raise ConfigError(f"config field {'/'.join(map(str, bad))}: not a finite number")
    # the first error at the shallowest field; best_match too prefers the shallowest
    errors = list(_schema_errors(CONFIG_SCHEMAS[args.command], cfg))
    if errors:
        path, message = min(errors, key=lambda error: len(error[0]))
        raise ConfigError(f"config field {'/'.join(map(str, path)) or '<root>'}: {message}")
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
        if k > min(m_dim, n_dim):
            raise ConfigError(f"random-svd has {k} strengths, but a {m_dim}x{n_dim} "
                              f"signal has rank at most {min(m_dim, n_dim)}")
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
    """The one writer of a command run on ``cfg``: it tracks the files it
    writes and, used as a context manager, removes them when the block raises,
    except on a ``VerificationFailure``, whose report is the result.  It starts
    the run's clock when it opens, and ``meta`` is the run record every output
    embeds.  ``sig`` is the run's significant digits (config ``precision``)."""

    def __init__(self, out_dir: str, cfg: dict):
        self.out_dir = out_dir
        self.cfg = cfg
        self.sig = cfg.get("precision", 10)
        self.paths: list[str] = []
        self.t0 = time.perf_counter()

    def meta(self) -> dict:
        return {"config": self.cfg, "version": __version__,
                "stream_version": 2,   # 2: white Gaussian nulls drawn bidiagonally
                "wall_time_s": round(time.perf_counter() - self.t0, 3)}

    def _path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        p = os.path.join(self.out_dir, name)
        self.paths.append(p)
        return p

    def write_json(self, name: str, payload: dict) -> str:
        p = self._path(name)
        with open(p, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return p

    def write_csv(self, name: str, header, rows) -> str:
        """One line per row; a float (numpy's too) at ``sig`` significant
        digits, anything else as ``str``."""
        p = self._path(name)
        spec = f".{self.sig}g"
        with open(p, "w") as fh:
            for row in [header, *rows]:
                fh.write(",".join(format(x, spec) if isinstance(x, float) else str(x)
                                  for x in row) + "\n")
        return p

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and not issubclass(exc_type, VerificationFailure):
            for p in self.paths:
                with contextlib.suppress(OSError):
                    os.remove(p)


# -- subcommand handlers --------------------------------------------------
# Each takes the validated config and the command's OutputSession; it
# computes, writes, prints.


def cmd_theory(cfg: dict, session: OutputSession):
    sigma = build_covariance(cfg["covariance"])
    n_dim = cfg["samples"]
    signal = build_signal(cfg["signal"], sigma.dim, n_dim)
    law = build_noise(cfg.get("noise"))
    tau = cfg.get("tau", 0.01)

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
    print(session.write_json("theory_report.json", {
        "report": jsonable(report, session.sig), "meta": session.meta()}))


def cmd_simulate(cfg: dict, session: OutputSession):
    sigma = build_covariance(cfg["covariance"])
    n_dim = cfg["samples"]
    signal = build_signal(cfg["signal"], sigma.dim, n_dim)
    samples = run_spike_mc(
        sigma, signal, build_noise(cfg.get("noise")), cfg["reps"],
        cfg.get("master_seed", 0), model=cfg.get("model", "additive"),
        couple_theta=cfg.get("couple_theta", False), n_top=cfg.get("n_top"),
        tau=cfg.get("tau", 0.01), workers=cfg.get("threads"))
    csv_path = samples.to_csv(session, "spike_samples.csv")
    meta = session.meta()
    meta["theta"] = jsonable(samples.theory.theta) if samples.theory else None
    meta["K0"] = int(samples.fluctuations.shape[1])
    session.write_json("spike_samples.meta.json", meta)
    print(csv_path)


def _histogram_rows(values: np.ndarray) -> list:
    """(bin_left, bin_right, count) rows over Freedman-Diaconis bins."""
    q75, q25 = np.percentile(values, [75, 25])
    span = float(np.ptp(values))
    width = 2.0 * (q75 - q25) / len(values) ** (1.0 / 3.0)
    if width <= 0:
        width = max(span, 1.0) / 10.0
    nbins = max(int(math.ceil(span / width)), 1)
    counts, edges = np.histogram(values, bins=nbins, range=(values.min(), values.max()))
    return [(edges[i], edges[i + 1], int(c)) for i, c in enumerate(counts)]


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic: max |i n_b - j n_a| / (n_a n_b) over the pool."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    i, j = (np.searchsorted(x, pooled, side="right") for x in (a, b))
    return int(np.abs(i * len(b) - j * len(a)).max()) / (len(a) * len(b))


def cmd_nonuniversality(cfg: dict, session: OutputSession):
    print(_nonuniversality(session, cfg, cfg.get("reps", 2000)))


def _nonuniversality(session, cfg, reps):
    """Spike histograms and pairwise KS distances per law and model; also
    the body of ``reproduce --figure 1``, whose config holds no model keys."""
    m_dim = cfg.get("dim", 200)
    n_dim = cfg.get("samples", 400)
    laws = cfg.get("laws", ["gaussian", "three-point", "four-point"])
    seed = cfg.get("master_seed", 0)

    sigma = build_covariance({"recipe": "identity", "dim": m_dim})
    signal = SignalModel.localized(math.sqrt(cfg.get("strength_sq", 5.25)),
                                  m_dim, n_dim)
    results = {}
    for li, law_kind in enumerate(laws):
        for mi, model in enumerate(("additive", "multiplicative")):
            results[(law_kind, model)] = run_spike_mc(
                sigma, signal, make_noise_law(law_kind), reps,
                seed + 1000 * li + 100 * mi, model=model,
                workers=cfg.get("threads")).lambdas[:, 0]

    hist_path = session.write_csv(
        "nonuniversality_hist.csv", ("law", "model", "bin_left", "bin_right", "count"),
        [(law_kind, model, *row) for (law_kind, model), lam in sorted(results.items())
         for row in _histogram_rows(lam)])
    ks = {model: {f"{la}|{lb}": _ks_distance(results[(la, model)],
                                             results[(lb, model)])
                  for la, lb in itertools.combinations(laws, 2)}
          for model in ("additive", "multiplicative")}
    session.write_json("nonuniversality_ks.json",
                       {"ks": jsonable(ks, session.sig), "meta": session.meta()})
    return hist_path


def cmd_calibrate(cfg: dict, session: OutputSession):
    cv = calibrate(cfg["k_star"], cfg["n_star"], cfg["reps"],
                   cfg.get("quantile", 0.95), cfg.get("master_seed", 0),
                   workers=cfg.get("threads"))
    print(session.write_json("critical_values.json",
                             {"critical_values": jsonable(vars(cv)),
                              "meta": session.meta()}))
    print(f"cv_DS={cv.cv_ds:.6g} cv_RS={cv.cv_rs:.6g}")


def _critical_values_from_cfg(cfg: dict) -> CriticalValues:
    if "critical_values" in cfg and "calibration" in cfg:
        raise ConfigError("give critical_values or calibration, not both")
    if "critical_values" in cfg:
        cvs = cfg["critical_values"]
        return CriticalValues(k_star=cfg["k_star"], n_star=0, reps=0,
                              quantile=0.95, cv_ds=cvs["cv_ds"],
                              cv_rs=cvs["cv_rs"], master_seed=0)
    cal = {**_DEFAULT_CALIBRATION, **cfg.get("calibration", {})}
    k_star = cfg.get("k_star", cal["k_star"])
    return calibrate(k_star, cal["n_star"], cal["reps"],
                     cal["quantile"], cal["master_seed"], workers=cfg.get("threads"))


def cmd_test(cfg: dict, session: OutputSession):
    if cfg.get("calibration", cfg)["k_star"] != cfg["k_star"]:
        raise ConfigError(f"k_star={cfg['k_star']} disagrees with calibration/k_star="
                          f"{cfg['calibration']['k_star']}")
    if "data_csv" in cfg:
        data = _load_data_csv(cfg["data_csv"])
    elif "generate" in cfg:
        gen = cfg["generate"]
        sigma = build_covariance(gen["covariance"])
        scenario = Scenario(sigma.dim, gen["samples"], build_noise(gen.get("noise")),
                            sigma, gen.get("clusters", 0),
                            gen.get("center_scale", 1.0))
        data = draw_data(scenario, [stream(cfg.get("master_seed", 0), 0)])[0]
    else:
        raise ConfigError("test needs either data_csv or generate")
    if min(data.shape) < 2 * cfg["k_star"] - 1:
        raise ConfigError(f"test data is {data.shape[0]}x{data.shape[1]}; K*="
                          f"{cfg['k_star']} needs {2 * cfg['k_star'] - 1} rows and columns")
    cv = _critical_values_from_cfg(cfg)
    result = detect(data, cfg["k_star"], cv, center=cfg.get("center", False))
    print(session.write_json("detection.json", {
        "decision": jsonable(vars(result)),
        "critical_values": jsonable(vars(cv)),
        "meta": session.meta(),
    }))
    print(f"DS={result.ds:.6g} (reject={result.reject_ds}) "
          f"RS={result.rs:.6g} (reject={result.reject_rs})")


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


def _write_table(session, name, report):
    csv_path = session.write_csv(f"{name}.csv", *report.to_rows())
    session.write_json(f"{name}.meta.json", {
        "meta": session.meta(),
        "critical_values": jsonable(vars(report.cv)),
        "reps": report.reps,
        "master_seed": report.master_seed,
        "cells": [c.label for c in report.cells],
    })
    return csv_path


def cmd_reproduce(cfg: dict, session: OutputSession):
    target = cfg["target"]
    scale = cfg.get("scale", 1.0)
    seed = cfg.get("master_seed", 0)
    threads = cfg.get("threads")
    reps = max(int(round(_BASE_REPS[target] * scale)), 1)
    if target.startswith("table"):
        cv = _critical_values_from_cfg(cfg)
        grid = default_grid()
        if target == "table1":
            report = run_size_experiment(grid, reps, cv, seed, threads)
        else:
            clusters = {"table2": 2, "table3": 3, "table4": 4}[target]
            report = run_power_experiment(clusters, grid, reps, cv, seed, threads)
        path = _write_table(session, target, report)
    elif target == "figure1":
        path = _nonuniversality(session, cfg, reps)
    else:  # figure2
        path = _figure2(session, reps, seed, threads)
    print(path)


def _figure2(session, reps, seed, threads):
    """Histograms of the null/alternative DS and RS samples of figure 2."""
    rows = []
    for m_dim, hypothesis, ds, rs in figure2_samples(reps, seed, threads):
        for stat_name, vals in (("DS", ds), ("RS", rs)):
            rows += [(m_dim, hypothesis, stat_name, *row)
                     for row in _histogram_rows(vals)]
    csv_path = session.write_csv(
        "figure2_hist.csv",
        ("dim", "hypothesis", "statistic", "bin_left", "bin_right", "count"), rows)
    session.write_json("figure2.meta.json", {"meta": session.meta(),
                                             "reps": reps,
                                             "master_seed": seed})
    return csv_path


def cmd_verify(cfg: dict, session: OutputSession):
    report = run_verification(
        n_small=cfg.get("samples", 200), seeds=cfg.get("seeds", 50),
        master_seed=cfg.get("master_seed", 0), workers=cfg.get("threads"),
    )
    print(session.write_json("verification.json",
                             {**report.to_jsonable(), "meta": session.meta()}))
    for name, chk in report.checks.items():
        print(f"{'PASS' if chk['passed'] else 'FAIL'} {name}")
    if not report.all_passed:
        raise VerificationFailure("one or more verification checks failed")


# -- entry point ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a config error (exit 1, one line)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and reused by every later
    ``main`` call in the process."""
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
            p.add_argument("--seed", dest="master_seed", type=int,
                           help="master seed (overrides config)")
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
    p.add_argument("--kstar", dest="k_star", type=int, help="cluster-count bound K*")
    p.add_argument("--nstar", dest="n_star", type=int, help="null ensemble dimension")
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
    p.add_argument("--n", dest="samples", type=int,
                   help="small size N (protocol compares N, 4N)")
    p.add_argument("--seeds", type=int, help="seeds per size")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args)
        with OutputSession(args.out, cfg) as session:
            args.func(cfg, session)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except SpikelabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
