"""Mean-heterogeneity detection via eigenvalue-difference ratios.

Tests H0: one cluster against H1: up to K* clusters using two statistics on
the top sample eigenvalues,

    DS = (l_1 - l_K*) / (l_K* - l_{2K*-1})
    RS = (l_1 - l_K*) / (l_K* - l_{K*+1}),

both pivotal under H0 (no edge-scale estimation needed).  Critical values
come from a seeded Wishart Monte Carlo; the experiment harness reproduces
the published size/power tables at configurable replication counts.

Calibration note: the reference procedure's step computing only K*+1 null
eigenvalues is inconsistent with its own ratio indexing (nu_7 needs seven),
and its two displayed statistics coincide verbatim.  The only reading
consistent with the DS/RS definitions is adopted here: compute 2K*-1
eigenvalues, use the (nu_4 - nu_7) denominator for DS and (nu_4 - nu_5)
for RS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError, DomainError
from .spectra import CovarianceModel, make_covariance
from .ensemble import (
    NoiseLaw,
    equal_split_labels,
    make_noise_law,
    parallel_map,
    stream,
    top_eigs,
)


def ds_rs_stats(eigs, k_star: int):
    """Both ratio statistics from a descending eigenvalue vector.

    Returns 0 for a zero numerator (the K* = 1 boundary); raises on a zero
    denominator with a nonzero numerator (degenerate spectrum).
    """
    eigs = np.asarray(eigs, dtype=float)
    needed = 2 * k_star - 1
    if eigs.shape[0] < needed:
        raise DomainError(f"need at least {needed} eigenvalues, got {eigs.shape[0]}")
    if (np.diff(eigs) > 0).any():
        raise DomainError("eigenvalues must be sorted descending")
    if k_star == 1:
        return 0.0, 0.0  # numerator l_1 - l_1 is structurally zero
    num = eigs[0] - eigs[k_star - 1]
    den_ds = eigs[k_star - 1] - eigs[2 * k_star - 2]
    den_rs = eigs[k_star - 1] - eigs[k_star]
    if den_ds == 0.0 or den_rs == 0.0:
        raise DegenerateSpectrumError(
            "tied eigenvalues give a zero denominator in the ratio statistic"
        )
    return float(num / den_ds), float(num / den_rs)


def ds_rs_from_data(data: np.ndarray, k_star: int):
    """(DS, RS) of an M x N data matrix whose columns are observations: the
    top 2K*-1 eigenvalues of (data / sqrt(N)) (data / sqrt(N))^T fed to
    ``ds_rs_stats``."""
    eigs = top_eigs(data / math.sqrt(data.shape[1]), 2 * k_star - 1)
    return ds_rs_stats(eigs, k_star)


@dataclass(frozen=True)
class CriticalValues:
    """Monte-Carlo critical values of the two statistics under the null."""

    k_star: int
    n_star: int
    reps: int
    quantile: float
    cv_ds: float
    cv_rs: float
    master_seed: int


def nearest_rank_quantile(values, q: float) -> float:
    """Distribution-free nearest-rank quantile (no interpolation)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    idx = max(int(math.ceil(q * ordered.shape[0])) - 1, 0)
    return float(ordered[idx])


def calibrate(k_star: int, n_star: int, reps: int, quantile: float = 0.95,
              master_seed: int = 0, workers=None) -> CriticalValues:
    """Calibrate critical values from a null Wishart ensemble.

    Each replication draws an n* x n* standard Gaussian matrix through
    ``draw_data`` and forms both statistics with ``ds_rs_from_data``; the
    cutoffs are nearest-rank quantiles of the two Monte-Carlo samples.
    Bit-identical given (all fields, master_seed).
    """
    if reps < 100:
        raise ConfigError("calibration needs at least 100 replications")
    if k_star < 2:
        raise ConfigError("k_star must be >= 2")
    if n_star < 2 * k_star - 1:
        raise ConfigError(f"n_star={n_star} is below 2K*-1 = {2 * k_star - 1}")
    null = Scenario(n_star, n_star, make_noise_law("gaussian"),
                    make_covariance("identity", n_star))

    def one(rep):
        return ds_rs_from_data(draw_data(null, stream(master_seed, rep)), k_star)

    pairs = parallel_map(one, range(reps), workers)
    ds_vals = [p[0] for p in pairs]
    rs_vals = [p[1] for p in pairs]
    return CriticalValues(
        k_star=k_star, n_star=n_star, reps=reps, quantile=quantile,
        cv_ds=nearest_rank_quantile(ds_vals, quantile),
        cv_rs=nearest_rank_quantile(rs_vals, quantile),
        master_seed=master_seed,
    )


@dataclass(frozen=True)
class DetectionResult:
    ds: float
    rs: float
    reject_ds: bool
    reject_rs: bool
    k_star: int


def detect(data, k_star: int, cv: CriticalValues,
           center: bool = False) -> DetectionResult:
    """Run both tests on an M x N data matrix (columns are observations).

    The statistics come from ``ds_rs_from_data``.  ``center`` subtracts the
    mean observation first (off for table reproduction, which assumes
    centered populations).
    """
    if k_star < 2:
        raise ConfigError("detection requires k_star >= 2")
    data = np.asarray(data, dtype=float)
    if center:
        data = data - data.mean(axis=1, keepdims=True)
    ds, rs = ds_rs_from_data(data, k_star)
    return DetectionResult(ds, rs, ds >= cv.cv_ds, rs >= cv.cv_rs, k_star)


# -- experiment harness ---------------------------------------------------

#: covariance forms used by the published tables
SIGMA_RECIPES = ("identity", "toeplitz", "haar")
LAW_KINDS = ("gaussian", "uniform-sym")
SHAPES = ((200, 100), (100, 200))  # (N, M)


@dataclass(frozen=True)
class ScenarioCell:
    sigma: str
    law: str
    n: int
    m: int

    @property
    def label(self):
        return f"{self.sigma}/{self.law}/({self.n},{self.m})"


def default_grid(sigmas=SIGMA_RECIPES, laws=LAW_KINDS, shapes=SHAPES):
    return [ScenarioCell(s, l, n, m) for s in sigmas for l in laws
            for (n, m) in shapes]


@dataclass(frozen=True)
class ExperimentReport:
    """Rejection rates per scenario cell, with full regeneration metadata."""

    kind: str                       # size | power
    cells: tuple
    rates_ds: np.ndarray
    rates_rs: np.ndarray
    reps: int
    cv: CriticalValues
    master_seed: int
    clusters: int | None = None
    center_scale: float = 1.0

    def rate(self, cell_idx: int, statistic: str) -> float:
        return float((self.rates_ds if statistic == "DS" else self.rates_rs)[cell_idx])

    def to_rows(self):
        """Pivot into the published table layout: one row per
        (sigma, statistic), one column per (law, shape)."""
        sigmas = list(dict.fromkeys(c.sigma for c in self.cells))
        columns = list(dict.fromkeys((c.law, c.n, c.m) for c in self.cells))
        header = ["sigma", "statistic"] + [f"{l}_{n}x{m}" for (l, n, m) in columns]
        index = {(c.sigma, c.law, c.n, c.m): i for i, c in enumerate(self.cells)}
        rows = []
        for s in sigmas:
            for stat, rates in (("DS", self.rates_ds), ("RS", self.rates_rs)):
                row = [s, stat]
                for (l, n, m) in columns:
                    i = index.get((s, l, n, m))
                    row.append("" if i is None else float(rates[i]))
                rows.append(row)
        return header, rows


def draw_centers(k, m, rng, scale):
    """Cluster centers for the power scenarios; the last center balances the
    others so the population mean is zero."""
    if k == 2:
        c1 = rng.uniform(0.0, 0.3, size=m)
        centers = np.column_stack([c1, -c1])
    elif k == 3:
        c1 = rng.uniform(0.0, 0.4, size=m)
        c2 = rng.uniform(-0.3, 0.0, size=m)
        centers = np.column_stack([c1, c2, -(c1 + c2)])
    elif k == 4:
        c1 = rng.uniform(0.0, 0.45, size=m)
        c2 = rng.uniform(-0.3, 0.0, size=m)
        c3 = rng.uniform(-0.1, 0.2, size=m)
        centers = np.column_stack([c1, c2, c3, -(c1 + c2 + c3)])
    else:
        raise ConfigError(f"no center recipe for K={k}")
    return scale * centers


@dataclass(frozen=True)
class Scenario:
    """The M x N mixture ``S + Sigma^(1/2) X`` that ``draw_data`` draws.

    ``sigma`` is a covariance, or the Unif(a, b) eigenvalue bounds of a Haar
    covariance redrawn per draw.  Fixed ``centers`` (M x K) win over
    ``clusters`` >= 2 centres redrawn per draw by ``draw_centers``; else noise.
    """

    m: int
    n: int
    law: NoiseLaw
    sigma: CovarianceModel | tuple[float, float]
    clusters: int = 0
    center_scale: float = 1.0
    centers: np.ndarray | None = None


def draw_data(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """One draw of the scenario's data matrix (columns are observations).

    Consumes ``rng`` in a fixed order: centres, then noise, then the Haar
    covariance.
    """
    s = scenario
    centers = s.centers
    if centers is None and s.clusters >= 2:
        centers = draw_centers(s.clusters, s.m, rng, s.center_scale)
    noise = s.law.sample(rng, (s.m, s.n))
    sigma = s.sigma
    if isinstance(sigma, tuple):
        sigma = make_covariance("haar", s.m, seed=rng, bounds=sigma)
    data = sigma.sqrt_matmat(noise)
    if centers is not None:
        data += centers[:, equal_split_labels(s.n, centers.shape[1])]
    return data


def _run_cells(grid, reps, cv, master_seed, workers, clusters=0,
               center_scale=1.0):
    rates_ds = np.empty(len(grid))
    rates_rs = np.empty(len(grid))
    for c_idx, cell in enumerate(grid):
        if cell.sigma not in SIGMA_RECIPES:
            raise ConfigError(
                f"unknown covariance recipe {cell.sigma!r} for experiments")
        sigma = ((1.0, 1.5) if cell.sigma == "haar"  # redrawn by every draw_data
                 else make_covariance(cell.sigma, cell.m, rho=0.1))
        scenario = Scenario(cell.m, cell.n, make_noise_law(cell.law), sigma,
                            clusters, center_scale)

        def one(rep, _scenario=scenario, _c=c_idx):
            data = draw_data(_scenario, stream(master_seed, _c, rep))
            res = detect(data, cv.k_star, cv)
            return res.reject_ds, res.reject_rs

        outcomes = parallel_map(one, range(reps), workers)
        rates_ds[c_idx] = sum(o[0] for o in outcomes) / reps if reps else 0.0
        rates_rs[c_idx] = sum(o[1] for o in outcomes) / reps if reps else 0.0
    return rates_ds, rates_rs


def run_size_experiment(grid, reps: int, cv: CriticalValues, master_seed: int,
                        workers=None) -> ExperimentReport:
    """Null rejection rates over the scenario grid (nominal level 1 - q)."""
    rates_ds, rates_rs = _run_cells(grid, reps, cv, master_seed, workers)
    return ExperimentReport("size", tuple(grid), rates_ds, rates_rs, reps, cv,
                            master_seed)


def run_power_experiment(clusters: int, grid, reps: int, cv: CriticalValues,
                         master_seed: int, workers=None,
                         center_scale: float = 1.0) -> ExperimentReport:
    """Alternative rejection rates with K balanced clusters.

    Centers are redrawn each replication from the replication's own stream
    (averaging over signal configurations); cluster assignment uses exact
    deterministic proportions.  ``center_scale`` multiplies all centers,
    for signal-strength sweeps.
    """
    rates_ds, rates_rs = _run_cells(grid, reps, cv, master_seed, workers,
                                    clusters, center_scale)
    return ExperimentReport("power", tuple(grid), rates_ds, rates_rs, reps, cv,
                            master_seed, clusters=clusters,
                            center_scale=center_scale)
