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
from .spectra import CovarianceModel, haar_orthogonal, make_covariance
from .ensemble import (
    NoiseLaw,
    equal_split_labels,
    make_noise_law,
    map_chunks,
    rep_bytes,
    top_eigs,
)


def ds_rs_stats(eigs, k_star: int):
    """Both ratio statistics from descending eigenvalues.

    ``eigs`` is one vector, giving two floats, or a stack of shape (..., r),
    giving two arrays of shape (...).  Returns 0 for a zero numerator (the
    K* = 1 boundary); raises on a zero denominator (degenerate spectrum).
    """
    eigs = np.asarray(eigs, dtype=float)
    needed = 2 * k_star - 1
    if eigs.shape[-1] < needed:
        raise DomainError(f"need at least {needed} eigenvalues, got {eigs.shape[-1]}")
    if (np.diff(eigs, axis=-1) > 0).any():
        raise DomainError("eigenvalues must be sorted descending")
    if k_star == 1:  # numerator l_1 - l_1 is structurally zero
        ds, rs = np.zeros(eigs.shape[:-1]), np.zeros(eigs.shape[:-1])
    else:
        num = eigs[..., 0] - eigs[..., k_star - 1]
        den_ds = eigs[..., k_star - 1] - eigs[..., 2 * k_star - 2]
        den_rs = eigs[..., k_star - 1] - eigs[..., k_star]
        if (den_ds == 0.0).any() or (den_rs == 0.0).any():
            raise DegenerateSpectrumError(
                "tied eigenvalues give a zero denominator in the ratio statistic"
            )
        ds, rs = num / den_ds, num / den_rs
    return (float(ds), float(rs)) if eigs.ndim == 1 else (ds, rs)


def ds_rs_from_data(data: np.ndarray, k_star: int):
    """(DS, RS) of an M x N data matrix whose columns are observations, or of
    each matrix of a stack (..., M, N): the top 2K*-1 eigenvalues of
    (data / sqrt(N)) (data / sqrt(N))^T fed to ``ds_rs_stats``."""
    eigs = top_eigs(data / math.sqrt(data.shape[-1]), 2 * k_star - 1)
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

    def rejects(self, ds, rs):
        """(DS rejects, RS rejects): each statistic at or above its cutoff."""
        return ds >= self.cv_ds, rs >= self.cv_rs


def nearest_rank_quantile(values, q: float) -> float:
    """Distribution-free nearest-rank quantile (no interpolation)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    idx = max(int(math.ceil(q * ordered.shape[0])) - 1, 0)
    return float(ordered[idx])


def calibrate(k_star: int, n_star: int, reps: int, quantile: float = 0.95,
              master_seed: int = 0, workers=None) -> CriticalValues:
    """Calibrate critical values from a null Wishart ensemble.

    Each replication draws the top 2K*-1 eigenvalues of an n* x n* white
    Wishart matrix (``null_top_eigs``) and forms both statistics from them, a
    chunk of replications at a time; the cutoffs are nearest-rank quantiles
    of the two Monte-Carlo samples.  Bit-identical given (all fields,
    master_seed), at any worker count.
    """
    if reps < 100:
        raise ConfigError("calibration needs at least 100 replications")
    if k_star < 2:
        raise ConfigError("k_star must be >= 2")
    if n_star < 2 * k_star - 1:
        raise ConfigError(f"n_star={n_star} is below 2K*-1 = {2 * k_star - 1}")
    null = Scenario(n_star, n_star, make_noise_law("gaussian"),
                    make_covariance("identity", n_star))
    ds_vals, rs_vals = _map_draws(null, k_star, reps, workers, master_seed)
    return CriticalValues(
        k_star=k_star, n_star=n_star, reps=reps, quantile=quantile,
        cv_ds=nearest_rank_quantile(ds_vals, quantile),
        cv_rs=nearest_rank_quantile(rs_vals, quantile),
        master_seed=master_seed,
    )


@dataclass(frozen=True)
class DetectionResult:
    """Both statistics and decisions: scalars for one data matrix, arrays
    over the leading axes of a stack."""

    ds: float | np.ndarray
    rs: float | np.ndarray
    reject_ds: bool | np.ndarray
    reject_rs: bool | np.ndarray
    k_star: int


def detect(data, k_star: int, cv: CriticalValues,
           center: bool = False) -> DetectionResult:
    """Run both tests on an M x N data matrix (columns are observations), or
    on each matrix of a stack (..., M, N).

    The statistics come from ``ds_rs_from_data``.  ``center`` subtracts the
    mean observation first (off for table reproduction, which assumes
    centered populations).
    """
    if k_star < 2:
        raise ConfigError("detection requires k_star >= 2")
    data = np.asarray(data, dtype=float)
    if center:
        data = data - data.mean(axis=-1, keepdims=True)
    ds, rs = ds_rs_from_data(data, k_star)
    return DetectionResult(ds, rs, *cv.rejects(ds, rs), k_star)


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

    cells: tuple
    rates_ds: np.ndarray
    rates_rs: np.ndarray
    reps: int
    cv: CriticalValues
    master_seed: int

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
    covariance O diag(s) O' redrawn per draw.  Fixed ``centers`` (M x K) win
    over ``clusters`` >= 2 centres redrawn per draw by ``draw_centers``; else
    noise.
    """

    m: int
    n: int
    law: NoiseLaw
    sigma: CovarianceModel | tuple[float, float]
    clusters: int = 0
    center_scale: float = 1.0
    centers: np.ndarray | None = None

    def __post_init__(self):
        if isinstance(self.sigma, tuple) and not 0 <= self.sigma[0] <= self.sigma[1]:
            raise ConfigError(f"haar bounds must satisfy 0 <= a <= b, got {self.sigma}")


def draw_data(scenario: Scenario, rngs) -> np.ndarray:
    """A chunk of draws of the scenario's data matrix (columns are
    observations), one per generator in ``rngs``: shape (len(rngs), M, N).

    Each draw is returned up to the left rotation V' into the eigen-
    coordinates of its covariance Sigma = V Lambda V': F X + V' S with
    F = Lambda^{1/2} V'.  The rotation keeps every singular value, and it
    commutes with removing the column mean (``detect(center=True)``).  The
    axis recipes have no V and scale rows.  Each generator is consumed in a
    fixed order: centres, then noise, then the Haar covariance's spectrum
    and Gaussian matrix.  One stacked QR builds every Haar basis O of the
    chunk, and the chunk's covariances O diag(spectrum) O', unsorted, form
    one stacked ``CovarianceModel``.
    """
    s = scenario
    haar = isinstance(s.sigma, tuple)
    redraw_centers = s.centers is None and s.clusters >= 2
    noise = np.empty((len(rngs), s.m, s.n))
    if redraw_centers:
        centers = np.empty((len(rngs), s.m, s.clusters))
    if haar:
        spectra = np.empty((len(rngs), s.m))
        gaussian = np.empty((len(rngs), s.m, s.m))
    for i, rng in enumerate(rngs):
        if redraw_centers:
            centers[i] = draw_centers(s.clusters, s.m, rng, s.center_scale)
        noise[i] = s.law.sample(rng, (s.m, s.n))
        if haar:
            spectra[i] = rng.uniform(*s.sigma, size=s.m)
            gaussian[i] = rng.standard_normal((s.m, s.m))
    if not redraw_centers:
        centers = s.centers
    sigma = (CovarianceModel("haar", spectra, haar_orthogonal(gaussian)) if haar
             else s.sigma)
    data = sigma.sqrt_coordinates(noise)
    if centers is not None:
        data += sigma.coordinates(centers)[..., equal_split_labels(s.n, centers.shape[-1])]
    return data


def null_top_eigs(scenario: Scenario, rngs, r: int) -> np.ndarray:
    """Top r eigenvalues of (X/sqrt(N))(X/sqrt(N))' for an M x N standard
    Gaussian X, one draw per generator (shape (len(rngs), r)), as those of
    B B'/N: B is p x p lower bidiagonal, diagonal chi_q, ..., chi_(q-p+1) and
    subdiagonal chi_(p-1), ..., chi_1, p = min(M, N), q = max(M, N) (Dumitriu
    & Edelman 2002); a generator draws the diagonal's chi^2, then the rest."""
    p, q = sorted((scenario.m, scenario.n))
    dofs = np.concatenate([np.arange(q, q - p, -1), np.arange(p - 1, 0, -1)])
    chi2 = np.array([rng.chisquare(dofs) / scenario.n for rng in rngs]).reshape(-1, 2 * p - 1)
    alpha2, beta2 = chi2[:, :p], chi2[:, p:]
    return _tridiagonal_top(alpha2 + np.pad(beta2, ((0, 0), (1, 0))),
                            alpha2[:, :-1] * beta2, r)


def _count_below(x, diag, off2, piv):
    """#{eigenvalues < x[j]} of the tridiagonal T_j with diagonal diag[:, j] and
    squared off-diagonal off2[:, j] > 0: its negative pivots (Sturm), written to
    ``piv``.  A zero pivot +0 makes the next one -inf: the count just below x."""
    np.subtract(diag, x, out=piv)
    with np.errstate(divide="ignore"):
        for e, prev, cur in zip(off2, piv, piv[1:]):
            cur -= e / prev
    return np.count_nonzero(piv < 0.0, axis=0)


def _tridiagonal_top(diag, off2, r: int) -> np.ndarray:
    """The r largest eigenvalues, descending, of each positive semidefinite
    tridiagonal T_b (diagonal diag[b], squared off-diagonal off2[b]) by
    Sturm-count bisection (Barth, Martin & Wilkinson 1967): eigenvalue k is
    the largest double x with #{eigenvalues >= x} >= k, fixed by (T_b, k)
    alone, read when [0, Gershgorin bound] has shrunk to adjacent doubles.
    Column j holds target j % r + 1 of T_(j // r); a converged one stays put."""
    b, p = diag.shape
    off = np.pad(np.sqrt(off2), ((0, 0), (1, 1)))
    bound = (diag + off[:, 1:] + off[:, :-1]).max(axis=1) * (1 + 2.1 * p * math.ulp(1))
    lo, hi, below_max = np.zeros(b * r), np.repeat(bound, r), np.tile(p - 1 - np.arange(r), b)
    cols = [np.repeat(a.T, r, axis=1) for a in (diag, off2)] + [np.empty((p, b * r))]
    while True:
        mid = 0.5 * (lo + hi)
        moving = (mid > lo) & (mid < hi)
        if not moving.any():
            return lo.reshape(b, r)
        up = _count_below(mid, *cols) <= below_max
        lo, hi = np.where(moving & up, mid, lo), np.where(moving & ~up, mid, hi)


def _map_draws(scenario: Scenario, k_star: int, reps: int, workers, *path: int,
               cv: CriticalValues | None = None) -> tuple:
    """(DS, RS) arrays of ``reps`` draws of ``scenario`` by ``map_chunks``,
    replication ``rep`` drawing from ``stream(*path, rep)``.  A white Gaussian
    null (Gaussian law, identity covariance, no centres) draws its top 2K*-1
    eigenvalues (``null_top_eigs``); any other scenario draws data
    (``draw_data``), tested by ``detect`` on ``cv``."""
    s, r = scenario, 2 * k_star - 1
    null = (s.law.kind == "gaussian" and s.centers is None and s.clusters < 2
            and getattr(s.sigma, "recipe", None) == "identity")
    if null:   # three (p, pairs) arrays
        nbytes = 3 * 8 * min(s.m, s.n) * r
    else:
        nbytes = rep_bytes(s.m, s.n)
        if isinstance(s.sigma, tuple):   # the Gaussian matrix, O' and F
            nbytes += 3 * 8 * s.m ** 2

    def chunk(rngs):
        if null:
            return ds_rs_stats(null_top_eigs(s, rngs, r), k_star)
        data = draw_data(s, rngs)
        if cv is None:
            return ds_rs_from_data(data, k_star)
        res = detect(data, k_star, cv)
        return res.ds, res.rs

    return map_chunks(chunk, reps, workers, nbytes, *path)


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
        ds, rs = _map_draws(scenario, cv.k_star, reps, workers, master_seed, c_idx, cv=cv)
        reject_ds, reject_rs = cv.rejects(ds, rs)
        rates_ds[c_idx] = np.count_nonzero(reject_ds) / reps if reps else 0.0
        rates_rs[c_idx] = np.count_nonzero(reject_rs) / reps if reps else 0.0
    return rates_ds, rates_rs


def run_size_experiment(grid, reps: int, cv: CriticalValues, master_seed: int,
                        workers=None) -> ExperimentReport:
    """Null rejection rates over the scenario grid (nominal level 1 - q)."""
    rates_ds, rates_rs = _run_cells(grid, reps, cv, master_seed, workers)
    return ExperimentReport(tuple(grid), rates_ds, rates_rs, reps, cv, master_seed)


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
    return ExperimentReport(tuple(grid), rates_ds, rates_rs, reps, cv, master_seed)


def figure2_samples(reps: int, master_seed: int, workers=None) -> list:
    """Null and alternative DS/RS samples (K* = 4) behind figure 2.

    For M in (100, 200, 400) (index mi), N = 2M, identity covariance and
    Gaussian noise, the null is pure noise and the alternative adds the two
    fixed centres +-1.5 e_1; hypothesis hi (0 null, 1 alt) replication
    ``rep`` draws from ``stream(master_seed, mi, hi, rep)``.  Returns one
    (M, hypothesis, ds, rs) per sample, with ``reps``-long arrays.
    """
    k_star = 4
    law = make_noise_law("gaussian")
    samples = []
    for mi, m_dim in enumerate((100, 200, 400)):
        n_dim = 2 * m_dim
        c1 = np.zeros(m_dim)
        c1[0] = 1.5
        sigma = make_covariance("identity", m_dim)
        for hi, hypothesis in enumerate(("null", "alt")):
            centers = np.column_stack([c1, -c1]) if hypothesis == "alt" else None
            scenario = Scenario(m_dim, n_dim, law, sigma, centers=centers)
            ds, rs = _map_draws(scenario, k_star, reps, workers, master_seed, mi, hi)
            samples.append((m_dim, hypothesis, ds, rs))
    return samples
