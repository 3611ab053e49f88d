"""Packaged verification battery over the resolvent machinery.

Two layers: exact algebraic identities checked at solver precision on a
single draw, and stochastic residuals checked through the size-doubling
protocol (medians over seeds at N and 4N must shrink by roughly 2, the
1/sqrt(N) signature).  The CLI ``verify`` subcommand serializes the report
and fails the process if any check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .spectra import make_covariance
from .spikes import SignalModel, asymptotic_quantities, deform
from .ensemble import make_noise_law, parallel_map, stream
from .locallaw import (
    build_resolvent,
    factor_noise,
    g_squared_residual,
    green_rep_residual,
    isotropic_residual,
    master_matrix_suite,
    sample_spikes,
    solve_pi,
    two_resolvent_residuals,
)

RATIO_BAND = (1.4, 2.8)

IDENTITY_TOLERANCES = {
    "resolvent_identity": 1e-8,
    "block_consistency": 1e-8,
    "pi_prime_fd": 1e-6,
    "pi2_fd": 1e-6,
    "trace_identity_m": 1e-10,
    "trace_identity_n": 1e-10,
    "null_vector": 1e-8,
    "quad_identity": 1e-8,
    "master_singularity": 1e-6,
}
DET_CONTRAST_MIN = 1e3


@dataclass
class VerificationReport:
    checks: dict = field(default_factory=dict)
    skipped_seeds: int = 0

    def add(self, name, value, passed, threshold):
        self.checks[name] = {"value": value, "passed": bool(passed),
                             "threshold": threshold}

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def to_jsonable(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "skipped_seeds": self.skipped_seeds,
            "checks": jsonable(self.checks),
        }


def jsonable(x, sig=None):
    """Plain-JSON copy of a result holding numpy values; ``sig`` rounds
    floats to that many significant digits."""
    if isinstance(x, dict):
        return {k: jsonable(v, sig) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v, sig) for v in x]
    if isinstance(x, np.ndarray):
        return jsonable(x.tolist(), sig)
    if isinstance(x, (np.floating, float)):
        return float(format(float(x), f".{sig}g")) if sig else float(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


def _identity_checks(report: VerificationReport, master_seed: int):
    """Exact identities on one anisotropic draw (toeplitz noise covariance,
    rank-2 supercritical signal)."""
    tol = IDENTITY_TOLERANCES
    m_dim, n_dim = 100, 200
    sigma = make_covariance("toeplitz", m_dim, rho=0.1)
    vec_rng = stream(master_seed, 0, 1)
    left = np.linalg.qr(vec_rng.standard_normal((m_dim, 2)))[0]
    right = np.linalg.qr(vec_rng.standard_normal((n_dim, 2)))[0]
    signal = SignalModel.from_factors(left, [2.4, 1.9], right)
    law = make_noise_law("gaussian")
    pop = deform(sigma, signal, 0.05)
    theory = asymptotic_quantities(sigma, signal, pop, law, n_dim)

    x = law.sample(stream(master_seed, 0, 0), (m_dim, n_dim)) / math.sqrt(n_dim)
    edge = pop.edge
    z = edge.lambda_plus + 0.8
    draw = factor_noise(x, sigma)
    bundle = build_resolvent(draw, z, edge)
    y, g, pi = draw.y, bundle.g, bundle.pi

    h_shift = np.zeros((m_dim + n_dim,) * 2)
    h_shift[:m_dim, m_dim:] = math.sqrt(z) * y
    h_shift[m_dim:, :m_dim] = math.sqrt(z) * y.T
    np.fill_diagonal(h_shift, -z)
    cols = [0, m_dim // 2, m_dim + n_dim // 2]
    res = float(np.abs((h_shift @ g)[:, cols] - np.eye(m_dim + n_dim)[:, cols]).max())
    report.add("resolvent_identity", res, res <= tol["resolvent_identity"],
               tol["resolvent_identity"])

    off = g[:m_dim, m_dim:]
    dev = max(
        float(np.abs(off - (g[:m_dim, :m_dim] @ y) / math.sqrt(z)).max()),
        float(np.abs(off - (y @ g[m_dim:, m_dim:]) / math.sqrt(z)).max()),
    )
    report.add("block_consistency", dev, dev <= tol["block_consistency"],
               tol["block_consistency"])

    # derivative surrogate formulas against central finite differences
    step = 1e-5
    pm = {dz: solve_pi(sigma, z + dz, edge).pi_m
          for dz in (-step, 0.0, step)}
    fd = (pm[step] - pm[-step]) / (2 * step)
    formula = (z * pi.m_prime * (pm[0.0] @ sigma.matrix() @ pm[0.0])
               - pm[0.0] / z)
    scale = float(np.abs(fd).max())
    err = float(np.abs(formula - fd).max()) / scale
    report.add("pi_prime_fd", err, err <= tol["pi_prime_fd"], tol["pi_prime_fd"])

    pi2_top = 2.0 * formula + pm[0.0] / z
    probe = np.zeros(m_dim + n_dim)
    probe[:m_dim] = vec_rng.standard_normal(m_dim)
    probe[:m_dim] /= np.linalg.norm(probe[:m_dim])
    via_apply = pi.pi2_apply(probe)[:m_dim]
    via_fd = (2.0 * fd + pm[0.0] / z) @ probe[:m_dim]
    err2 = float(np.abs(via_apply - via_fd).max() / max(np.abs(via_fd).max(), 1e-30))
    report.add("pi2_fd", err2, err2 <= tol["pi2_fd"], tol["pi2_fd"])

    tr_m = float(np.trace(pi.pi_m @ sigma.matrix())) / n_dim
    err_m = abs(tr_m + (1.0 + z * pi.m) / (z * pi.m))
    report.add("trace_identity_m", err_m, err_m <= tol["trace_identity_m"],
               tol["trace_identity_m"])
    # exact for the sampled resolvent: tr G22 - tr G11 = -(N - M) / z
    tr_gap = (np.trace(g[m_dim:, m_dim:]) - np.trace(g[:m_dim, :m_dim])) / n_dim
    err_n = abs(tr_gap + (n_dim - m_dim) / (n_dim * z))
    report.add("trace_identity_n", err_n, err_n <= tol["trace_identity_n"],
               tol["trace_identity_n"])

    suite = master_matrix_suite(draw, signal, theory)
    nr = float(suite.null_residual.max())
    report.add("null_vector", nr, nr <= tol["null_vector"], tol["null_vector"])
    qe = float(suite.quad_identity_error.max())
    report.add("quad_identity", qe, qe <= tol["quad_identity"], tol["quad_identity"])
    se = float(suite.smallest_eig_at_sample.max())
    report.add("master_singularity", se, se <= tol["master_singularity"],
               tol["master_singularity"])
    dc = float(suite.det_contrast.min())
    report.add("det_contrast", dc, dc >= DET_CONTRAST_MIN, DET_CONTRAST_MIN)


def _median(values):
    return float(np.median(values)) if values else float("nan")


def _scaling_checks(report: VerificationReport, n_small: int, seeds: int,
                    master_seed: int, workers=None):
    """Size-doubling protocol for the stochastic residual families."""
    law = make_noise_law("gaussian")
    sizes = (n_small, 4 * n_small)

    per_size = {}
    skipped = 0
    n_pairs = 4   # probe pairs per seed; extra matvecs are cheap vs. the solve
    n_draws = 8   # independent draws averaged into one green-rep value per
    #               seed: the single-draw residual mixes near-cancelling
    #               terms and its median needs the variance reduction
    for size_idx, n_dim in enumerate(sizes):
        m_dim = n_dim // 2
        sigma = make_covariance("identity", m_dim)
        signal = SignalModel.localized(math.sqrt(5.25), m_dim, n_dim)
        pop = deform(sigma, signal, 0.05)
        theory = asymptotic_quantities(sigma, signal, pop, law, n_dim)
        edge = pop.edge
        z1 = edge.lambda_plus + 1.0
        z2 = edge.lambda_plus + 2.0

        # parallel_map returns within this iteration, which the closure reads
        def one(seed_idx):
            rng = stream(master_seed, size_idx, seed_idx, 0)
            vrng = stream(master_seed, size_idx, seed_idx, 1)
            draw = factor_noise(law.sample(rng, (m_dim, n_dim)) / math.sqrt(n_dim),
                                sigma)
            try:
                b1 = build_resolvent(draw, z1, edge)
                b2 = build_resolvent(draw, z2, edge)
                iso, gsq, two = [], [], []
                for _ in range(n_pairs):
                    u_full = vrng.standard_normal(m_dim + n_dim)
                    u_full /= np.linalg.norm(u_full)
                    v_full = vrng.standard_normal(m_dim + n_dim)
                    v_full /= np.linalg.norm(v_full)
                    u_top = vrng.standard_normal(m_dim)
                    u_top /= np.linalg.norm(u_top)
                    v_bot = vrng.standard_normal(n_dim)
                    v_bot /= np.linalg.norm(v_bot)
                    iso.append(isotropic_residual(b1, u_full, v_full))
                    gsq.append(g_squared_residual(b1, u_full, v_full))
                    two.extend(two_resolvent_residuals(b1, b2, u_top, v_bot).values())
                greens, flucts = [], []
                for d in range(n_draws):
                    dg = (draw if d == 0 else factor_noise(
                        law.sample(stream(master_seed, size_idx, seed_idx, 2 + d),
                                   (m_dim, n_dim)) / math.sqrt(n_dim), sigma))
                    lam = sample_spikes(dg, signal, theory.K0)
                    greens.append(float(
                        green_rep_residual(dg, signal, theory, lam)[0]
                    ))
                    flucts.append(float(math.sqrt(n_dim) * (lam[0] - theory.theta[0])))
                return {
                    "isotropic": _median(iso),
                    "g_squared": _median(gsq),
                    "two_resolvent": _median(two),
                    "green_rep": float(np.mean(greens)),
                    "fluct": flucts,
                }
            except NumericalError:
                return None

        results = parallel_map(one, range(seeds), workers)
        skipped += sum(r is None for r in results)
        results = [r for r in results if r is not None]
        per_size[n_dim] = results

    report.skipped_seeds += skipped
    lo, hi = RATIO_BAND
    for fam in ("isotropic", "g_squared", "two_resolvent", "green_rep"):
        med_small = _median([r[fam] for r in per_size[sizes[0]]])
        med_large = _median([r[fam] for r in per_size[sizes[1]]])
        ratio = med_small / med_large if med_large > 0 else float("inf")
        report.add(
            f"scaling_{fam}",
            {"median_small": med_small, "median_large": med_large, "ratio": ratio},
            lo <= ratio <= hi,
            list(RATIO_BAND),
        )

    # magnitude: the representation error is a lower-order correction to the
    # O(1) fluctuation it represents
    res_small = [r["green_rep"] for r in per_size[sizes[0]]]
    all_flucts = [f for r in per_size[sizes[0]] for f in r["fluct"]]
    fluct_std = float(np.std(all_flucts))
    frac = _median(res_small) / fluct_std if fluct_std > 0 else float("inf")
    report.add("green_rep_magnitude", {"median_residual": _median(res_small),
                                       "fluct_std": fluct_std, "fraction": frac},
               frac <= 0.25, 0.25)


def run_verification(n_small: int = 200, seeds: int = 50, master_seed: int = 0,
                     workers=None) -> VerificationReport:
    """Full battery: exact identities plus all scaling checks."""
    report = VerificationReport()
    _identity_checks(report, master_seed)
    _scaling_checks(report, n_small, seeds, master_seed, workers)
    return report
