"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy simulations are shared through session fixtures (conftest) so the
whole suite stays within a desk-scale runtime budget.  Every tolerance here
is pinned; nothing is calibrated at run time.
"""

import math
import os

import numpy as np
import pytest
from scipy.stats import ks_2samp

from spikelab.spectra import make_covariance
from spikelab.stieltjes import find_w_plus, theta_terms
from spikelab.spectra import esd
from spikelab.spikes import SignalModel, asymptotic_quantities, deform, \
    sigma_i_reduction_check
from spikelab.ensemble import (
    empirical_cf_check,
    make_noise_law,
    run_spike_mc,
)
from spikelab.hetero import ScenarioCell, default_grid, run_power_experiment, \
    run_size_experiment
from spikelab.verification import run_verification

from conftest import GEOM, MC_REPS


def report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {marker} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def verification_report():
    return run_verification(n_small=200, seeds=50, master_seed=0)


@pytest.fixture(scope="module")
def size_table(cv_full):
    return run_size_experiment(default_grid(), 2000, cv_full, master_seed=611,
                               workers=os.cpu_count())


def test_criterion_01_edge_closed_forms():
    nu = esd(make_covariance("identity", 100))
    worst = 0.0
    for phi in (0.25, 0.5, 1.0):
        edge = find_w_plus(nu, phi)
        worst = max(worst,
                    abs(edge.w_plus + 1.0 / (1.0 + math.sqrt(phi))),
                    abs(edge.lambda_plus - (1.0 + math.sqrt(phi)) ** 2))
    report(1, worst <= 1e-8, f"edge closed forms, max deviation {worst:.2e}")


def test_criterion_02_theta_map_reduction():
    nu = esd(make_covariance("identity", 100))
    phi = 0.5
    edge = find_w_plus(nu, phi)
    worst = 0.0
    for d2 in (2.0, 5.25, 10.0):
        theta, deficit = theta_terms(1.0 + d2, edge)
        theta_prime = 1.0 - deficit
        worst = max(worst,
                    abs(theta - (1 + d2 + phi * (1 + 1 / d2))),
                    abs(theta_prime - (1 - phi / d2**2)))
    report(2, worst <= 1e-10, f"theta-map reduction, max deviation {worst:.2e}")


def test_criterion_03_definition_reduction(localized_setup):
    sigma, signal, pop = localized_setup
    worst = 0.0
    for law_kind in ("gaussian", "uniform-sym", "shifted-exponential"):
        rep = sigma_i_reduction_check(sigma, signal, pop,
                                      make_noise_law(law_kind), GEOM["N"])
        worst = max(worst, rep.max_discrepancy)
    # also a multi-spike configuration with generic singular vectors
    rng = np.random.default_rng(33)
    left = np.linalg.qr(rng.standard_normal((GEOM["M"], 3)))[0]
    right = np.linalg.qr(rng.standard_normal((GEOM["N"], 3)))[0]
    signal3 = SignalModel.from_factors(left, [3.0, 2.5, 2.0], right)
    pop3 = deform(sigma, signal3, 0.05)
    rep3 = sigma_i_reduction_check(sigma, signal3, pop3,
                                   make_noise_law("shifted-exponential"),
                                   GEOM["N"])
    worst = max(worst, rep3.max_discrepancy)
    report(3, worst <= 1e-10, f"closed-form reduction, max discrepancy {worst:.2e}")


def test_criterion_04_cumulant_nulling(localized_setup):
    sigma, signal, pop = localized_setup
    ok = True
    for law_kind in ("uniform-sym", "three-point"):  # kappa3 = 0
        th = asymptotic_quantities(sigma, signal, pop,
                                   make_noise_law(law_kind), GEOM["N"])
        ok &= np.all(th.spike_bias == 0.0) and np.all(th.cross_cov == 0.0)
    for law_kind in ("gaussian", "three-point"):  # kappa4 = 0
        th = asymptotic_quantities(sigma, signal, pop,
                                   make_noise_law(law_kind), GEOM["N"])
        ok &= np.all(th.gauss_cov_kurtosis == 0.0)
    report(4, bool(ok), "kappa3 = 0 nulls bias and cross covariance; "
                        "kappa4 = 0 nulls the kurtosis part (exact zeros)")


def test_criterion_05_fluctuation_statistics(mc_runs):
    out = mc_runs("gaussian")
    th = out.theory
    fl = out.fluctuations[:, 0]
    se = fl.std(ddof=1) / math.sqrt(MC_REPS)
    mean_ok = abs(fl.mean()) <= 3.0 * se
    var_theory = float(th.gauss_cov[0, 0]
                       + 4.0 * th.theta_prime[0] ** 2 * GEOM["d2"])
    rel_dev = abs(fl.var(ddof=1) / var_theory - 1.0)
    report(5, mean_ok and rel_dev <= 0.12,
           f"mean {fl.mean():+.4f} (3se {3 * se:.4f}), "
           f"variance {fl.var(ddof=1):.3f} vs theory {var_theory:.3f} "
           f"(rel dev {rel_dev:.3f} <= 0.12)")


def test_criterion_06_nonuniversality(mc_runs):
    laws = ("gaussian", "three-point", "four-point")
    add = {l: mc_runs(l, "additive").lambdas[:, 0] for l in laws}
    mult = {l: mc_runs(l, "multiplicative").lambdas[:, 0] for l in laws}
    ks_add = {(a, b): ks_2samp(add[a], add[b]).statistic
              for i, a in enumerate(laws) for b in laws[i + 1:]}
    ks_mult = {(a, b): ks_2samp(mult[a], mult[b]).statistic
               for i, a in enumerate(laws) for b in laws[i + 1:]}
    additive_separates = max(ks_add.values()) > 0.1
    mult_universal = max(ks_mult.values()) < 0.05

    out3 = mc_runs("three-point")
    ratio = out3.theta_samples[:, 0] / (
        2.0 * out3.theory.theta_prime[0] * math.sqrt(GEOM["d2"])
    )
    mass0 = float(np.mean(np.abs(ratio) < 1e-9))
    mass_ok = abs(mass0 - 2.0 / 3.0) <= 3.0 / math.sqrt(MC_REPS)
    report(6, additive_separates and mult_universal and mass_ok,
           f"additive max KS {max(ks_add.values()):.3f} > 0.1, "
           f"multiplicative max KS {max(ks_mult.values()):.3f} < 0.05, "
           f"atom mass {mass0:.4f} vs 2/3 +- {3 / math.sqrt(MC_REPS):.4f}")


def test_criterion_07_characteristic_function_identity(mc_runs):
    out = mc_runs("shifted-exponential")
    band = 4.0 / math.sqrt(MC_REPS) + 0.05
    gaps = {}
    for s, t in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        cmp = empirical_cf_check(out, make_noise_law("shifted-exponential"), [s], [t])
        gaps[(s, t)] = cmp.gap
    worst = max(gaps.values())
    report(7, worst <= band,
           f"cf identity gaps {({k: round(v, 4) for k, v in gaps.items()})} "
           f"<= {band:.4f}")


def test_criterion_08_convergence_rate(rate_medians):
    ratio = rate_medians[200] / rate_medians[800]
    report(8, 1.6 <= ratio <= 2.6,
           f"median |lambda1 - theta1| shrink factor {ratio:.3f} in [1.6, 2.6]")


def test_criterion_09_locallaw_suite(verification_report):
    rep = verification_report
    failing = [name for name, chk in rep.checks.items() if not chk["passed"]]
    ratios = {name.replace("scaling_", ""): round(chk["value"]["ratio"], 3)
              for name, chk in rep.checks.items() if name.startswith("scaling")}
    report(9, rep.all_passed,
           f"scaling ratios {ratios} in [1.4, 2.8]; identities at "
           f"1e-6..1e-8; failing: {failing or 'none'}")


def test_criterion_10_calibration(cv_full):
    ok = 2.90 <= cv_full.cv_ds <= 3.15 and 17.5 <= cv_full.cv_rs <= 20.5
    report(10, ok,
           f"cv_DS {cv_full.cv_ds:.4f} in [2.90, 3.15] (published 3.0251), "
           f"cv_RS {cv_full.cv_rs:.4f} in [17.5, 20.5] (published 18.9920)")


def test_criterion_11_size_table(size_table):
    rates = np.concatenate([size_table.rates_ds, size_table.rates_rs])
    ok = bool(np.all((rates >= 0.02) & (rates <= 0.08)))
    report(11, ok,
           f"12 cells x 2 statistics, rates in [{rates.min():.4f}, "
           f"{rates.max():.4f}] vs band [0.02, 0.08]")


def test_criterion_12_power_cells(cv_full):
    cells = {
        "k2_iso": (2, ScenarioCell("identity", "gaussian", 200, 100)),
        "k2_haar": (2, ScenarioCell("haar", "gaussian", 200, 100)),
        "k4_iso": (4, ScenarioCell("identity", "gaussian", 100, 200)),
    }
    rates = {}
    for name, (clusters, cell) in cells.items():
        rep = run_power_experiment(clusters, [cell], 1000, cv_full,
                                   master_seed=713, workers=os.cpu_count())
        rates[name] = (float(rep.rates_ds[0]), float(rep.rates_rs[0]))
    ok = (rates["k2_iso"][0] >= 0.99 and 0.60 <= rates["k2_iso"][1] <= 0.82
          and rates["k2_haar"][0] >= 0.95 and rates["k2_haar"][1] <= 0.65
          and rates["k4_iso"][0] >= 0.99
          and all(ds > rs for ds, rs in rates.values()))
    report(12, ok, f"power (DS, RS) per cell: {rates}; DS > RS everywhere")


def test_criterion_13_reproducibility(tmp_path, cv_full):
    grid = [ScenarioCell("toeplitz", "uniform-sym", 200, 100)]
    a = run_size_experiment(grid, 100, cv_full, master_seed=99, workers=1)
    b = run_size_experiment(grid, 100, cv_full, master_seed=99, workers=4)
    rates_equal = (np.array_equal(a.rates_ds, b.rates_ds)
                   and np.array_equal(a.rates_rs, b.rates_rs))

    sigma = make_covariance("identity", 60)
    signal = SignalModel.localized(math.sqrt(5.25), 60, 120)
    law = make_noise_law("three-point")
    paths = []
    for idx, workers in enumerate((1, 4)):
        run = run_spike_mc(sigma, signal, law, 40, 42, couple_theta=True,
                           workers=workers)
        p = tmp_path / f"samples_{idx}.csv"
        run.to_csv(p)
        paths.append(p.read_bytes())
    csv_equal = paths[0] == paths[1]
    report(13, rates_equal and csv_equal,
           "byte-identical CSV and rates under 1 vs 4 worker threads")
