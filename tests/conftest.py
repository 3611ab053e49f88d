"""Shared fixtures; the heavy Monte-Carlo runs are session-scoped and cached
so module tests and the acceptance suite never repeat a simulation."""

import math

import numpy as np
import pytest

from spikelab.spectra import make_covariance
from spikelab.spikes import SignalModel, asymptotic_quantities, deform
from spikelab.ensemble import SpikeMCConfig, make_noise_law, run_spike_mc
from spikelab.hetero import calibrate

# reference geometry used throughout: isotropic noise, one localized spike
GEOM = {"M": 200, "N": 400, "d2": 5.25, "phi": 0.5}
MC_REPS = 2000
MC_SEED = 20240911


@pytest.fixture
def linalg_calls(monkeypatch):
    """Shapes of the arrays (one matrix or a stack) handed to
    ``np.linalg.svd``, ``eigh``, ``eigvalsh`` and ``qr`` during a test, one
    list per function name."""
    calls = {"svd": [], "eigh": [], "eigvalsh": [], "qr": []}

    def recording(name, solve):
        def counting(a, *args, **kwargs):
            calls[name].append(np.shape(a))
            return solve(a, *args, **kwargs)
        return counting

    for name in calls:
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    return calls


@pytest.fixture
def eigh_calls(linalg_calls):
    """Shapes of the matrices handed to ``np.linalg.eigh`` during a test."""
    return linalg_calls["eigh"]


@pytest.fixture(scope="session")
def localized_setup():
    sigma = make_covariance("identity", GEOM["M"])
    signal = SignalModel.localized(math.sqrt(GEOM["d2"]), GEOM["M"], GEOM["N"])
    pop = deform(sigma, signal, 0.05)
    return sigma, signal, pop


@pytest.fixture(scope="session")
def mc_runs(localized_setup):
    """Cached Monte-Carlo runs on the reference geometry, keyed by
    (law kind, model); 2000 replications, nonuniversal components coupled
    for the additive model."""
    sigma, signal, _pop = localized_setup
    cache = {}

    def get(law_kind, model="additive"):
        key = (law_kind, model)
        if key not in cache:
            cfg = SpikeMCConfig(
                sigma, signal, make_noise_law(law_kind), reps=MC_REPS,
                master_seed=MC_SEED + 7 * len(cache),
                model=model, couple_theta=(model == "additive"),
            )
            cache[key] = run_spike_mc(cfg)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def cv_full():
    """Critical values at the published calibration size (K*=4, N*=100,
    30000 replications)."""
    return calibrate(4, 100, 30000, master_seed=20240501)


@pytest.fixture(scope="session")
def rate_medians():
    """Median |lambda_1 - theta_1| at N = 200 and N = 800 over 500 seeds."""
    law = make_noise_law("gaussian")
    out = {}
    for n_dim in (200, 800):
        m_dim = n_dim // 2
        sigma = make_covariance("identity", m_dim)
        signal = SignalModel.localized(math.sqrt(GEOM["d2"]), m_dim, n_dim)
        run = run_spike_mc(SpikeMCConfig(sigma, signal, law, reps=500,
                                         master_seed=314, n_top=1))
        theta = run.theory.theta[0]
        out[n_dim] = float(np.median(np.abs(run.lambdas[:, 0] - theta)))
    return out


@pytest.fixture(scope="session")
def theory_for(localized_setup):
    sigma, signal, pop = localized_setup
    cache = {}

    def get(law_kind):
        if law_kind not in cache:
            cache[law_kind] = asymptotic_quantities(
                sigma, signal, pop, make_noise_law(law_kind), GEOM["N"]
            )
        return cache[law_kind]

    return get
