"""Property sweep of the spike theory's algebraic identities.

Random noise covariances (identity, diagonal, haar, toeplitz), dimensions
M in [2, 60), aspect ratios phi = M/N in [0.1, 4] and random-svd signals of
rank K <= 4 with strengths sqrt(lambda_1(Sigma)) e^U(0, 2.5).  On every
supercritical spike k, five identities hold at solver precision:

  m(theta_k) = -1/sigma~_k                  (``solve_m`` inverts f)
  theta_k = f(-1/sigma~_k)                  (``theta_terms`` against ``f_eval``)
  theta'_k = f'(-1/sigma~_k) / sigma~_k^2   (the chain rule through m)
  A_Pi(theta_k) xi_k = 0                    (the master matrix's null vector)
  xi_k' B_Pi(theta_k) xi_k = 2 theta_k / (sigma~_k theta'_k)
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spikelab.ensemble import make_noise_law, stream
from spikelab.locallaw import master_matrix_pi, master_quadratic_pi2, solve_pi
from spikelab.spectra import make_covariance
from spikelab.spikes import SignalModel, asymptotic_quantities, deform
from spikelab.stieltjes import f_eval, solve_m

BOUND = 1e-10

COVARIANCES = {
    "identity": lambda m: st.just({}),
    "diagonal": lambda m: st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m).map(
        lambda u: {"entries": np.exp(u)}),
    "haar": lambda m: st.builds(lambda a, r, seed: {"bounds": (a, a * r), "seed": seed},
                                st.floats(0.1, 2.0), st.floats(1.0, 4.0),
                                st.integers(0, 2**16)),
    "toeplitz": lambda m: st.floats(-0.9, 0.9).map(lambda rho: {"rho": rho}),
}


@st.composite
def spiked_configs(draw):
    """(Sigma, S, N) drawn from the distributions in the module docstring."""
    recipe = draw(st.sampled_from(sorted(COVARIANCES)))
    m = draw(st.integers(2, 59))
    n = max(round(m / draw(st.floats(0.1, 4.0))), 1)
    sigma = make_covariance(recipe, m, **draw(COVARIANCES[recipe](m)))
    k = draw(st.integers(1, min(4, m, n)))
    scale = math.sqrt(sigma.eigenvalues[0])
    strengths = [scale * math.exp(u) for u in draw(
        st.lists(st.floats(0.0, 2.5), min_size=k, max_size=k))]
    rng = stream(draw(st.integers(0, 2**16)), 0)
    left = np.linalg.qr(rng.standard_normal((m, k)))[0]
    right = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return sigma, SignalModel.from_factors(left, strengths, right), n


@given(config=spiked_configs())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_spike_identities(config):
    sigma, signal, n = config
    pop = deform(sigma, signal, 0.01)
    assume(pop.K0 >= 1)
    theory = asymptotic_quantities(sigma, signal, pop, make_noise_law("gaussian"), n)
    edge = theory.edge
    for k in range(theory.K0):
        st_k, theta = float(theory.sigma_tilde[k]), float(theory.theta[k])
        theta_prime = float(theory.theta_prime[k])
        w = -1.0 / st_k
        f0, f1, _ = f_eval(w, edge.nu, edge.phi)
        assert solve_m(theta, edge) == pytest.approx(w, rel=BOUND)
        assert f0 == pytest.approx(theta, rel=BOUND)
        assert f1 / st_k**2 == pytest.approx(theta_prime, rel=BOUND, abs=BOUND)

        pi = solve_pi(sigma, theta, edge, m=w)
        xi = theory.xi[k]
        null = np.linalg.norm(master_matrix_pi(pi, signal) @ xi) / np.linalg.norm(xi)
        assert null <= BOUND
        assert master_quadratic_pi2(pi, signal, xi) == pytest.approx(
            2.0 * theta / (st_k * theta_prime), rel=BOUND)
