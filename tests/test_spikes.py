import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab.errors import CapabilityError, DomainError
from spikelab.spectra import make_covariance
from spikelab.stieltjes import find_w_plus
from spikelab.spikes import (
    SignalModel,
    _classify,
    asymptotic_quantities,
    deform,
    delocalization_profile,
    mixed_moment,
    sigma_i_reduction_check,
    theta_component_cf,
)
from spikelab.ensemble import make_noise_law
from spikelab.locallaw import master_matrix_pi, solve_pi

M, N, D2 = 200, 400, 5.25
GAUSS = make_noise_law("gaussian")


def random_signal(rank, strengths, seed, m=M, n=N):
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.standard_normal((m, rank)))[0]
    right = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    return SignalModel.from_factors(left, strengths, right)


class TestSignalModel:
    def test_dense_round_trip(self):
        sig = random_signal(3, [3.0, 2.0, 1.0], seed=0)
        rebuilt = SignalModel.from_dense(sig.dense())
        assert rebuilt.rank == 3
        np.testing.assert_allclose(rebuilt.svals, sig.svals, atol=1e-9 * 3.0)
        assert np.abs(rebuilt.dense() - sig.dense()).max() <= 1e-9 * sig.svals[0]

    def test_rank_tolerance_drops_tiny_directions(self):
        sig = random_signal(2, [2.0, 1e-13], seed=1)
        rebuilt = SignalModel.from_dense(sig.dense())
        assert rebuilt.rank == 1

    def test_zero_matrix_is_rank_zero(self):
        assert SignalModel.from_dense(np.zeros((10, 20))).rank == 0


class TestDeform:
    def test_localized_reference_values(self, localized_setup):
        _sigma, _signal, pop = localized_setup
        assert pop.sigma_tilde[0] == pytest.approx(1.0 + D2, abs=1e-10)
        assert pop.threshold == pytest.approx(1.0 + math.sqrt(0.5), abs=1e-10)
        assert pop.K0 == 1
        # the top deformed eigenvector is the signal direction itself
        psi = pop.psi[:, 0]
        assert abs(psi[0]) == pytest.approx(1.0, abs=1e-10)

    def test_spike_at_threshold_is_excluded(self):
        # detachment needs d^4 > phi; construct d^4 = phi exactly
        phi = 0.5
        d = phi**0.25
        sigma = make_covariance("identity", M)
        signal = SignalModel.localized(d, M, N)
        pop = deform(sigma, signal, tau=0.01)
        assert pop.K0 == 0
        assert any("subcritical" in w for w in pop.warnings)

    def test_rank_zero_rejected(self):
        sigma = make_covariance("identity", 10)
        with pytest.raises(DomainError, match="rank 0"):
            deform(sigma, SignalModel.from_dense(np.zeros((10, 20))), 0.05)

    def test_interlacing(self):
        sigma = make_covariance("toeplitz", 60, rho=0.1)
        signal = random_signal(3, [2.5, 2.0, 1.5], seed=2, m=60, n=120)
        base = sigma.eigenvalues
        deformed = np.linalg.eigvalsh(sigma.matrix() + signal.gram_m())[::-1]
        k = signal.rank
        for i in range(k, 60):
            assert base[i] <= deformed[i] + 1e-12
            assert deformed[i] <= base[i - k] + 1e-12

    def test_eigen_residual(self):
        sigma = make_covariance("toeplitz", 80, rho=0.1)
        signal = random_signal(2, [2.5, 2.0], seed=3, m=80, n=160)
        pop = deform(sigma, signal, 0.05)
        mat = sigma.matrix() + signal.gram_m()
        for k in range(signal.rank):
            res = np.abs(mat @ pop.psi[:, k] - pop.sigma_tilde[k] * pop.psi[:, k]).max()
            assert res <= 1e-8 * pop.sigma_tilde[0]


# covariances for the dense oracle: repeated eigenvalues (identity, diagonal
# with repeated entries) and bases (toeplitz, haar)
ORACLE_SIGMAS = {
    "identity": lambda m, rng: make_covariance("identity", m),
    "diagonal": lambda m, rng: make_covariance(
        "diagonal", m, entries=rng.choice([0.5, 1.0, 1.5], size=m)),
    "toeplitz": lambda m, rng: make_covariance("toeplitz", m, rho=rng.uniform(-0.6, 0.6)),
    "haar": lambda m, rng: make_covariance("haar", m, seed=rng, bounds=(0.5, 2.0)),
}


class TestDeformOracle:
    @pytest.mark.parametrize("recipe", sorted(ORACLE_SIGMAS))
    @given(m=st.integers(4, 60), rank=st.integers(1, 4), axis=st.booleans(),
           repeated=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_eigh(self, recipe, m, rank, axis, repeated, seed):
        rng = np.random.default_rng(seed)
        sigma = ORACLE_SIGMAS[recipe](m, rng)
        # strengths from well above the edge down to subcritical
        strengths = np.sort(rng.uniform(0.2, 3.0, rank))[::-1]
        if repeated:
            strengths[:] = strengths[0]
        n = 2 * m
        left = (np.eye(m)[:, rng.choice(m, rank, replace=False)] if axis
                else np.linalg.qr(rng.standard_normal((m, rank)))[0])
        right = np.linalg.qr(rng.standard_normal((n, rank)))[0]
        signal = SignalModel.from_factors(left, strengths, right)
        tau = 0.05

        pop = deform(sigma, signal, tau)
        mat = sigma.matrix() + signal.gram_m()
        expected = np.linalg.eigh(mat)[0][::-1][:rank + 1]
        top = expected[0]
        np.testing.assert_allclose(pop.sigma_tilde, expected, rtol=0, atol=1e-12 * top)
        k0, _gaps, notes = _classify(expected, rank, pop.threshold, tau)
        assert pop.K0 == k0 and pop.warnings == notes
        assert pop.psi.shape == (m, k0)
        residual = mat @ pop.psi - pop.psi * pop.sigma_tilde[:k0]
        assert np.linalg.norm(residual, axis=0).max(initial=0.0) <= 1e-10 * top
        np.testing.assert_allclose(pop.psi.T @ pop.psi, np.eye(k0), rtol=0, atol=1e-10)


class TestMixedMoment:
    def test_inner_product(self):
        assert mixed_moment([[1.0, 1.0], [1.0, 1.0]], [1, 1]) == 2.0

    def test_localized_fourth(self):
        e1 = np.zeros(10)
        e1[0] = 1.0
        assert mixed_moment([e1, e1], [2, 2]) == 1.0

    def test_hand_arithmetic(self):
        assert mixed_moment([[1.0, 2.0], [3.0, 4.0]], [2, 1]) == 19.0

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            mixed_moment([[1.0], [1.0, 2.0]], [1, 1])


class TestAsymptoticQuantities:
    def test_gaussian_localized_closed_form(self, theory_for):
        th = theory_for("gaussian")
        phi = 0.5
        expected_v = 2.0 * th.theta_prime[0] * (1 + phi + 2 * phi / D2)
        assert th.gauss_cov[0, 0] == pytest.approx(expected_v, abs=1e-10)
        assert th.spike_bias[0] == 0.0
        assert np.all(th.cross_cov == 0.0)

    def test_uniform_kurtosis_gain(self, theory_for):
        th = theory_for("uniform-sym")
        phi = 0.5
        gain = -1.2 * th.theta_prime[0] ** 2 * (1 + phi)
        assert th.gauss_cov_kurtosis[0, 0] == pytest.approx(gain, abs=1e-10)

    def test_orthogonal_spikes_uncorrelated(self):
        sigma = make_covariance("identity", M)
        signal = random_signal(2, [3.0, 2.5], seed=4)
        pop = deform(sigma, signal, 0.05)
        th = asymptotic_quantities(sigma, signal, pop, GAUSS, N)
        assert th.gauss_cov_base[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_cov_symmetric_exactly(self):
        sigma = make_covariance("toeplitz", M, rho=0.1)
        signal = random_signal(3, [3.0, 2.5, 2.0], seed=5)
        pop = deform(sigma, signal, 0.05)
        th = asymptotic_quantities(sigma, signal, pop,
                                   make_noise_law("shifted-exponential"), N)
        assert np.array_equal(th.gauss_cov, th.gauss_cov.T)
        assert np.all(np.diag(th.gauss_cov) > 0)

    def test_spike_limit_ties_to_stieltjes(self, localized_setup, theory_for):
        # m(theta_k) = -1/sigma~_k through the solver round trip
        from spikelab.stieltjes import solve_m
        _sigma, _signal, pop = localized_setup
        th = theory_for("gaussian")
        m_val = solve_m(float(th.theta[0]), pop.edge)
        assert m_val == pytest.approx(-1.0 / pop.sigma_tilde[0], abs=1e-10)

    def test_gram_identity(self):
        # sigma~_k delta_kj = psi_k' (Sigma + SS') psi_j decomposes the overlap
        sigma = make_covariance("toeplitz", 100, rho=0.1)
        signal = random_signal(2, [2.5, 2.0], seed=6, m=100, n=200)
        pop = deform(sigma, signal, 0.05)
        ss = signal.gram_m()
        for k in range(2):
            for j in range(2):
                lhs = pop.psi[:, k] @ ss @ pop.psi[:, j]
                rhs = (pop.sigma_tilde[k] * (k == j)
                       - pop.psi[:, k] @ sigma.matrix() @ pop.psi[:, j])
                assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_null_vector_of_master_matrix(self, localized_setup, theory_for):
        sigma, signal, _pop = localized_setup
        th = theory_for("gaussian")
        for k in range(th.K0):
            pi = solve_pi(sigma, float(th.theta[k]), th.edge,
                          m=-1.0 / float(th.sigma_tilde[k]))
            a_pi = master_matrix_pi(pi, signal)
            xi = th.xi[k]
            assert np.linalg.norm(a_pi @ xi) <= 1e-8 * np.linalg.norm(xi)

    @given(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    @settings(max_examples=8, deadline=None)
    def test_sign_invariance(self, flips):
        sigma = make_covariance("toeplitz", 60, rho=0.1)
        signal = random_signal(3, [2.8, 2.3, 1.9], seed=7, m=60, n=120)
        pop = deform(sigma, signal, 0.05)
        law = make_noise_law("shifted-exponential")
        base = asymptotic_quantities(sigma, signal, pop, law, 120)
        signs = np.where(np.array(flips[:pop.psi.shape[1]] +
                                  (False,) * (pop.psi.shape[1] - 3)), -1.0, 1.0)
        flipped_pop = replace(pop, psi=pop.psi * signs)
        flipped = asymptotic_quantities(sigma, signal, flipped_pop, law, 120)
        np.testing.assert_allclose(flipped.theta, base.theta, rtol=0, atol=0)
        np.testing.assert_allclose(flipped.spike_bias, base.spike_bias, atol=1e-14)
        np.testing.assert_allclose(flipped.gauss_cov, base.gauss_cov, atol=1e-12)
        np.testing.assert_allclose(flipped.cross_cov, base.cross_cov, atol=1e-13)
        t = np.full(base.K0, 0.3)
        assert theta_component_cf(t, flipped, law, 120) == pytest.approx(
            theta_component_cf(t, base, law, 120), abs=1e-12
        )


class TestReductionCheck:
    @pytest.mark.parametrize("law_kind", ["gaussian", "uniform-sym",
                                          "shifted-exponential"])
    def test_localized(self, localized_setup, law_kind):
        sigma, signal, pop = localized_setup
        rep = sigma_i_reduction_check(sigma, signal, pop,
                                      make_noise_law(law_kind), N)
        assert rep.max_discrepancy <= 1e-10

    def test_random_rank3_with_cumulants(self):
        sigma = make_covariance("identity", M)
        signal = random_signal(3, [3.0, 2.5, 2.0], seed=8)
        pop = deform(sigma, signal, 0.05)
        rep = sigma_i_reduction_check(sigma, signal, pop,
                                      make_noise_law("shifted-exponential"), N)
        assert rep.K0 == 3
        assert rep.max_discrepancy <= 1e-10

    def test_no_spikes_empty_report(self):
        sigma = make_covariance("identity", M)
        signal = SignalModel.localized(0.5, M, N)  # d^4 < phi
        pop = deform(sigma, signal, 0.01)
        rep = sigma_i_reduction_check(sigma, signal, pop, GAUSS, N)
        assert rep.K0 == 0 and rep.per_quantity == {}

    def test_non_identity_rejected(self, theory_for):
        sigma = make_covariance("toeplitz", M, rho=0.1)
        signal = SignalModel.localized(math.sqrt(D2), M, N)
        pop = deform(sigma, signal, 0.05)
        with pytest.raises(DomainError):
            sigma_i_reduction_check(sigma, signal, pop, GAUSS, N)


class TestNonuniversalCf:
    def test_zero_coefficients(self, theory_for):
        assert theta_component_cf(np.zeros(1), theory_for("gaussian"), GAUSS, N) == 1.0

    def test_three_point_single_factor(self, theory_for):
        law = make_noise_law("three-point")
        th = theory_for("three-point")
        t = np.array([0.8])
        c = 2.0 * t[0] * th.theta_prime[0] * th.sqrt_sigma_psi[0, 0] * th.s_top_psi[0, 0]
        expected = 2.0 / 3.0 + math.cos(math.sqrt(3.0) * c) / 3.0
        assert theta_component_cf(t, th, law, N) == pytest.approx(expected, abs=1e-12)

    def test_gaussian_closed_form(self, theory_for):
        th = theory_for("gaussian")
        t = np.array([0.6])
        coeff = 2.0 * t * th.theta_prime
        args = (coeff[:, None] * th.sqrt_sigma_psi).T @ th.s_top_psi
        expected = math.exp(-0.5 * float((args**2).sum()))
        assert theta_component_cf(t, th, GAUSS, N) == pytest.approx(expected, abs=1e-12)

    def test_sampler_only_law_rejected(self, theory_for):
        law = make_noise_law("gaussian")
        crippled = replace(law, cf=None)
        with pytest.raises(CapabilityError):
            theta_component_cf(np.zeros(1), theory_for("gaussian"), crippled, N)


class TestDelocalization:
    def test_localized_is_order_one(self, theory_for):
        prof = delocalization_profile(theory_for("gaussian"))
        assert prof[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert prof[0, 1] == pytest.approx(math.sqrt(D2), abs=1e-10)

    def test_mixture_right_vectors_delocalize(self):
        from spikelab.ensemble import mixture_signal
        rng = np.random.default_rng(9)
        c1 = rng.uniform(0.3, 0.6, size=M) * math.sqrt(N)
        centers = np.column_stack([c1, -c1])
        signal, _counts = mixture_signal(centers, "equal", N)
        sigma = make_covariance("identity", M)
        pop = deform(sigma, signal, 0.01)
        assert pop.K0 >= 1
        th = asymptotic_quantities(sigma, signal, pop, GAUSS, N)
        prof = delocalization_profile(th)
        # balanced clusters: right-vector entries are ~ d / sqrt(N)
        assert prof[0, 1] <= 3.0 * th.sigma_tilde[0] ** 0.5 / math.sqrt(N) * 2
