import inspect
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from spikelab.errors import DomainError, NumericalError
from spikelab.spectra import esd, make_covariance
from spikelab.stieltjes import find_w_plus, m_derivative_and_divided_difference
from spikelab.spikes import SignalModel, asymptotic_quantities, deform
from spikelab.ensemble import make_noise_law, stream
from spikelab import locallaw
from spikelab.locallaw import (
    EDGE_MARGIN,
    G_NORM_LIMIT,
    build_resolvent,
    divided_difference,
    factor_noise,
    green_rep_residual,
    g_squared_residual,
    isotropic_residual,
    master_matrix_g,
    master_matrix_pi,
    master_matrix_suite,
    master_quadratic_pi2,
    sample_spikes,
    solve_pi,
    two_resolvent_residuals,
)

LAW = make_noise_law("gaussian")


def small_bundle(m_dim=60, n_dim=120, seed=0, recipe="identity", offset=1.0):
    kwargs = {"rho": 0.1} if recipe == "toeplitz" else {}
    sigma = make_covariance(recipe, m_dim, **kwargs)
    edge = find_w_plus(esd(sigma), m_dim / n_dim)
    x = LAW.sample(stream(seed), (m_dim, n_dim)) / math.sqrt(n_dim)
    return build_resolvent(factor_noise(x, sigma), edge.lambda_plus + offset, edge), sigma


class TestBuildResolvent:
    def test_scalar_case_hand_inverse(self):
        # M = N = 1: the linearization is a 2x2 matrix invertible by hand
        sigma = make_covariance("identity", 1)
        x = np.array([[0.7]])
        edge = find_w_plus(esd(sigma), 1.0)
        z = edge.lambda_plus + 1.0
        b = build_resolvent(factor_noise(x, sigma), z, edge)
        y = x[0, 0]
        det = z * z - z * y * y
        hand = np.array([[-z, -math.sqrt(z) * y], [-math.sqrt(z) * y, -z]]) / det
        np.testing.assert_allclose(b.g, hand, atol=1e-14)
        assert b.g[0, 0] == pytest.approx(1.0 / (y * y - z), abs=1e-14)

    def test_resolvent_identity_sampled(self):
        b, _sigma = small_bundle()
        m_dim, n_dim = b.draw.y.shape
        h = np.zeros((m_dim + n_dim,) * 2)
        h[:m_dim, m_dim:] = math.sqrt(b.pi.z) * b.draw.y
        h[m_dim:, :m_dim] = math.sqrt(b.pi.z) * b.draw.y.T
        cols = [0, 17, m_dim + 5]
        shifted = h - b.pi.z * np.eye(m_dim + n_dim)
        assert np.abs((shifted @ b.g)[:, cols]
                      - np.eye(m_dim + n_dim)[:, cols]).max() <= 1e-8

    def test_block_consistency(self):
        b, _sigma = small_bundle(recipe="toeplitz")
        y = b.draw.y
        m_dim = len(y)
        off = b.g[:m_dim, m_dim:]
        sq = math.sqrt(b.pi.z)
        assert np.abs(off - (b.g[:m_dim, :m_dim] @ y) / sq).max() <= 1e-8
        assert np.abs(off - (y @ b.g[m_dim:, m_dim:]) / sq).max() <= 1e-8

    def test_average_law(self):
        # N^{-1} tr G_N approaches m(z) at the faster averaged rate
        b, _sigma = small_bundle(m_dim=60, n_dim=60)
        m_dim, n_dim = b.draw.y.shape
        assert abs(np.trace(b.g[m_dim:, m_dim:]) / n_dim - b.pi.m) <= 10.0 / n_dim

    def test_trace_identities(self):
        b, sigma = small_bundle(recipe="toeplitz")
        lhs_m = np.trace(b.pi.pi_m @ sigma.matrix()) / b.draw.y.shape[1]
        assert lhs_m == pytest.approx(-(1 + b.pi.z * b.pi.m) / (b.pi.z * b.pi.m), abs=1e-10)

    def test_margin_enforced(self):
        sigma = make_covariance("identity", 20)
        edge = find_w_plus(esd(sigma), 0.5)
        x = LAW.sample(stream(3), (20, 40)) / math.sqrt(40)
        with pytest.raises(DomainError):
            build_resolvent(factor_noise(x, sigma), edge.lambda_plus + 0.01, edge)

    def test_edge_at_another_phi_rejected(self):
        # the edge fixes the bulk's aspect ratio: a 20 x 40 draw (M/N = 1/2)
        # must not be paired with an edge solved at phi = 1/4
        sigma = make_covariance("identity", 20)
        edge = find_w_plus(esd(sigma), 0.25)
        x = LAW.sample(stream(3), (20, 40)) / math.sqrt(40)
        with pytest.raises(DomainError, match="phi"):
            build_resolvent(factor_noise(x, sigma), edge.lambda_plus + 1.0, edge)


class TestIsotropicResidual:
    def test_opposite_blocks_surrogate_vanishes(self):
        b, _sigma = small_bundle()
        m_dim, n_dim = b.draw.y.shape
        rng = stream(4)
        u = np.concatenate([rng.standard_normal(m_dim), np.zeros(n_dim)])
        u /= np.linalg.norm(u)
        v = np.concatenate([np.zeros(m_dim), rng.standard_normal(n_dim)])
        v /= np.linalg.norm(v)
        assert np.abs(b.pi.pi_apply(v)[:m_dim]).max() == 0.0
        assert isotropic_residual(b, u, v) == pytest.approx(abs(u @ (b.g @ v)))

    def test_bounded_by_norms(self):
        b, _sigma = small_bundle()
        rng = stream(5)
        u = rng.standard_normal(sum(b.draw.y.shape))
        u /= np.linalg.norm(u)
        pi_norm = max(np.abs(np.linalg.eigvalsh(b.pi.pi_m)).max(), abs(b.pi.m))
        assert isotropic_residual(b, u, u) <= b.g_norm + pi_norm


class TestTwoResolvent:
    def test_equal_parameters_reduce_to_derivative(self):
        b, _sigma = small_bundle(seed=6)
        b2, _ = small_bundle(seed=6)
        assert divided_difference(b, b2) == b.pi.m_prime

    def test_divided_difference_ties_to_solver(self):
        b, sigma = small_bundle(seed=7)
        b2, _ = small_bundle(seed=7, offset=2.0)
        m_dim, n_dim = b.draw.y.shape
        expected = m_derivative_and_divided_difference(
            b.pi.z, b2.pi.z, find_w_plus(esd(sigma), m_dim / n_dim)
        )
        assert divided_difference(b, b2) == pytest.approx(expected, abs=1e-12)

    def test_residuals_small(self):
        b, _sigma = small_bundle(m_dim=100, n_dim=200, seed=8)
        b2, _ = small_bundle(m_dim=100, n_dim=200, seed=8, offset=2.0)
        m_dim, n_dim = b.draw.y.shape
        rng = stream(9)
        u = rng.standard_normal(m_dim)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(n_dim)
        v /= np.linalg.norm(v)
        res = two_resolvent_residuals(b, b2, u, v)
        assert set(res) == {"uu_M", "vv_M", "uv_M", "uu_N", "vv_N", "uv_N"}
        # pilot-calibrated ceiling: values are a few times N^{-1/2}
        assert max(res.values()) <= 10.0 / math.sqrt(n_dim)

    def test_dimension_check(self):
        b, _sigma = small_bundle()
        with pytest.raises(DomainError):
            two_resolvent_residuals(b, b, np.ones(3), np.ones(4))


def two_spike_model(m_dim, n_dim):
    """Identity noise with a rank-2 supercritical signal (K0 = 2)."""
    sigma = make_covariance("identity", m_dim)
    rng = np.random.default_rng(12)
    left = np.linalg.qr(rng.standard_normal((m_dim, 2)))[0]
    right = np.linalg.qr(rng.standard_normal((n_dim, 2)))[0]
    signal = SignalModel.from_factors(left, [2.6, 2.1], right)
    pop = deform(sigma, signal, 0.05)
    return sigma, signal, asymptotic_quantities(sigma, signal, pop, LAW, n_dim)


class TestOneFactorizationPerDraw:
    def test_consumers_add_no_eigh(self, monkeypatch):
        # every z a draw serves (theta_k, lambda_k) reuses its one factorization
        m_dim, n_dim = 120, 240
        sigma, signal, theory = two_spike_model(m_dim, n_dim)
        assert theory.K0 == 2
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: shapes.append(a.shape) or eigh(a))
        x = LAW.sample(stream(14), (m_dim, n_dim)) / math.sqrt(n_dim)
        draw = factor_noise(x, sigma)
        assert shapes == [(m_dim, m_dim)]
        green_rep_residual(draw, signal, theory)
        master_matrix_suite(draw, signal, theory)
        assert shapes == [(m_dim, m_dim)]


class TestMasterMatrixFormulas:
    @pytest.mark.parametrize("recipe, kwargs", [
        ("identity", {}),
        ("diagonal", {"entries": np.linspace(0.5, 2.0, 30)}),
        ("toeplitz", {"rho": 0.3}),
        ("haar", {"seed": 4, "bounds": (0.5, 2.0)}),
    ])
    def test_match_block_formulas(self, recipe, kwargs):
        # Pi and Pi_2 on a block of columns, and the block-by-block assembly
        # of A_Pi and xi' B_Pi xi, with the top-left block of Pi from a dense
        # inverse
        m_dim, n_dim, k = 30, 60, 2
        sigma = make_covariance(recipe, m_dim, **kwargs)
        edge = find_w_plus(esd(sigma), m_dim / n_dim)
        z = edge.lambda_plus + 1.3
        pi = solve_pi(sigma, z, edge)
        rng = stream(15)
        left = np.linalg.qr(rng.standard_normal((m_dim, k)))[0]
        right = np.linalg.qr(rng.standard_normal((n_dim, k)))[0]
        signal = SignalModel.from_factors(left, [2.4, 1.7], right)
        sig_mat = sigma.matrix()
        pi_m = -np.linalg.inv(np.eye(m_dim) + pi.m * sig_mat) / z
        scale = np.abs(pi_m).max()
        np.testing.assert_allclose(pi.pi_m, pi_m, rtol=1e-12, atol=1e-12 * scale)

        block = rng.standard_normal((m_dim + n_dim, 3))
        got_pi, got_pi2 = pi.pi_apply(block), pi.pi2_apply(block)
        for j in range(block.shape[1]):
            top, bot = block[:m_dim, j], block[m_dim:, j]
            pm_top = pi_m @ top
            want_pi = np.concatenate([pm_top, pi.m * bot])
            want_pi2 = np.concatenate([
                2.0 * z * pi.m_prime * (pi_m @ sig_mat @ pm_top) - pm_top / z,
                (2.0 * pi.m_prime + pi.m / z) * bot])
            for got, want in ((got_pi[:, j], want_pi), (got_pi2[:, j], want_pi2)):
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())

        a = np.zeros((2 * k, 2 * k))
        a[:k, :k] = math.sqrt(z) * (left.T @ pi_m @ left)
        a[k:, k:] = math.sqrt(z) * pi.m * np.eye(k)
        a[:k, k:] = a[k:, :k] = np.diag(1.0 / signal.svals)
        np.testing.assert_allclose(master_matrix_pi(pi, signal), a,
                                   rtol=1e-12, atol=1e-12 * np.abs(a).max())

        xi = rng.standard_normal(2 * k)
        top, bot = left @ xi[:k], right @ xi[k:]
        pm_top = pi_m @ top
        terms = (2.0 * z * pi.m_prime * float(pm_top @ sig_mat @ pm_top),
                 -float(top @ pm_top) / z,
                 (2.0 * pi.m_prime + pi.m / z) * float(bot @ bot))
        assert master_quadratic_pi2(pi, signal, xi) == pytest.approx(
            z * sum(terms), rel=1e-12, abs=1e-12 * z * sum(map(abs, terms)))


class TestMasterMatrices:
    @pytest.fixture(scope="class")
    def setup(self):
        m_dim, n_dim = 200, 400
        sigma = make_covariance("identity", m_dim)
        signal = SignalModel.localized(math.sqrt(5.25), m_dim, n_dim)
        pop = deform(sigma, signal, 0.05)
        theory = asymptotic_quantities(sigma, signal, pop, LAW, n_dim)
        x = LAW.sample(stream(10), (m_dim, n_dim)) / math.sqrt(n_dim)
        return factor_noise(x, sigma), signal, theory

    def test_sample_spike_singularity(self, setup):
        report = master_matrix_suite(*setup)
        assert report.smallest_eig_at_sample.max() <= 1e-6

    def test_null_vector_identity(self, setup):
        report = master_matrix_suite(*setup)
        assert report.null_residual.max() <= 1e-8

    def test_determinant_contrast(self, setup):
        report = master_matrix_suite(*setup)
        assert report.det_contrast.min() >= 1e3

    def test_quadratic_identity(self, setup):
        report = master_matrix_suite(*setup)
        assert report.quad_identity_error.max() <= 1e-8


def spike_draw(m_dim, n_dim, strengths, axis, seed, recipe="identity"):
    """A factored noise draw and a signal with the given strengths."""
    kwargs = {"rho": 0.3} if recipe == "toeplitz" else {}
    sigma = make_covariance(recipe, m_dim, **kwargs)
    rng = np.random.default_rng(seed)
    rank = len(strengths)
    left = (np.eye(m_dim)[:, rng.choice(m_dim, rank, replace=False)] if axis
            else np.linalg.qr(rng.standard_normal((m_dim, rank)))[0])
    right = np.linalg.qr(rng.standard_normal((n_dim, rank)))[0]
    signal = SignalModel.from_factors(left, strengths, right)
    x = rng.standard_normal((m_dim, n_dim)) / math.sqrt(n_dim)
    return factor_noise(x, sigma), signal


class TestSampleSpikes:
    @pytest.mark.parametrize("recipe", ["identity", "toeplitz"])
    @given(rank=st.integers(1, 3), wide=st.booleans(), axis=st.booleans(),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_gram(self, recipe, rank, wide, axis, data):
        # top K+1 eigenvalues of (S + y)(S + y)', from well detached down to
        # strengths whose outliers stay under lambda_1(y y')
        short = data.draw(st.integers(rank + 1, 25), label="short side")
        long = data.draw(st.integers(short + 1, short + 30), label="long side")
        m_dim, n_dim = (short, long) if wide else (long, short)
        strengths = data.draw(st.lists(st.floats(0.1, 3.0), min_size=rank,
                                       max_size=rank), label="strengths")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        draw, signal = spike_draw(m_dim, n_dim, sorted(strengths, reverse=True),
                                  axis, seed, recipe)
        sample = signal.dense() + draw.y
        want = np.linalg.eigvalsh(sample @ sample.T)[::-1]
        for k in range(1, rank + 2):
            np.testing.assert_allclose(sample_spikes(draw, signal, k), want[:k],
                                       rtol=0, atol=1e-12 * want[0])

    def test_outliers_below_the_noise_top(self):
        # weak spikes that do not detach are read by the same count
        draw, signal = spike_draw(40, 80, [0.3, 0.2], axis=False, seed=3)
        sample = signal.dense() + draw.y
        want = np.linalg.eigvalsh(sample @ sample.T)[::-1][:3]
        assert want[0] < draw.gram_eigs.max()
        np.testing.assert_allclose(sample_spikes(draw, signal, 3), want,
                                   rtol=0, atol=1e-12 * want[0])

    @pytest.mark.parametrize("m_dim, n_dim", [(60, 90), (90, 60)])
    def test_factors_no_m_by_m_or_m_by_n_matrix(self, m_dim, n_dim, linalg_calls):
        # the draw's Gram factorization is reused: only the M x K signal
        # block and the 2K x 2K secular matrices are factored
        rank = 2
        draw, signal = spike_draw(m_dim, n_dim, [2.5, 1.5], axis=False, seed=5)
        for shapes in linalg_calls.values():
            shapes.clear()
        sample_spikes(draw, signal, rank + 1)
        assert linalg_calls["eigh"] == []
        assert set(linalg_calls["svd"]) == {(m_dim, rank)}
        assert set(linalg_calls["eigvalsh"]) == {(2 * rank, 2 * rank)}

    def test_locallaw_takes_no_svd(self):
        assert "linalg.svd" not in inspect.getsource(locallaw)


class TestGreenRepresentation:
    def test_magnitude_against_fluctuation_scale(self):
        # representation error is a lower-order correction: its median over
        # replications stays below a quarter of the fluctuation spread
        m_dim, n_dim, reps = 200, 400, 200
        sigma = make_covariance("identity", m_dim)
        signal = SignalModel.localized(math.sqrt(5.25), m_dim, n_dim)
        pop = deform(sigma, signal, 0.05)
        theory = asymptotic_quantities(sigma, signal, pop, LAW, n_dim)
        residuals, flucts = [], []
        for rep in range(reps):
            x = LAW.sample(stream(11, rep), (m_dim, n_dim)) / math.sqrt(n_dim)
            residuals.append(green_rep_residual(factor_noise(x, sigma), signal,
                                                theory)[0])
            lam1 = np.linalg.svd(signal.dense() + x, compute_uv=False)[0] ** 2
            flucts.append(math.sqrt(n_dim) * (lam1 - theory.theta[0]))
        assert np.median(residuals) <= 0.25 * np.std(flucts)

    def test_two_spikes_pass_independently(self):
        m_dim, n_dim = 120, 240
        sigma, signal, theory = two_spike_model(m_dim, n_dim)
        assert theory.K0 == 2
        res = np.array([
            green_rep_residual(factor_noise(
                LAW.sample(stream(13, rep), (m_dim, n_dim)) / math.sqrt(n_dim), sigma,
            ), signal, theory)
            for rep in range(40)
        ])
        fluct_scale = math.sqrt(theory.gauss_cov.max()
                                + 4 * (theory.theta_prime * signal.svals[:2]).max() ** 2)
        assert np.median(res[:, 0]) <= 0.5 * fluct_scale
        assert np.median(res[:, 1]) <= 0.5 * fluct_scale


# (M, N) strategies for the four orientations the spectral resolvent must serve
SHAPES = {
    "M<N": st.integers(2, 15).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(m + 1, m + 20))),
    "M=N": st.integers(2, 20).map(lambda m: (m, m)),
    "M>N": st.integers(2, 15).flatmap(
        lambda n: st.tuples(st.integers(n + 1, n + 20), st.just(n))),
    "M=1": st.integers(1, 20).map(lambda n: (1, n)),
}


def dense_oracle(b):
    """inv(H(z) - z) built from the bundle's y, independently of g_apply."""
    m_dim, n_dim = b.draw.y.shape
    h = np.zeros((m_dim + n_dim,) * 2)
    h[:m_dim, m_dim:] = math.sqrt(b.pi.z) * b.draw.y
    h[m_dim:, :m_dim] = math.sqrt(b.pi.z) * b.draw.y.T
    return np.linalg.inv(h - b.pi.z * np.eye(m_dim + n_dim))


class TestSpectralResolvent:
    @pytest.mark.parametrize("recipe", ["identity", "toeplitz"])
    @pytest.mark.parametrize("kind", sorted(SHAPES))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_inverse(self, kind, recipe, data):
        m_dim, n_dim = data.draw(SHAPES[kind])
        seed = data.draw(st.integers(0, 2**16))
        offset = data.draw(st.floats(0.2, 3.0))
        kwargs = {"rho": 0.3} if recipe == "toeplitz" else {}
        sigma = make_covariance(recipe, m_dim, **kwargs)
        edge = find_w_plus(esd(sigma), m_dim / n_dim)
        rng = stream(seed)
        x = rng.standard_normal((m_dim, n_dim)) / math.sqrt(n_dim)
        try:
            b = build_resolvent(factor_noise(x, sigma), edge.lambda_plus + offset, edge)
        except NumericalError:
            reject()
        oracle = dense_oracle(b)

        vec = rng.standard_normal(m_dim + n_dim)
        np.testing.assert_allclose(b.g_apply(vec), oracle @ vec, rtol=0, atol=1e-10)
        block = rng.standard_normal((m_dim + n_dim, 3))
        np.testing.assert_allclose(b.g_apply(block), oracle @ block, rtol=0, atol=1e-10)
        np.testing.assert_allclose(b.g, oracle, rtol=0, atol=1e-10)
        assert b.g_norm == pytest.approx(np.abs(np.linalg.eigvalsh(oracle)).max(),
                                         rel=1e-8)
        tr_gap = (np.trace(oracle[m_dim:, m_dim:])
                  - np.trace(oracle[:m_dim, :m_dim])) / n_dim
        assert tr_gap == pytest.approx(-(n_dim - m_dim) / (n_dim * b.pi.z), abs=1e-10)

        k = data.draw(st.integers(1, min(m_dim, n_dim, 3)))
        left = np.linalg.qr(rng.standard_normal((m_dim, k)))[0]
        right = np.linalg.qr(rng.standard_normal((n_dim, k)))[0]
        signal = SignalModel.from_factors(left, rng.uniform(0.5, 3.0, k), right)
        frak_u = np.zeros((m_dim + n_dim, 2 * k))
        frak_u[:m_dim, :k] = signal.left
        frak_u[m_dim:, k:] = signal.right
        d_inv = np.zeros((2 * k, 2 * k))
        d_inv[:k, k:] = d_inv[k:, :k] = np.diag(1.0 / signal.svals)
        expected = math.sqrt(b.pi.z) * (frak_u.T @ oracle @ frak_u) + d_inv
        np.testing.assert_allclose(master_matrix_g(b, signal), expected,
                                   rtol=0, atol=1e-10)


def planted(m_dim, n_dim, svals):
    """M x N matrix with the given singular values and generic vectors."""
    rng = stream(21)
    left = np.linalg.qr(rng.standard_normal((m_dim, m_dim)))[0]
    right = np.linalg.qr(rng.standard_normal((n_dim, m_dim)))[0]
    return (left * np.asarray(svals)) @ right.T


def forbid_factorizations(monkeypatch):
    """Make every dense factorization raise from here on."""
    def forbidden(*_args, **_kwargs):
        raise AssertionError("unexpected matrix factorization")
    for name in ("eigh", "eigvalsh", "svd", "inv"):
        monkeypatch.setattr(np.linalg, name, forbidden)


class TestBuildResolventGuards:
    M_DIM, N_DIM = 4, 8

    def sigma_and_edge(self):
        sigma = make_covariance("identity", self.M_DIM)
        return sigma, find_w_plus(esd(sigma), self.M_DIM / self.N_DIM)

    @pytest.mark.parametrize("factor, raises", [(1.0 + 1e-6, True), (1.0 - 1e-6, False)])
    def test_norm_limit(self, factor, raises, monkeypatch):
        # a singular value s with sqrt(z) s - z = -d puts ||G|| at exactly 1/d
        sigma, edge = self.sigma_and_edge()
        z = edge.lambda_plus + 1.0
        target = G_NORM_LIMIT * factor
        s_near = math.sqrt(z) - 1.0 / (target * math.sqrt(z))
        draw = factor_noise(planted(self.M_DIM, self.N_DIM, [s_near, 0.5, 0.4, 0.3]),
                            sigma)
        forbid_factorizations(monkeypatch)
        if raises:
            with pytest.raises(NumericalError):
                build_resolvent(draw, z, edge)
        else:
            b = build_resolvent(draw, z, edge)
            assert b.g_norm == pytest.approx(target, rel=1e-9)

    def test_edge_margin(self, monkeypatch):
        sigma, edge = self.sigma_and_edge()
        draw = factor_noise(planted(self.M_DIM, self.N_DIM, [0.5] * self.M_DIM), sigma)
        forbid_factorizations(monkeypatch)
        z_min = edge.lambda_plus + EDGE_MARGIN
        assert build_resolvent(draw, z_min, edge).pi.z == z_min
        with pytest.raises(DomainError):
            build_resolvent(draw, z_min - 1e-9, edge)
