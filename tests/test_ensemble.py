import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab.errors import ConfigError, DomainError
from spikelab.spectra import esd, make_covariance
from spikelab.stieltjes import find_w_plus
from spikelab.spikes import SignalModel
from spikelab import ensemble
from spikelab.ensemble import (
    SpikeMCConfig,
    _discrete_sampler,
    empirical_cf_check,
    equal_split_labels,
    exact_even_moments,
    make_noise_law,
    mixture_signal,
    parallel_map,
    rep_bytes,
    rep_chunks,
    run_spike_mc,
    stream,
    top_eigs,
)

from conftest import GEOM, MC_REPS


class TestNoiseLaws:
    def test_uniform_cumulants_exact(self):
        law = make_noise_law("uniform-sym")
        # E x^4 = 9/5 for Unif(-sqrt3, sqrt3)
        assert law.kappa3 == 0.0
        assert law.kappa4 == float(Fraction(9, 5) - 3)

    def test_three_point_matches_gaussian_moments(self):
        m2, m4 = exact_even_moments([3], [Fraction(1, 6)])
        assert (m2, m4) == (1, 3)
        law = make_noise_law("three-point")
        assert law.kappa3 == 0.0 and law.kappa4 == 0.0

    def test_four_point_matches_gaussian_moments(self):
        m2, m4 = exact_even_moments([Fraction(1, 2), 5],
                                    [Fraction(4, 9), Fraction(1, 18)])
        assert (m2, m4) == (1, 3)
        law = make_noise_law("four-point")
        assert law.kappa3 == 0.0 and law.kappa4 == 0.0

    def test_shifted_exponential_cumulants(self):
        law = make_noise_law("shifted-exponential")
        assert (law.kappa3, law.kappa4) == (2.0, 6.0)

    def test_discrete_standardization(self):
        law = make_noise_law("discrete", atoms=[0.0, 1.0], probs=[0.5, 0.5])
        rng = stream(0)
        draws = law.sample(rng, 200000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.01
        # Rademacher after standardization: kappa3 = 0, kappa4 = -2
        assert law.kappa3 == pytest.approx(0.0, abs=1e-12)
        assert law.kappa4 == pytest.approx(-2.0, abs=1e-12)

    def test_discrete_invalid_probs(self):
        with pytest.raises(ConfigError):
            make_noise_law("discrete", atoms=[0.0, 1.0], probs=[0.7, 0.7])

    @pytest.mark.parametrize("kind", ["gaussian", "uniform-sym", "three-point",
                                      "four-point", "shifted-exponential"])
    def test_sample_moments_and_cf(self, kind):
        law = make_noise_law(kind)
        draws = law.sample(stream(1), 100000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.03
        ts = np.linspace(-3, 3, 7)
        vals = law.cf(ts)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)
        assert law.cf(np.array([0.0]))[0] == pytest.approx(1.0)
        # empirical characteristic function agrees with the analytic one
        emp = np.exp(1j * np.outer(ts, draws[:10000])).mean(axis=1)
        assert np.abs(emp - vals).max() < 0.05


class _FixedUniforms:
    """Stands in for a Generator whose ``random`` returns given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        return self.u.reshape(shape)


def _searchsorted_draw(atoms, probs, u):
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.asarray(atoms, dtype=float)[np.searchsorted(cum, u, side="right")]


class TestDiscreteSampler:
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_searchsorted_reference(self, weights, seed):
        probs = np.asarray(weights) + 1e-3
        probs /= probs.sum()
        atoms = np.arange(len(probs)) - 0.5 * len(probs)
        got = _discrete_sampler(atoms, probs)(stream(seed), (7, 9))
        want = _searchsorted_draw(atoms, probs, stream(seed).random((7, 9)))
        assert np.array_equal(got, want)

    def test_uniform_on_a_cumulative_boundary(self):
        # searchsorted(side="right") puts u == cum[j] above atom j; so must
        # the sampler, with zero-probability atoms and ties in cum included
        atoms = [-2.0, -1.0, 0.0, 1.0, 2.0]
        probs = [0.25, 0.0, 0.5, 0.25, 0.0]
        cum = np.cumsum(probs)
        u = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0), [0.0]])
        u = u[u < 1.0]   # Generator.random draws from [0, 1)
        got = _discrete_sampler(atoms, probs)(_FixedUniforms(u), u.shape)
        assert np.array_equal(got, _searchsorted_draw(atoms, probs, u))


class TestChunks:
    def test_pool_is_capped_by_items_and_cpus(self, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(ensemble, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 3)
        assert parallel_map(lambda x: 2 * x, range(5), workers=100000) == [0, 2, 4, 6, 8]
        assert parallel_map(lambda x: x, range(2), workers=100000) == [0, 1]
        assert started == [3, 2]

    def test_chunks_follow_the_capped_pool(self, monkeypatch):
        monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 3)
        chunks = rep_chunks(64, 100000, rep_bytes(10, 10))
        assert [len(c) for c in chunks] == [22, 22, 20]
        assert [i for c in chunks for i in c] == list(range(64))

    def test_chunks_respect_the_byte_budget(self, monkeypatch):
        monkeypatch.setattr(ensemble, "CHUNK_BYTES", 5 * rep_bytes(20, 30))
        chunks = rep_chunks(23, 1, rep_bytes(20, 30))
        assert [len(c) for c in chunks] == [5, 5, 5, 5, 3]
        assert rep_chunks(3, 1, 10 * ensemble.CHUNK_BYTES) == [range(0, 1), range(1, 2),
                                                                range(2, 3)]
        assert rep_chunks(0, 2, 8) == [range(0, 0)]


class TestTopEigs:
    def test_diagonal_case(self):
        y = np.zeros((3, 5))
        y[0, 0], y[1, 1] = 3.0, 2.0
        np.testing.assert_allclose(top_eigs(y, 2), [9.0, 4.0], atol=1e-12)

    def test_gram_vs_svd(self):
        # the squared singular values are the oracle; a tall input takes the
        # y^T y branch.  The whole spectrum is good to about eps * lambda_1.
        for shape in ((40, 90), (60, 60), (90, 40)):
            y = stream(8).standard_normal(shape) / 10.0
            svals_sq = np.linalg.svd(y, compute_uv=False) ** 2
            np.testing.assert_allclose(top_eigs(y, 7), svals_sq[:7], rtol=1e-12)
            np.testing.assert_allclose(top_eigs(y, min(shape)), svals_sq,
                                       rtol=0, atol=1e-12 * svals_sq[0])

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            top_eigs(np.ones((3, 4)), 4)
        with pytest.raises(DomainError):
            top_eigs(np.ones((2, 4, 3)), 4)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=99))
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_single_matrices(self, m, n, batch, seed):
        # M < N, M = N and M > N take the two Gram branches on a stack
        y = stream(seed).standard_normal((batch, m, n))
        r = min(m, n)
        stacked = top_eigs(y, r)
        assert stacked.shape == (batch, r)
        for b in range(batch):
            assert np.array_equal(stacked[b], top_eigs(y[b], r))

    def test_edge_rigidity_band(self):
        # largest undeformed eigenvalue concentrates at the edge at rate N^(-2/3)
        m, n = 100, 200
        law = make_noise_law("gaussian")
        edge = find_w_plus(esd(make_covariance("identity", m)), m / n)
        band = 10.0 * n ** (-2.0 / 3.0)
        hits = 0
        reps = 500
        for rep in range(reps):
            x = law.sample(stream(42, rep), (m, n)) / math.sqrt(n)
            lam1 = top_eigs(x, 1)[0]
            hits += abs(lam1 - edge.lambda_plus) <= band
        assert hits / reps >= 0.95


class TestRunSpikeMc:
    def test_reproducible_across_worker_counts(self, localized_setup):
        sigma, signal, _pop = localized_setup
        law = make_noise_law("three-point")
        kw = dict(sigma=sigma, signal=signal, law=law, reps=8, master_seed=99,
                  couple_theta=True)
        serial = run_spike_mc(SpikeMCConfig(**kw, workers=1))
        threaded = run_spike_mc(SpikeMCConfig(**kw, workers=4))
        assert np.array_equal(serial.lambdas, threaded.lambdas)
        assert np.array_equal(serial.theta_samples, threaded.theta_samples)

    @pytest.mark.parametrize("model", ["additive", "multiplicative"])
    def test_chunking_leaves_records_unchanged(self, model, monkeypatch):
        # one replication per chunk versus whole chunks, at one and two workers
        m, n = 20, 40
        rng = stream(4)
        left = np.linalg.qr(rng.standard_normal((m, 2)))[0]
        right = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        cfg = dict(sigma=make_covariance("toeplitz", m, rho=0.3),
                   signal=SignalModel.from_factors(left, [2.5, 2.0], right),
                   law=make_noise_law("three-point"), reps=11, master_seed=8,
                   model=model, couple_theta=model == "additive", n_top=3)
        runs = []
        for budget in (1, 2**30):
            monkeypatch.setattr(ensemble, "CHUNK_BYTES", budget)
            runs += [run_spike_mc(SpikeMCConfig(**cfg, workers=w)) for w in (1, 2)]
        assert runs[0].fluctuations.shape == (11, 2)
        for other in runs[1:]:
            assert np.array_equal(other.lambdas, runs[0].lambdas)
            assert np.array_equal(other.fluctuations, runs[0].fluctuations)
            if model == "additive":
                assert np.array_equal(other.theta_samples, runs[0].theta_samples)
            else:
                assert other.theta_samples is None

    def test_multiplicative_run_factors_only_its_root(self, eigh_calls):
        # the theory reads Sigma's eigendata and a K x K secular equation; the
        # one dense factorization left is the root of Sigma + S S^T
        m, n = 20, 40
        rng = stream(3)
        left = np.linalg.qr(rng.standard_normal((m, 2)))[0]
        right = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        run_spike_mc(SpikeMCConfig(
            make_covariance("toeplitz", m, rho=0.3),
            SignalModel.from_factors(left, [2.0, 1.5], right),
            make_noise_law("gaussian"), reps=3, master_seed=1, model="multiplicative"))
        assert [shape for shape in eigh_calls if max(shape) > 2] == [(m, m)]

    @pytest.mark.parametrize("model", ["additive", "multiplicative"])
    def test_records_replay_from_their_streams(self, model):
        # record i is the top of S + Sigma^(1/2) X (additive) or of
        # (Sigma + S S^T)^(1/2) X (multiplicative), with X = law / sqrt(N)
        # drawn from stream(master_seed, i)
        m, n, seed, strengths = 30, 60, 77, [2.0, 1.5]
        rng = stream(5)
        left = np.linalg.qr(rng.standard_normal((m, 2)))[0]
        right = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        law = make_noise_law("four-point")
        out = run_spike_mc(SpikeMCConfig(
            make_covariance("toeplitz", m, rho=0.3),
            SignalModel.from_factors(left, strengths, right), law, reps=4,
            master_seed=seed, model=model, n_top=3))
        idx = np.arange(m)
        sigma = 0.3 ** np.abs(idx[:, None] - idx[None, :])
        s = (left * strengths) @ right.T
        vals, vecs = np.linalg.eigh(sigma if model == "additive" else sigma + s @ s.T)
        root = (vecs * np.sqrt(vals)) @ vecs.T
        shift = s if model == "additive" else 0.0
        for i, rep in enumerate(out.rep_ids):
            x = law.sample(stream(seed, rep), (m, n)) / math.sqrt(n)
            svals = np.linalg.svd(root @ x + shift, compute_uv=False)
            np.testing.assert_allclose(out.lambdas[i], svals[:3] ** 2, rtol=1e-12)

    def test_subcritical_returns_raw_eigenvalues(self):
        sigma = make_covariance("identity", 40)
        signal = SignalModel.localized(0.5, 40, 80)
        out = run_spike_mc(SpikeMCConfig(sigma, signal, make_noise_law("gaussian"),
                                         reps=3, master_seed=1, n_top=2))
        assert out.lambdas.shape == (3, 2)
        assert out.fluctuations.shape == (3, 0)
        assert out.theory is None

    def test_fluctuation_mean_small(self, mc_runs):
        out = mc_runs("gaussian")
        fl = out.fluctuations[:, 0]
        se = fl.std(ddof=1) / math.sqrt(MC_REPS)
        assert abs(fl.mean()) <= 3.0 * se

    def test_multiplicative_model_gaussian_shape(self, mc_runs):
        from scipy.stats import kstest
        lam = mc_runs("gaussian", "multiplicative").lambdas[:, 0]
        stat = kstest(lam, "norm", args=(lam.mean(), lam.std(ddof=1))).statistic
        assert stat < 0.05

    def test_localized_component_has_the_entry_law(self, mc_runs):
        # for the localized signal the nonuniversal part reduces to a single
        # rescaled matrix entry; under the three-point law the atom at zero
        # keeps exactly its 2/3 mass
        out = mc_runs("three-point")
        ratio = out.theta_samples[:, 0] / (
            2.0 * out.theory.theta_prime[0] * math.sqrt(GEOM["d2"])
        )
        mass0 = np.mean(np.abs(ratio) < 1e-9)
        assert abs(mass0 - 2.0 / 3.0) <= 3.0 / math.sqrt(MC_REPS)
        targets = np.array([-math.sqrt(3), 0.0, math.sqrt(3)])
        dist_to_atom = np.abs(ratio[:, None] - targets).min(axis=1)
        assert dist_to_atom.max() <= 1e-9


class TestMixtureSignal:
    def test_two_balanced_clusters(self):
        m, n = 50, 100
        rng = np.random.default_rng(10)
        c1 = rng.uniform(0.2, 0.5, size=m)
        centers = np.column_stack([c1, -c1])
        signal, counts = mixture_signal(centers, "equal", n)
        assert counts.tolist() == [50, 50]
        assert signal.rank == 1
        assert signal.svals[0] == pytest.approx(np.linalg.norm(c1), rel=1e-12)
        assert np.abs(signal.right[:, 0]).max() == pytest.approx(1 / math.sqrt(n),
                                                                 rel=1e-10)

    def test_three_cluster_zero_column_mean(self):
        m, n = 30, 90
        rng = np.random.default_rng(11)
        c1 = rng.uniform(0.0, 0.4, size=m)
        c2 = rng.uniform(-0.3, 0.0, size=m)
        centers = np.column_stack([c1, c2, -(c1 + c2)])
        signal, _counts = mixture_signal(centers, "equal", n)
        assert np.abs(signal.dense().mean(axis=1)).max() <= 1e-14

    def test_empty_cluster_warns(self):
        centers = np.ones((5, 3))
        labels = np.zeros(12, dtype=int)  # clusters 1 and 2 empty
        with pytest.warns(UserWarning, match="empty cluster"):
            mixture_signal(centers, labels, 12)

    def test_probabilistic_assignment(self):
        centers = np.column_stack([np.ones(20), -np.ones(20)])
        signal, counts = mixture_signal(centers, np.array([0.5, 0.5]), 200,
                                        rng=stream(12))
        assert counts.sum() == 200 and signal.rank >= 1

    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=10, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_equal_split_exact_proportions(self, k, n):
        labels = equal_split_labels(n, k)
        counts = np.bincount(labels, minlength=k)
        assert counts.sum() == n
        assert counts.max() - counts.min() <= 1


class TestEmpiricalCf:
    def test_zero_arguments_exact(self, mc_runs):
        out = mc_runs("gaussian")
        cmp = empirical_cf_check(out, out.theory, [0.0], [0.0])
        assert cmp.empirical == 1.0 and cmp.predicted == 1.0

    def test_phi_only_matches_gaussian_cf(self, mc_runs):
        out = mc_runs("gaussian")
        cmp = empirical_cf_check(out, out.theory, [1.0], [0.0])
        assert cmp.predicted == pytest.approx(
            math.exp(-0.5 * out.theory.gauss_cov[0, 0]), abs=1e-12
        )
        assert cmp.gap <= 4.0 / math.sqrt(MC_REPS) + 0.05

    def test_symmetric_law_factorizes(self, mc_runs):
        from spikelab.spikes import theta_component_cf
        out = mc_runs("three-point")
        th = out.theory
        s, t = [0.7], [0.9]
        cmp = empirical_cf_check(out, th, s, t)
        v_quad = float(np.array(s) @ th.gauss_cov @ np.array(s))
        factorized = (math.exp(-0.5 * v_quad)
                      * theta_component_cf(np.array(t), th, out.config.law, th.N))
        assert cmp.predicted == pytest.approx(factorized, abs=1e-15)

    def test_requires_coupling(self, mc_runs):
        out = mc_runs("gaussian", "multiplicative")  # coupling off for this model
        with pytest.raises(DomainError):
            empirical_cf_check(out, mc_runs("gaussian").theory, [1.0], [0.0])


class TestConvergenceRate:
    def test_median_deviation_halves_from_n_to_4n(self, rate_medians):
        # the almost-sure limit is approached at the parametric rate
        ratio = rate_medians[200] / rate_medians[800]
        assert 1.6 <= ratio <= 2.6
