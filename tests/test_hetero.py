import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab import ensemble, hetero
from spikelab.errors import ConfigError, DegenerateSpectrumError, DomainError
from spikelab.ensemble import equal_split_labels, make_noise_law, rep_bytes, stream
from spikelab.hetero import (
    Scenario,
    ScenarioCell,
    calibrate,
    default_grid,
    detect,
    draw_centers,
    draw_data,
    ds_rs_from_data,
    ds_rs_stats,
    figure2_samples,
    nearest_rank_quantile,
    null_top_eigs,
    run_power_experiment,
    run_size_experiment,
)
from spikelab.spectra import haar_orthogonal, make_covariance


class TestStatistics:
    def test_hand_arithmetic(self):
        ds, rs = ds_rs_stats([10, 8, 6, 5, 4, 3, 2], 4)
        assert ds == pytest.approx(5.0 / 3.0)
        assert rs == pytest.approx(5.0)

    def test_all_equal_is_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            ds_rs_stats([2.0] * 7, 4)

    def test_kstar_one_boundary_convention(self):
        assert ds_rs_stats([5.0, 3.0, 1.0], 1) == (0.0, 0.0)

    def test_too_few_eigenvalues(self):
        with pytest.raises(DomainError):
            ds_rs_stats([3.0, 2.0, 1.0], 3)

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            ds_rs_stats([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 4)

    def test_stack_matches_rows(self):
        eigs = -np.sort(-stream(3).uniform(0.0, 5.0, (6, 7)), axis=1)
        ds, rs = ds_rs_stats(eigs, 4)
        assert ds.shape == rs.shape == (6,)
        for b in range(6):
            assert ds_rs_stats(eigs[b], 4) == (ds[b], rs[b])
        assert [a.tolist() for a in ds_rs_stats(eigs[:, :3], 1)] == [[0.0] * 6] * 2
        tied = eigs.copy()
        tied[4, 4:] = tied[4, 3]
        with pytest.raises(DegenerateSpectrumError):
            ds_rs_stats(tied, 4)

    @given(st.integers(min_value=0, max_value=9))
    @settings(max_examples=10, deadline=None)
    def test_scale_invariance_power_of_two(self, k):
        # eigenvalues scale exactly by c^2 for c a power of two, so both
        # ratio statistics are bit-identical
        rng = stream(100, k)
        data = rng.standard_normal((40, 80))
        eigs = np.linalg.svd(data / math.sqrt(80), compute_uv=False)[:7] ** 2
        c = 2.0 ** (k - 4)
        scaled = np.linalg.svd(c * data / math.sqrt(80), compute_uv=False)[:7] ** 2
        assert ds_rs_stats(eigs, 4) == ds_rs_stats(scaled, 4)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance_general(self, c):
        rng = stream(101)
        data = rng.standard_normal((40, 80))
        base = np.linalg.svd(data, compute_uv=False)[:7] ** 2
        scaled = np.linalg.svd(c * data, compute_uv=False)[:7] ** 2
        ds0, rs0 = ds_rs_stats(base, 4)
        ds1, rs1 = ds_rs_stats(scaled, 4)
        assert ds1 == pytest.approx(ds0, rel=1e-9)
        assert rs1 == pytest.approx(rs0, rel=1e-9)


class TestCalibration:
    def test_nearest_rank_median(self):
        assert nearest_rank_quantile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert nearest_rank_quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0

    def test_bit_identical_recomputation(self):
        a = calibrate(4, 50, 200, master_seed=5)
        b = calibrate(4, 50, 200, master_seed=5)
        assert (a.cv_ds, a.cv_rs) == (b.cv_ds, b.cv_rs)

    def test_worker_count_irrelevant(self):
        a = calibrate(4, 50, 200, master_seed=6, workers=1)
        b = calibrate(4, 50, 200, master_seed=6, workers=4)
        assert (a.cv_ds, a.cv_rs) == (b.cv_ds, b.cv_rs)

    def test_chunk_budget_irrelevant(self, monkeypatch):
        runs = []
        for budget in (1, 2**30):
            monkeypatch.setattr(ensemble, "CHUNK_BYTES", budget)
            runs += [calibrate(3, 30, 150, master_seed=9, workers=w) for w in (1, 2)]
        assert len({(cv.cv_ds, cv.cv_rs) for cv in runs}) == 1

    def test_makes_no_linalg_call(self, linalg_calls):
        # the null's eigenvalues come from Sturm counts on its bidiagonal model
        calibrate(4, 100, 300, workers=1)
        assert all(calls == [] for calls in linalg_calls.values())

    def test_reps_floor(self):
        with pytest.raises(ConfigError):
            calibrate(4, 50, 99)

    def test_full_scale_brackets(self, cv_full):
        # published values: 3.0251 and 18.9920
        assert 2.90 <= cv_full.cv_ds <= 3.15
        assert 17.5 <= cv_full.cv_rs <= 20.5

    def test_seed_sensitivity_at_full_scale(self, cv_full):
        # quantile Monte-Carlo error oracle: relative SE of the 95% empirical
        # quantile at 30000 reps is ~0.5% for DS and ~1.2% for RS, so two
        # independent calibrations differ by < 2% resp. < 5% with margin
        other = calibrate(4, 100, 30000, master_seed=987654, workers=os.cpu_count())
        assert abs(other.cv_ds - cv_full.cv_ds) / cv_full.cv_ds < 0.02
        assert abs(other.cv_rs - cv_full.cv_rs) / cv_full.cv_rs < 0.05


def _white(m, n):
    return Scenario(m, n, make_noise_law("gaussian"), make_covariance("identity", m))


def _bidiagonal(m, n, rng):
    """The p x p lower-bidiagonal B of the Wishart model, drawn as the null
    sampler draws it: the diagonal's chi^2 values, then the subdiagonal's."""
    p, q = sorted((m, n))
    alpha2 = rng.chisquare(np.arange(q, q - p, -1))
    beta2 = rng.chisquare(np.arange(p - 1, 0, -1))
    return np.diag(np.sqrt(alpha2)) + np.diag(np.sqrt(beta2), -1)


SHAPES_WTS = [(3, 6), (6, 3), (5, 5)]   # wide, tall, square


class TestNullSampler:
    @pytest.mark.parametrize("m, n", [(100, 100), (40, 90), (90, 40), (7, 7)])
    def test_matches_dense_bidiagonal(self, m, n):
        r = min(7, m, n)
        got = null_top_eigs(_white(m, n), [stream(50, rep) for rep in range(6)], r)
        for rep in range(6):
            b = _bidiagonal(m, n, stream(50, rep))
            want = np.linalg.eigvalsh(b @ b.T / n)[::-1][:r]
            np.testing.assert_allclose(got[rep], want, rtol=0, atol=1e-13 * want[0])

    @pytest.mark.parametrize("m, n", SHAPES_WTS + [(20, 40)])
    def test_law_matches_the_data_path(self, m, n):
        # two-sample KS of each top eigenvalue against top_eigs of drawn data
        scipy_stats = pytest.importorskip("scipy.stats")
        reps, r = 10000, 3
        null = null_top_eigs(_white(m, n), [stream(51, m, n, rep) for rep in range(reps)], r)
        data = draw_data(_white(m, n), [stream(52, m, n, rep) for rep in range(reps)])
        dense = ensemble.top_eigs(data / math.sqrt(n), r)
        for k in range(r):
            assert scipy_stats.ks_2samp(null[:, k], dense[:, k]).pvalue >= 1e-3

    def test_replication_does_not_depend_on_its_chunk(self):
        rngs = [stream(53, rep) for rep in range(9)]
        chunk = null_top_eigs(_white(30, 50), rngs, 5)
        for rep in range(9):
            alone = null_top_eigs(_white(30, 50), [stream(53, rep)], 5)
            assert np.array_equal(chunk[rep], alone[0])
        assert null_top_eigs(_white(30, 50), [], 5).shape == (0, 5)

    @pytest.mark.parametrize("diag, off2, x, below", [
        # eigenvalues 2 -+ sqrt(2); pivots 0, -inf
        ([1.0, 3.0], [1.0], 1.0, 1),
        # eigenvalues 2 - sqrt(2), 2, 2 + sqrt(2); pivots 0, -inf, 0
        ([2.0, 2.0, 2.0], [1.0, 1.0], 2.0, 1),
        ([2.0, 2.0, 2.0], [1.0, 1.0], 2.0 - 2**-40, 1),
        ([2.0, 2.0, 2.0], [1.0, 1.0], 2.0 + 2**-40, 2),
        # about 0, 2 and 3 -+ sqrt(6); pivots 0, -inf, 4, -0.5
        ([1.0, 1.0, 5.0, 1.0], [1.0, 1e-300, 2.0], 1.0, 2),
    ])
    def test_zero_pivot_counts(self, diag, off2, x, below):
        counted = hetero._count_below(np.array([x]), np.array(diag)[:, None],
                                      np.array(off2)[:, None], np.empty((len(diag), 1)))
        assert counted.tolist() == [below]

    def test_identity_gaussian_cell_does_not_depend_on_chunks(self, monkeypatch):
        # a table 1 identity/Gaussian size cell's DS and RS per replication
        cells = []
        for budget in (1, 2**30):
            monkeypatch.setattr(ensemble, "CHUNK_BYTES", budget)
            cells += [hetero._map_draws(_white(12, 24), 4, 9, workers, 19, 0)
                      for workers in (1, 2)]
        assert all(np.array_equal(a, b) for cell in cells[1:] for a, b in zip(cells[0], cell))


class TestDetect:
    @pytest.fixture(scope="class")
    def cv(self):
        return calibrate(4, 100, 2000, master_seed=7)

    def test_null_data_mostly_accepted(self, cv):
        rejections = 0
        for rep in range(100):
            data = stream(8, rep).standard_normal((100, 200))
            res = detect(data, 4, cv)
            rejections += res.reject_ds
        assert rejections <= 20

    def test_strong_signal_rejected(self, cv):
        rng = stream(9)
        data = rng.standard_normal((100, 200))
        shift = np.outer(rng.uniform(0.5, 1.0, 100), np.sign(np.arange(200) - 99.5))
        res = detect(data + shift, 4, cv)
        assert res.reject_ds and res.reject_rs

    def test_zero_row_is_fine(self, cv):
        data = stream(10).standard_normal((50, 120))
        data[7] = 0.0
        detect(data, 4, cv)  # must not raise

    def test_kstar_floor(self, cv):
        with pytest.raises(ConfigError):
            detect(np.ones((10, 20)), 1, cv)

    @pytest.mark.parametrize("center", [False, True])
    def test_stack_matches_single_matrices(self, cv, center):
        data = stream(12).standard_normal((5, 30, 45))
        data[1] += 3.0
        stacked = detect(data, 4, cv, center=center)
        for b in range(5):
            alone = detect(data[b], 4, cv, center=center)
            assert (alone.ds, alone.rs) == (stacked.ds[b], stacked.rs[b])
            assert (alone.reject_ds, alone.reject_rs) == (stacked.reject_ds[b],
                                                          stacked.reject_rs[b])


def _haar_three_clusters(m, n, rng):
    centers = draw_centers(3, m, rng, 0.5)
    noise = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), (m, n))
    spectrum = rng.uniform(1.0, 1.5, size=m)
    basis = haar_orthogonal(rng.standard_normal((m, m)))
    sqrt = (basis * np.sqrt(spectrum)) @ basis.T
    scenario = Scenario(m, n, make_noise_law("uniform-sym"), (1.0, 1.5), 3, 0.5)
    # draw_data returns the draw rotated into its basis, by the basis' Q'
    return scenario, basis.T @ (sqrt @ noise + centers[:, equal_split_labels(n, 3)])


def _fixed_two_centers(m, n, rng):
    centers = np.zeros((m, 2))
    centers[0] = (1.5, -1.5)
    noise = rng.standard_normal((m, n))
    scenario = Scenario(m, n, make_noise_law("gaussian"),
                        make_covariance("identity", m), centers=centers)
    return scenario, noise + centers[:, equal_split_labels(n, 2)]


def _toeplitz_two_clusters(m, n, rng):
    centers = draw_centers(2, m, rng, 1.0)
    noise = rng.standard_normal((m, n))
    sigma = make_covariance("toeplitz", m, rho=0.3)
    scenario = Scenario(m, n, make_noise_law("gaussian"), sigma, 2)
    # rotated by the basis' V', as draw_data returns it
    return scenario, sigma.basis.T @ (sigma.function(np.sqrt) @ noise
                                      + centers[:, equal_split_labels(n, 2)])


@pytest.mark.parametrize("hand_built", [_haar_three_clusters, _fixed_two_centers,
                                        _toeplitz_two_clusters])
def test_draw_data_matches_hand_built_draw(hand_built):
    # pins the stream order (centres, noise, Haar basis) that keeps the
    # tables and figure 2 on their streams: draw i of a chunk reads only
    # generator i
    data = draw_data(hand_built(30, 61, stream(40, 2, 0))[0],
                     [stream(40, 2, rep) for rep in range(3)])
    assert data.shape == (3, 30, 61)
    for rep in range(3):
        _scenario, expected = hand_built(30, 61, stream(40, 2, rep))
        np.testing.assert_allclose(data[rep], expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("sigma", [(1.0, 1.5), make_covariance("toeplitz", 12, rho=0.2)])
def test_draw_data_chunk_is_its_draws(sigma):
    scenario = Scenario(12, 17, make_noise_law("uniform-sym"), sigma, clusters=2)
    chunk = draw_data(scenario, [stream(41, rep) for rep in range(4)])
    for rep in range(4):
        assert np.array_equal(chunk[rep], draw_data(scenario, [stream(41, rep)])[0])


def test_haar_bounds_checked():
    with pytest.raises(ConfigError):
        Scenario(5, 8, make_noise_law("gaussian"), (1.5, 1.0))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=99))
@settings(max_examples=40, deadline=None)
def test_stacked_haar_matches_single_matrices(m, batch, seed):
    gaussian = stream(seed).standard_normal((batch, m, m))
    stacked = haar_orthogonal(gaussian)
    for b in range(batch):
        # one QR per matrix, Q's columns times the signs of R's diagonal
        q, r = np.linalg.qr(gaussian[b])
        assert np.array_equal(stacked[b], q * np.copysign(1.0, np.diag(r)))
        assert np.array_equal(stacked[b], haar_orthogonal(gaussian[b]))


class TestExperiments:
    @pytest.fixture(scope="class")
    def cv(self):
        return calibrate(4, 100, 4000, master_seed=11)

    def test_size_cell_near_nominal(self, cv):
        grid = [ScenarioCell("identity", "gaussian", 200, 100)]
        report = run_size_experiment(grid, 500, cv, master_seed=12)
        assert 0.02 <= report.rates_ds[0] <= 0.09
        assert 0.02 <= report.rates_rs[0] <= 0.09

    def test_deterministic_given_seed(self, cv):
        grid = [ScenarioCell("toeplitz", "uniform-sym", 100, 200)]
        a = run_size_experiment(grid, 60, cv, master_seed=13, workers=1)
        b = run_size_experiment(grid, 60, cv, master_seed=13, workers=3)
        assert np.array_equal(a.rates_ds, b.rates_ds)
        assert np.array_equal(a.rates_rs, b.rates_rs)

    @pytest.mark.parametrize("kind", ["size", "power"])
    def test_chunking_leaves_rates_unchanged(self, kind, monkeypatch):
        # statistics near the cutoffs make every rejection count
        grid = default_grid(shapes=((24, 12), (12, 24)))
        cv = calibrate(4, 12, 200, quantile=0.5, master_seed=18)
        reports = []
        for budget in (1, 2**30):
            monkeypatch.setattr(ensemble, "CHUNK_BYTES", budget)
            for workers in (1, 2):
                if kind == "size":
                    reports.append(run_size_experiment(grid, 9, cv, 19, workers))
                else:
                    reports.append(run_power_experiment(2, grid, 9, cv, 19, workers,
                                                        center_scale=0.3))
        rates = {(tuple(r.rates_ds), tuple(r.rates_rs)) for r in reports}
        assert len(rates) == 1
        assert 0.0 < np.mean(reports[0].rates_ds) < 1.0

    def test_toeplitz_cells_factor_whole_chunks(self, cv, linalg_calls):
        # a data-path size cell makes one stacked eigvalsh per chunk
        grid = [ScenarioCell("toeplitz", "gaussian", 100, 100)]
        run_size_experiment(grid, 300, cv, master_seed=20, workers=1)
        shapes = linalg_calls["eigvalsh"]
        assert sum(shape[0] for shape in shapes) == 300
        assert all(len(shape) == 3 and shape[0] > 1 and shape[1:] == (100, 100)
                   for shape in shapes)
        assert linalg_calls["qr"] == linalg_calls["eigh"] == linalg_calls["svd"] == []

    def test_haar_cells_factor_whole_chunks(self, cv, linalg_calls):
        grid = [ScenarioCell("haar", "gaussian", 40, 20)]
        run_size_experiment(grid, 7, cv, master_seed=20, workers=1)
        assert linalg_calls["qr"] == [(7, 20, 20)]
        assert linalg_calls["eigvalsh"] == [(7, 20, 20)]

    def test_haar_factors_count_toward_the_chunk_budget(self, cv, linalg_calls,
                                                        monkeypatch):
        # an M = 20, N = 40 Haar draw holds the ensemble.rep_bytes stacks plus
        # three 20 x 20 factors: a budget of three such draws (four without
        # the factors) gives chunks of 3, 3 and 1
        monkeypatch.setattr(ensemble, "CHUNK_BYTES", 3 * (rep_bytes(20, 40) + 3 * 8 * 20**2))
        run_size_experiment([ScenarioCell("haar", "gaussian", 40, 20)], 7, cv,
                            master_seed=20, workers=1)
        assert [shape[0] for shape in linalg_calls["qr"]] == [3, 3, 1]

    def test_power_beats_size(self, cv):
        grid = [ScenarioCell("identity", "gaussian", 200, 100)]
        power = run_power_experiment(2, grid, 200, cv, master_seed=14)
        assert power.rates_ds[0] >= 0.95

    def test_monotone_power_in_signal_strength(self, cv):
        grid = [ScenarioCell("identity", "gaussian", 200, 100)]
        rates = []
        for scale in (1.0, 2.0, 4.0):
            rep = run_power_experiment(2, grid, 1000, cv, master_seed=15,
                                       center_scale=scale)
            rates.append(rep.rates_ds[0])
        assert rates[1] >= rates[0] - 0.01
        assert rates[2] >= rates[1] - 0.01

    def test_empty_report(self, cv):
        report = run_size_experiment(default_grid()[:1], 0, cv, master_seed=16)
        assert report.rates_ds[0] == 0.0

    def test_table_layout(self, cv):
        grid = default_grid()
        report = run_size_experiment(grid, 5, cv, master_seed=17)
        header, rows = report.to_rows()
        assert header[:2] == ["sigma", "statistic"]
        assert len(rows) == 6  # 3 covariance recipes x 2 statistics
        assert len(header) == 2 + 4  # 2 laws x 2 shapes


def test_figure2_samples_do_not_depend_on_chunks(monkeypatch):
    runs = []
    for budget in (1, 2**30):
        monkeypatch.setattr(ensemble, "CHUNK_BYTES", budget)
        runs += [figure2_samples(3, 21, workers) for workers in (1, 2)]
    first = runs[0]
    assert [(m, h) for m, h, _ds, _rs in first] == [
        (m, h) for m in (100, 200, 400) for h in ("null", "alt")]
    for other in runs[1:]:
        for (_m, _h, ds, rs), (_m2, _h2, ds2, rs2) in zip(first, other):
            assert np.array_equal(ds, ds2) and np.array_equal(rs, rs2)
    # replication 1 of (M = 100, alt) replays from its own stream
    centers = np.zeros((100, 2))
    centers[0] = (1.5, -1.5)
    scenario = Scenario(100, 200, make_noise_law("gaussian"),
                        make_covariance("identity", 100), centers=centers)
    alone = ds_rs_from_data(draw_data(scenario, [stream(21, 0, 1, 1)])[0], 4)
    assert alone == (first[1][2][1], first[1][3][1])
