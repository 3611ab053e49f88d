import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab.errors import ConfigError, DegenerateSpectrumError, DomainError
from spikelab.ensemble import equal_split_labels, make_noise_law, stream
from spikelab.hetero import (
    Scenario,
    ScenarioCell,
    calibrate,
    default_grid,
    detect,
    draw_centers,
    draw_data,
    ds_rs_stats,
    nearest_rank_quantile,
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
        other = calibrate(4, 100, 30000, master_seed=987654)
        assert abs(other.cv_ds - cv_full.cv_ds) / cv_full.cv_ds < 0.02
        assert abs(other.cv_rs - cv_full.cv_rs) / cv_full.cv_rs < 0.05


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


def _haar_three_clusters(m, n, rng):
    centers = draw_centers(3, m, rng, 0.5)
    noise = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), (m, n))
    spectrum = rng.uniform(1.0, 1.5, size=m)
    basis = haar_orthogonal(m, rng)
    sqrt = (basis * np.sqrt(spectrum)) @ basis.T
    scenario = Scenario(m, n, make_noise_law("uniform-sym"), (1.0, 1.5), 3, 0.5)
    return scenario, sqrt @ noise + centers[:, equal_split_labels(n, 3)]


def _fixed_two_centers(m, n, rng):
    centers = np.zeros((m, 2))
    centers[0] = (1.5, -1.5)
    noise = rng.standard_normal((m, n))
    scenario = Scenario(m, n, make_noise_law("gaussian"),
                        make_covariance("identity", m), centers=centers)
    return scenario, noise + centers[:, equal_split_labels(n, 2)]


@pytest.mark.parametrize("hand_built", [_haar_three_clusters, _fixed_two_centers])
def test_draw_data_matches_hand_built_draw(hand_built):
    # pins the stream order (centres, noise, Haar basis) that keeps the
    # tables and figure 2 on their streams
    scenario, expected = hand_built(30, 61, stream(40, 2, 7))
    data = draw_data(scenario, stream(40, 2, 7))
    assert data.shape == (30, 61)
    np.testing.assert_allclose(data, expected, rtol=0, atol=1e-12)


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
