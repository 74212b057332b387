import numpy as np
import pytest

from repro.distance.dtw import dtw_distance, envelope, lb_keogh
from repro.distance.euclidean import euclidean
from tests.oracles import dtw_distance_reference


class TestDtw:
    def test_identical_series_zero(self, rng):
        a = rng.standard_normal(20)
        assert dtw_distance(a, a) == 0.0

    def test_matches_reference(self, rng):
        for _ in range(40):
            n, m = rng.integers(2, 25, size=2)
            a, b = rng.standard_normal(int(n)), rng.standard_normal(int(m))
            w = None if rng.random() < 0.3 else int(rng.integers(0, 10))
            assert abs(dtw_distance(a, b, w) - dtw_distance_reference(a, b, w)) < 1e-9

    def test_band_zero_equals_euclidean_same_length(self, rng):
        a, b = rng.standard_normal(15), rng.standard_normal(15)
        assert abs(dtw_distance(a, b, 0) - euclidean(a, b)) < 1e-9

    def test_unconstrained_no_larger_than_euclidean(self, rng):
        a, b = rng.standard_normal(12), rng.standard_normal(12)
        assert dtw_distance(a, b) <= euclidean(a, b) + 1e-9

    def test_wider_band_never_increases_distance(self, rng):
        a, b = rng.standard_normal(20), rng.standard_normal(20)
        distances = [dtw_distance(a, b, w) for w in (0, 2, 5, 10, None)]
        for d_narrow, d_wide in zip(distances, distances[1:]):
            assert d_wide <= d_narrow + 1e-9

    def test_shifted_pattern_warps_to_near_zero(self):
        t = np.linspace(0, 4 * np.pi, 60)
        a = np.sin(t)
        b = np.sin(t + 0.4)
        assert dtw_distance(a, b) < euclidean(a, b) / 2

    def test_different_lengths(self):
        a = np.array([0.0, 1.0, 2.0])
        b = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.isfinite(dtw_distance(a, b, 1))

    def test_cutoff_returns_inf(self, rng):
        a, b = rng.standard_normal(30), rng.standard_normal(30) + 5
        d = dtw_distance(a, b, 3)
        assert dtw_distance(a, b, 3, cutoff=d / 2) == float("inf")

    def test_cutoff_above_distance_is_exact(self, rng):
        a, b = rng.standard_normal(30), rng.standard_normal(30)
        d = dtw_distance(a, b, 3)
        assert abs(dtw_distance(a, b, 3, cutoff=d * 2 + 1) - d) < 1e-9

    def test_symmetry(self, rng):
        a, b = rng.standard_normal(18), rng.standard_normal(18)
        assert abs(dtw_distance(a, b, 4) - dtw_distance(b, a, 4)) < 1e-9

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            dtw_distance(np.array([]), np.arange(3.0))

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            dtw_distance(np.zeros((2, 2)), np.arange(3.0))


class TestEnvelope:
    def test_contains_series(self, rng):
        series = rng.standard_normal(30)
        upper, lower = envelope(series, 3)
        assert (upper >= series).all() and (lower <= series).all()

    def test_window_zero_is_identity(self, rng):
        series = rng.standard_normal(10)
        upper, lower = envelope(series, 0)
        np.testing.assert_array_equal(upper, series)
        np.testing.assert_array_equal(lower, series)

    def test_matches_naive(self, rng):
        series = rng.standard_normal(25)
        w = 4
        upper, lower = envelope(series, w)
        for i in range(25):
            seg = series[max(0, i - w) : i + w + 1]
            assert upper[i] == seg.max()
            assert lower[i] == seg.min()

    def test_huge_window_is_global_extrema(self, rng):
        series = rng.standard_normal(10)
        upper, lower = envelope(series, 50)
        assert np.all(upper == series.max()) and np.all(lower == series.min())

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError, match=">= 0"):
            envelope(np.arange(5.0), -1)


class TestLbKeogh:
    def test_lower_bounds_dtw(self, rng):
        for _ in range(30):
            w = int(rng.integers(0, 6))
            a, b = rng.standard_normal(20), rng.standard_normal(20)
            upper, lower = envelope(a, w)
            assert lb_keogh(b, upper, lower) <= dtw_distance(a, b, w) + 1e-9

    def test_zero_when_inside_tube(self):
        series = np.zeros(10)
        upper, lower = np.ones(10), -np.ones(10)
        assert lb_keogh(series, upper, lower) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="identical shapes"):
            lb_keogh(np.zeros(3), np.zeros(4), np.zeros(4))
