import numpy as np
import pytest

from repro.distance.best_match import (
    batch_best_distances,
    batch_distance_profiles,
    best_match,
    distance_profile,
)
from repro.distance.euclidean import znormed_euclidean
from tests.oracles import best_match_scalar


class TestDistanceProfile:
    def test_profile_length(self, rng):
        profile = distance_profile(rng.standard_normal(5), rng.standard_normal(20))
        assert profile.size == 16

    def test_matches_naive_computation(self, rng):
        pattern = rng.standard_normal(7)
        series = rng.standard_normal(30)
        profile = distance_profile(pattern, series)
        for pos in range(series.size - 7 + 1):
            naive = znormed_euclidean(pattern, series[pos : pos + 7])
            assert abs(profile[pos] - naive) < 1e-8

    def test_embedded_pattern_found_at_zero_distance(self, rng):
        pattern = np.sin(np.linspace(0, 3, 12))
        series = rng.standard_normal(40)
        series[10:22] = pattern * 4.0 + 2.0  # scaled/offset copy
        profile = distance_profile(pattern, series)
        assert profile[10] < 1e-6

    def test_flat_window_vs_pattern(self):
        pattern = np.sin(np.linspace(0, 3, 6))
        series = np.concatenate([np.full(6, 5.0), np.arange(6.0)])
        profile = distance_profile(pattern, series)
        # The first window is flat: distance = ||znorm(pattern)|| = sqrt(n)
        assert abs(profile[0] - np.sqrt(np.sum((pattern - pattern.mean()) ** 2) / pattern.var())) < 1e-6

    def test_flat_pattern_vs_flat_window(self):
        profile = distance_profile(np.full(4, 3.0), np.full(10, 8.0))
        np.testing.assert_allclose(profile, np.zeros(7), atol=1e-12)

    def test_flat_pattern_vs_normal_window(self, rng):
        profile = distance_profile(np.full(4, 3.0), rng.standard_normal(10) * 5)
        np.testing.assert_allclose(profile, np.full(7, 2.0), atol=1e-9)  # sqrt(4)

    def test_pattern_longer_than_series_resampled(self, rng):
        pattern = np.sin(np.linspace(0, 3, 30))
        series = np.sin(np.linspace(0, 3, 10))
        profile = distance_profile(pattern, series)
        assert profile.size == 1
        assert profile[0] < 0.5  # same shape after resampling

    def test_rejects_tiny_pattern(self):
        with pytest.raises(ValueError, match="at least 2"):
            distance_profile(np.array([1.0]), np.arange(5.0))

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            distance_profile(np.zeros((2, 2)), np.arange(5.0))


class TestBestMatch:
    def test_position_of_embedded_pattern(self, rng):
        pattern = np.hanning(10)
        series = rng.standard_normal(50) * 0.1
        series[23:33] += pattern * 6
        match = best_match(pattern, series)
        assert match.position == 23
        assert match.distance < 0.5

    def test_agrees_with_scalar_reference(self, rng):
        for _ in range(25):
            pattern = rng.standard_normal(int(rng.integers(3, 12)))
            series = rng.standard_normal(int(rng.integers(15, 40)))
            fast = best_match(pattern, series)
            slow = best_match_scalar(pattern, series)
            assert abs(fast.distance - slow.distance) < 1e-7

    def test_distance_nonnegative(self, rng):
        match = best_match(rng.standard_normal(6), rng.standard_normal(20))
        assert match.distance >= 0.0


class TestBatch:
    def test_profiles_match_scalar(self, rng):
        pattern = rng.standard_normal(8)
        X = rng.standard_normal((5, 25))
        batch = batch_distance_profiles(pattern, X)
        assert batch.shape == (5, 18)
        for i in range(5):
            np.testing.assert_allclose(batch[i], distance_profile(pattern, X[i]), atol=1e-8)

    def test_best_distances_match(self, rng):
        pattern = rng.standard_normal(6)
        X = rng.standard_normal((8, 30))
        batch = batch_best_distances(pattern, X)
        for i in range(8):
            assert abs(batch[i] - best_match(pattern, X[i]).distance) < 1e-8

    def test_long_pattern_resampled(self, rng):
        pattern = rng.standard_normal(40)
        X = rng.standard_normal((3, 20))
        batch = batch_distance_profiles(pattern, X)
        assert batch.shape == (3, 1)

    def test_rejects_1d_matrix(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            batch_distance_profiles(rng.standard_normal(4), rng.standard_normal(10))
