"""Sliding-window kernel vs the naive closest-match oracle, and cache behavior.

:class:`SlidingWindowStats` must reproduce the explicit z-norm-per-
window reference in :mod:`tests.oracles` and the scalar early-
abandoning ``best_match_scalar`` (and stay bitwise identical to
``batch_distance_profiles``, which now delegates to it) on random data,
degenerate flat windows, and over-long patterns — and never emit NaNs.
The tolerance model lives in the oracles module, shared with the FFT
property suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distance.best_match import (
    batch_best_distances,
    batch_distance_profiles,
    best_match_scalar,
    distance_profile,
)
from repro.runtime import (
    SlidingWindowStats,
    WindowStatsCache,
    resample_pattern,
    sliding_best_distances,
)
from tests.oracles import (
    assert_argmin_equal,
    assert_profiles_close,
    naive_best_distances,
    naive_profiles,
)


@pytest.fixture()
def rng() -> np.random.Generator:
    # Deliberately shadows the session-scoped conftest fixture: a fresh
    # per-test generator keeps this module from shifting the shared
    # random stream other test modules' data depends on.
    return np.random.default_rng(987)


class TestKernelVsOracle:
    def test_profiles_match_brute_force(self, rng):
        X = rng.standard_normal((7, 50))
        for length in (2, 5, 17, 50):
            stats = SlidingWindowStats(X, length)
            pattern = rng.standard_normal(length)
            profiles = stats.profiles(pattern)
            assert profiles.shape == (7, 50 - length + 1)
            expected = naive_profiles(pattern, X)
            assert_profiles_close(profiles, expected, err_msg=f"length={length}")
            assert_argmin_equal(profiles, expected)
            for i in range(X.shape[0]):
                np.testing.assert_allclose(
                    profiles[i], distance_profile(pattern, X[i]), atol=1e-8
                )

    def test_best_distances_match_scalar_oracle(self, rng):
        X = rng.standard_normal((6, 40)) * 3.0 + 10.0
        pattern = rng.standard_normal(9)
        stats = SlidingWindowStats(X, 9)
        best = stats.best_distances(pattern)
        assert_profiles_close(best, naive_best_distances(pattern, X))
        for i in range(X.shape[0]):
            oracle = best_match_scalar(pattern, X[i]).distance
            assert best[i] == pytest.approx(oracle, abs=1e-6)

    def test_bitwise_identical_to_batch_profiles(self, rng):
        X = rng.standard_normal((5, 64))
        pattern = rng.standard_normal(12)
        stats = SlidingWindowStats(X, 12)
        assert np.array_equal(stats.profiles(pattern), batch_distance_profiles(pattern, X))

    def test_flat_windows_against_pattern(self, rng):
        X = np.full((3, 20), 7.5)  # every window degenerate
        pattern = rng.standard_normal(6)
        stats = SlidingWindowStats(X, 6)
        profiles = stats.profiles(pattern)
        # Flat window vs z-normed pattern: dist² = Σ q² = L.
        np.testing.assert_allclose(profiles, np.sqrt(6.0))
        assert_profiles_close(profiles, naive_profiles(pattern, X))

    def test_flat_pattern_against_flat_and_nonflat(self, rng):
        flat_rows = np.full((2, 15), 2.0)
        noisy_rows = rng.standard_normal((2, 15)) * 4.0
        pattern = np.full(5, 3.0)
        assert np.all(SlidingWindowStats(flat_rows, 5).profiles(pattern) == 0.0)
        np.testing.assert_allclose(
            SlidingWindowStats(noisy_rows, 5).profiles(pattern), np.sqrt(5.0)
        )

    def test_pattern_longer_than_series_resampled(self, rng):
        X = rng.standard_normal((4, 12))
        long_pattern = rng.standard_normal(30)
        via_helper = sliding_best_distances(long_pattern, X)
        via_batch = batch_best_distances(long_pattern, X)
        assert np.array_equal(via_helper, via_batch)
        assert_profiles_close(via_helper, naive_best_distances(long_pattern, X))
        resampled = resample_pattern(long_pattern, 12)
        assert resampled.size == 12
        # Endpoints survive linear resampling.
        assert resampled[0] == long_pattern[0] and resampled[-1] == long_pattern[-1]

    @pytest.mark.parametrize("scale,offset", [(1.0, 0.0), (1e4, 1e6), (1e-6, 0.0)])
    def test_nan_free_on_adversarial_inputs(self, rng, scale, offset):
        X = rng.standard_normal((5, 30)) * scale + offset
        X[0] = offset  # one entirely flat row
        X[1, :10] = offset  # partially flat row
        for pattern in (rng.standard_normal(8), np.zeros(8), np.full(8, 5.0)):
            profiles = SlidingWindowStats(X, 8).profiles(pattern)
            assert np.all(np.isfinite(profiles))
            assert np.all(profiles >= 0.0)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            SlidingWindowStats(rng.standard_normal(10), 4)  # 1-D series
        with pytest.raises(ValueError):
            SlidingWindowStats(rng.standard_normal((3, 10)), 1)  # window < 2
        with pytest.raises(ValueError):
            SlidingWindowStats(rng.standard_normal((3, 10)), 11)  # window > m
        stats = SlidingWindowStats(rng.standard_normal((3, 10)), 4)
        with pytest.raises(ValueError):
            stats.profiles(rng.standard_normal(5))  # wrong pattern length

    def test_stats_reuse_across_patterns(self, rng):
        """One stats object serves many patterns of its length."""
        X = rng.standard_normal((4, 32))
        stats = SlidingWindowStats(X, 10)
        for _ in range(5):
            pattern = rng.standard_normal(10)
            assert np.array_equal(
                stats.best_distances(pattern), batch_best_distances(pattern, X)
            )


class TestWindowStatsCache:
    # The LRU itself is pinned in tests/test_runtime_cache.py.
    def test_cached_results_identical_to_uncached(self, rng):
        X = rng.standard_normal((5, 40))
        cache = WindowStatsCache(max_entries=4)
        pattern = rng.standard_normal(11)
        cached = sliding_best_distances(pattern, X, cache=cache)
        again = sliding_best_distances(pattern, X, cache=cache)
        uncached = sliding_best_distances(pattern, X)
        assert np.array_equal(cached, uncached)
        assert np.array_equal(cached, again)
        assert cache.hits >= 1
