"""Row/batch transform parity, and both against the naive oracle.

``pattern_features`` on a one-row matrix must produce exactly the row
the batch transform would: the window statistics are per row, so flat
windows and resampled patterns come out the same. The batch transform
itself is pinned against the explicit z-norm-per-window reference in
:mod:`tests.oracles`, with the crossover forced onto each kernel
backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.transform import pattern_features
from repro.obs.metrics import scoped_registry
from repro.runtime.cache import WindowStatsCache
from repro.sax.znorm import znorm
from tests.oracles import assert_profiles_close, naive_best_distances


@pytest.fixture(scope="module")
def series_matrix():
    return np.random.default_rng(1).normal(size=(12, 80))


@pytest.fixture(scope="module")
def patterns():
    rng = np.random.default_rng(2)
    return [znorm(rng.normal(size=n)) for n in (8, 16, 25, 80)]


def _assert_row_parity(X, patterns, **kwargs):
    batch = pattern_features(X, patterns, **kwargs)
    for i, row in enumerate(X):
        single = pattern_features(row[np.newaxis, :], patterns, **kwargs)[0]
        np.testing.assert_array_equal(single, batch[i], strict=True)


class TestRowBatchParity:
    def test_plain(self, series_matrix, patterns):
        _assert_row_parity(series_matrix, patterns)

    def test_rotation_invariant(self, series_matrix, patterns):
        _assert_row_parity(series_matrix, patterns, rotation_invariant=True)

    def test_shared_cache(self, series_matrix, patterns):
        cache = WindowStatsCache(8)
        _assert_row_parity(series_matrix, patterns, cache=cache)

    def test_flat_pattern(self, series_matrix):
        flat = [np.zeros(10), np.full(10, 3.0)]
        _assert_row_parity(series_matrix, flat)

    def test_flat_series(self, patterns, rng):
        X = np.vstack(
            [
                np.zeros(80),
                np.full(80, -2.5),
                rng.normal(size=80),
            ]
        )
        _assert_row_parity(X, patterns)

    def test_flat_windows_inside_series(self, patterns, rng):
        # A series with long constant stretches exercises the kernel's
        # flat-window mask on some windows but not others.
        row = rng.normal(size=80)
        row[10:40] = 1.0
        X = np.vstack([row, rng.normal(size=80)])
        _assert_row_parity(X, patterns)

    def test_pattern_longer_than_series(self, rng):
        X = rng.normal(size=(5, 30))
        long_patterns = [znorm(rng.normal(size=45)), znorm(rng.normal(size=30))]
        _assert_row_parity(X, long_patterns)
        _assert_row_parity(X, long_patterns, rotation_invariant=True)

    def test_short_series(self, rng):
        X = rng.normal(size=(4, 6))
        short_patterns = [znorm(rng.normal(size=3)), znorm(rng.normal(size=6))]
        _assert_row_parity(X, short_patterns)

    def test_pattern_objects(self, series_matrix, patterns):
        class Holder:
            def __init__(self, values):
                self.values = values

        _assert_row_parity(series_matrix, [Holder(p) for p in patterns])


class TestBatchVsOracle:
    def test_features_match_naive_oracle(self, series_matrix, patterns):
        feats = pattern_features(series_matrix, patterns)
        for j, p in enumerate(patterns):
            assert_profiles_close(
                feats[:, j], naive_best_distances(p, series_matrix), err_msg=f"col {j}"
            )

    def test_rotation_invariant_matches_naive(self, series_matrix, patterns):
        feats = pattern_features(series_matrix, patterns, rotation_invariant=True)
        for j, p in enumerate(patterns):
            assert_profiles_close(
                feats[:, j],
                naive_best_distances(p, series_matrix, rotation_invariant=True),
                err_msg=f"col {j}",
            )

    def test_fft_backend_matches_matvec_and_naive(
        self, series_matrix, patterns, force_backend
    ):
        force_backend("matvec")
        mat = pattern_features(series_matrix, patterns)
        force_backend("fft")
        with scoped_registry() as reg:
            fft = pattern_features(series_matrix, patterns)
            assert reg.counter_value("kernel.backend.matvec") == 0
        assert_profiles_close(fft, mat)
        for j, p in enumerate(patterns):
            assert_profiles_close(
                fft[:, j], naive_best_distances(p, series_matrix), err_msg=f"col {j}"
            )

