"""The inference path: one window-statistics prefix per batch, one bank.

``RPMClassifier.transform`` (and so ``predict``) and the serving
``CompiledModel`` run the same :class:`~repro.core.transform.PatternBank`,
so their features are bitwise equal, also where ``auto`` sends a
length bucket to the FFT, and with the crossover moved so that every
bucket takes one backend. The per-length views of a
:class:`~repro.runtime.kernel.SeriesPrefix` are pinned bitwise against
the one-piece window-statistics arithmetic in ``tests/oracles.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import RPMClassifier, SaxParams
from repro.core.transform import PatternBank
from repro.data import cbf
from repro.obs.metrics import scoped_registry
from repro.runtime.kernel import SeriesPrefix, SlidingWindowStats, prenormalize_pattern
from repro.serve import CompiledModel
from tests.oracles import legacy_window_stats


@pytest.fixture(scope="module")
def cbf_128():
    # 128-point series: the fitted bank's 47×3 bucket is above the FFT
    # crossover under ``auto``, unlike the 120-point serve fixtures.
    return cbf(n_train_per_class=10, n_test_per_class=20, length=128, seed=1)


class TestPredictEqualsServing:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("rotation_invariant", [False, True])
    @pytest.mark.parametrize("backend", ["auto", "fft", "matvec"])
    def test_transform_bitwise_equals_compiled(
        self, cbf_128, force_backend, backend, rotation_invariant, n_jobs
    ):
        force_backend(backend)
        clf = RPMClassifier(
            sax_params=SaxParams(45, 4, 6),
            rotation_invariant=rotation_invariant,
            n_jobs=n_jobs,
        ).fit(cbf_128.X_train, cbf_128.y_train)
        X = cbf_128.X_test
        with scoped_registry() as reg:
            features = clf.transform(X)
            fft_calls = reg.counter_value("kernel.backend.fft")
        if backend != "matvec":
            assert fft_calls > 0, "no bucket went to the FFT; the test lost its point"
        else:
            assert fft_calls == 0
        with CompiledModel.from_classifier(clf, n_jobs=n_jobs) as model:
            np.testing.assert_array_equal(model.transform(X), features)
            np.testing.assert_array_equal(model.predict(X), clf.predict(X))

    def test_predict_builds_no_cache_entry(self, cbf_128):
        clf = RPMClassifier(sax_params=SaxParams(45, 4, 6)).fit(
            cbf_128.X_train, cbf_128.y_train
        )
        with scoped_registry() as reg:
            clf.predict(cbf_128.X_test)
            assert reg.counter_value("cache.hits") == 0
            assert reg.counter_value("cache.misses") == 0
            # One batched kernel call per length bucket.
            buckets = len(clf._pattern_bank().native_plan)
            assert (
                reg.counter_value("kernel.backend.fft")
                + reg.counter_value("kernel.backend.matvec")
                == buckets
            )

    def test_bank_follows_refit(self, cbf_128):
        clf = RPMClassifier(sax_params=SaxParams(45, 4, 6))
        clf.fit(cbf_128.X_train, cbf_128.y_train)
        first = clf._pattern_bank()
        assert clf._pattern_bank() is first
        clf.fit(cbf_128.X_train[::2], cbf_128.y_train[::2])
        assert clf._pattern_bank() is not first
        assert len(clf._pattern_bank()) == len(clf.patterns_)


def _adversarial_matrix(rng, scale, offset, m=64):
    X = rng.standard_normal((5, m)) * scale + offset
    X[0] = offset  # an entirely flat row
    X[1, : m // 3] = offset  # a partially flat row
    X[2] = rng.integers(-3, 4, m) * scale + offset  # tie-heavy values
    return X


class TestSeriesPrefix:
    @pytest.mark.parametrize("offset", [0.0, -1e3, 1e4])
    @pytest.mark.parametrize("scale", [1e-9, 1e-4, 1.0, 1e6])
    def test_views_bitwise_equal_one_piece_stats(self, scale, offset):
        rng = np.random.default_rng(int(abs(np.log10(scale))) * 7 + int(abs(offset)) % 97)
        X = _adversarial_matrix(rng, scale, offset)
        prefix = SeriesPrefix(X)
        for length in (2, 3, 17, 47, 63, 64):
            expected = legacy_window_stats(X, length)
            for stats in (SlidingWindowStats(prefix, length), SlidingWindowStats(X, length)):
                np.testing.assert_array_equal(stats.prefix.centered, expected.centered)
                np.testing.assert_array_equal(stats.sd, expected.sd)
                np.testing.assert_array_equal(stats.flat, expected.flat)
                np.testing.assert_array_equal(stats.safe_sd, expected.safe_sd)
                np.testing.assert_array_equal(
                    stats.windows,
                    np.lib.stride_tricks.sliding_window_view(expected.centered, length, axis=1),
                )

    def test_one_series_spectrum_per_prefix(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 200))
        prefix = SeriesPrefix(X)
        with scoped_registry() as reg:
            for length in (40, 41, 60):
                pres = [prenormalize_pattern(rng.standard_normal(length)) for _ in range(3)]
                SlidingWindowStats(prefix, length).batch_best_distances_prenormalized(
                    pres, backend="fft"
                )
            assert reg.counter_value("kernel.backend.fft") == 3
            assert reg.counter_value("kernel.fft.series_ffts") == 1

    def test_bank_builds_one_spectrum_per_matrix(self, force_backend):
        force_backend("fft")
        rng = np.random.default_rng(6)
        bank = PatternBank([rng.standard_normal(n) for n in (40, 40, 52, 52, 64)])
        X = rng.standard_normal((3, 160))
        with scoped_registry() as reg:
            bank.transform(X)
            assert reg.counter_value("kernel.backend.fft") == 3
            assert reg.counter_value("kernel.fft.series_ffts") == 1
        with scoped_registry() as reg:
            bank.transform(X, rotation_invariant=True)
            assert reg.counter_value("kernel.fft.series_ffts") == 2

    def test_pickles_without_its_spectrum(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((3, 100)) + 50.0
        prefix = SeriesPrefix(X)
        pres = [prenormalize_pattern(rng.standard_normal(30)) for _ in range(2)]
        before = SlidingWindowStats(prefix, 30).batch_best_distances_prenormalized(
            pres, backend="fft"
        )
        clone = pickle.loads(pickle.dumps(prefix))
        assert clone._xf is None
        np.testing.assert_array_equal(
            SlidingWindowStats(clone, 30).batch_best_distances_prenormalized(
                pres, backend="fft"
            ),
            before,
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="2-D"):
            SeriesPrefix(np.zeros(10))
        with pytest.raises(ValueError, match=">= 2 points"):
            SeriesPrefix(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="window length"):
            SlidingWindowStats(SeriesPrefix(np.zeros((3, 10))), 11)
