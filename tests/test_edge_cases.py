"""Failure-injection and edge-case tests across the pipeline.

Production data is messy: constant channels, tiny training sets,
extreme class imbalance, NaNs. These tests pin down how each layer
behaves — either a clean error or a sensible result, never silent
corruption.
"""

import warnings

import numpy as np
import pytest

from repro import RPMClassifier, SaxParams
from repro.baselines import NearestNeighborED, SaxVsmClassifier
from repro.core.candidates import find_class_candidates
from repro.core.transform import pattern_features
from repro.distance.best_match import best_match, distance_profile
from repro.distance.dtw import dtw_distance
from repro.grammar.sequitur import induce_grammar
from repro.ml.cfs import cfs_select
from repro.ml.svm import SVC
from repro.sax.discretize import discretize
from repro.sax.sax import sax_word


class TestConstantSeries:
    PARAMS = SaxParams(8, 4, 4)

    def test_sax_word_of_constant(self):
        word = sax_word(np.full(30, 5.0), 4, 4)
        assert len(word) == 4

    def test_discretize_constant_collapses_to_one_word(self):
        record = discretize(np.full(50, 2.0), self.PARAMS)
        assert len(record) == 1

    def test_best_match_constant_vs_constant(self):
        match = best_match(np.full(6, 1.0), np.full(20, 9.0))
        assert match.distance == 0.0

    def test_distance_profile_handles_mixed_flat(self):
        series = np.concatenate([np.full(10, 3.0), np.sin(np.linspace(0, 3, 10))])
        profile = distance_profile(np.sin(np.linspace(0, 3, 5)), series)
        assert np.isfinite(profile).all()

    def test_rpm_with_constant_feature_class(self, rng):
        # One class is all flat lines; pipeline must survive.
        flat = np.tile(np.linspace(5.0, 5.0, 40), (6, 1)) + rng.standard_normal((6, 40)) * 1e-4
        wavy = np.sin(np.linspace(0, 6, 40)) + rng.standard_normal((6, 40)) * 0.1
        X = np.vstack([flat, wavy])
        y = np.array([0] * 6 + [1] * 6)
        clf = RPMClassifier(sax_params=SaxParams(12, 4, 4), seed=0)
        clf.fit(X, y)
        preds = clf.predict(X)
        assert np.mean(preds == y) > 0.8


class TestTinyInputs:
    def test_two_instances_per_class(self, rng):
        X = np.vstack(
            [
                np.sin(np.linspace(0, 6, 40)) + rng.standard_normal(40) * 0.05,
                np.sin(np.linspace(0, 6, 40)) + rng.standard_normal(40) * 0.05,
                np.cos(np.linspace(0, 9, 40)) + rng.standard_normal(40) * 0.05,
                np.cos(np.linspace(0, 9, 40)) + rng.standard_normal(40) * 0.05,
            ]
        )
        y = np.array([0, 0, 1, 1])
        clf = RPMClassifier(sax_params=SaxParams(10, 4, 4), seed=0)
        clf.fit(X, y)
        assert clf.predict(X).shape == (4,)

    def test_window_equal_to_series_length(self, rng):
        X = rng.standard_normal((8, 20))
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        clf = RPMClassifier(sax_params=SaxParams(20, 4, 4), seed=0)
        clf.fit(X, y)  # one window per instance; must still run
        assert clf.predict(X).shape == (8,)

    def test_sequitur_single_repeated_token(self):
        g = induce_grammar(["x"] * 50)
        assert g.start.expansion() == ["x"] * 50

    def test_dtw_length_one_series(self):
        assert dtw_distance(np.array([1.0]), np.array([3.0])) == 2.0


class TestImbalance:
    def test_rpm_severe_class_imbalance(self, rng):
        big = [np.sin(np.linspace(0, 6, 50)) + rng.standard_normal(50) * 0.1 for _ in range(20)]
        small = [np.cos(np.linspace(0, 9, 50)) + rng.standard_normal(50) * 0.1 for _ in range(3)]
        X = np.vstack(big + small)
        y = np.array([0] * 20 + [1] * 3)
        clf = RPMClassifier(sax_params=SaxParams(14, 4, 4), seed=0)
        clf.fit(X, y)
        preds = clf.predict(X)
        # The minority class must not be swallowed entirely.
        assert (preds == 1).sum() >= 1

    def test_cfs_with_imbalanced_labels(self, rng):
        X = rng.standard_normal((50, 4))
        y = np.array([0] * 45 + [1] * 5)
        X[:, 2] = y * 3 + rng.standard_normal(50) * 0.1
        result = cfs_select(X, y)
        assert 2 in result.selected


class TestNaNs:
    def test_svm_propagates_nan_distinctly(self, rng):
        # NaNs should not silently produce a "valid" model: fitting on
        # NaN features yields NaN decision values, which we can detect.
        X = rng.standard_normal((10, 2))
        X[0, 0] = np.nan
        y = np.array([0, 1] * 5)
        clf = SVC().fit(X, y)
        scores = clf.decision_function(X)
        assert np.isnan(scores).any() or np.isfinite(scores).all()

    def test_nn_ed_with_nan_query(self, tiny_gun):
        clf = NearestNeighborED().fit(tiny_gun.X_train, tiny_gun.y_train)
        query = tiny_gun.X_test[:1].copy()
        query[0, 0] = np.nan
        # NaN distances make every neighbour incomparable; the result
        # is arbitrary but the call must not crash.
        preds = clf.predict(query)
        assert preds.shape == (1,)

    # Unchecked, one NaN in one training series gives a chance-level
    # model and no error, and an inf the same model with dozens of
    # RuntimeWarnings.
    def test_rpm_fit_rejects_nan(self, tiny_cbf):
        X = tiny_cbf.X_train.copy()
        X[3, 40] = np.nan
        with pytest.raises(ValueError, match="row 3 of X contains 1 non-finite"):
            RPMClassifier(sax_params=SaxParams(24, 5, 4)).fit(X, tiny_cbf.y_train)

    def test_rpm_fit_rejects_inf_without_warnings(self, tiny_cbf):
        X = tiny_cbf.X_train.copy()
        X[3, 40] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="row 3 of X contains 1 non-finite"):
                RPMClassifier(sax_params=SaxParams(24, 5, 4)).fit(X, tiny_cbf.y_train)

    def test_rpm_predict_rejects_nan_row(self, tiny_cbf):
        clf = RPMClassifier(sax_params=SaxParams(24, 5, 4))
        clf.fit(tiny_cbf.X_train, tiny_cbf.y_train)
        query = tiny_cbf.X_test[:3].copy()
        query[1, 0] = np.nan
        with pytest.raises(ValueError, match="row 1 of X"):
            clf.predict(query)
        with pytest.raises(ValueError, match="row 1 of X"):
            clf.transform(query)


class TestCandidateMiningEdges:
    PARAMS = SaxParams(10, 4, 4)

    def test_no_candidates_on_unique_noise(self, rng):
        # High gamma on pure noise: usually no candidates at all.
        instances = [rng.standard_normal(40) for _ in range(4)]
        candidates = find_class_candidates(instances, 0, self.PARAMS, gamma=1.0)
        for candidate in candidates:
            assert candidate.support >= 4  # only fully-shared patterns

    def test_identical_instances_yield_high_support(self, rng):
        base = np.sin(np.linspace(0, 8, 60))
        instances = [base + rng.standard_normal(60) * 0.01 for _ in range(6)]
        candidates = find_class_candidates(instances, 0, self.PARAMS, gamma=0.9)
        assert candidates
        assert max(c.support for c in candidates) == 6

    def test_transform_with_pattern_longer_than_series(self, rng):
        pattern = rng.standard_normal(100)
        X = rng.standard_normal((3, 30))
        F = pattern_features(X, [pattern])
        assert F.shape == (3, 1)
        assert np.isfinite(F).all()


class TestSaxVsmEdges:
    def test_unseen_words_at_test_time(self, rng):
        train = np.tile(np.sin(np.linspace(0, 6, 60)), (6, 1)) + rng.standard_normal((6, 60)) * 0.05
        y = np.array([0, 0, 0, 1, 1, 1])
        clf = SaxVsmClassifier(params=SaxParams(16, 4, 4)).fit(train, y)
        # A wildly different test series shares no words -> falls back
        # to the first class rather than crashing.
        weird = np.cumsum(rng.standard_normal((1, 60)) * 10, axis=1)
        assert clf.predict(weird).shape == (1,)
