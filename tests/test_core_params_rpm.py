import itertools

import numpy as np
import pytest

from repro.core.params import ParamRanges, ParamSelector, default_ranges
from repro.core.rpm import RPMClassifier
from repro.data import italy_power_sim
from repro.runtime.cache import LRUCache
from repro.sax.discretize import SaxParams


class TestParamRanges:
    def test_clip(self):
        ranges = ParamRanges(window=(10, 40), paa=(3, 8), alphabet=(3, 9))
        assert ranges.clip(100, 100, 100) == (40, 8, 9)
        assert ranges.clip(1, 1, 1) == (10, 3, 3)

    def test_clip_paa_never_exceeds_window(self):
        ranges = ParamRanges(window=(4, 6), paa=(3, 12), alphabet=(3, 9))
        w, p, a = ranges.clip(5, 12, 4)
        assert p <= w

    def test_grid_axes_within_bounds(self):
        ranges = default_ranges(100)
        axes = ranges.grid_axes()
        assert all(ranges.window[0] <= v <= ranges.window[1] for v in axes[0])
        assert all(ranges.paa[0] <= v <= ranges.paa[1] for v in axes[1])
        assert all(ranges.alphabet[0] <= v <= ranges.alphabet[1] for v in axes[2])

    def test_default_ranges_scale_with_length(self):
        short = default_ranges(30)
        long = default_ranges(300)
        assert long.window[1] > short.window[1]

    def test_default_ranges_unchanged_from_ten_points_up(self):
        for m in range(10, 5001):
            lo = max(8, int(round(0.1 * m)))
            hi = max(lo + 2, int(round(0.6 * m)))
            assert default_ranges(m).window == (lo, hi), m

    @pytest.mark.parametrize("m", range(3, 10))
    def test_default_windows_fit_short_series(self, m):
        # Windows up to 10 on series shorter than 10 points: the fit
        # failed on a window the user never chose, or spent evaluations
        # on windows every split prunes.
        lo, hi = default_ranges(m).window
        assert 2 <= lo < hi <= m


class TestParamSelector:
    def test_evaluation_cached(self, tiny_gun):
        selector = ParamSelector(
            tiny_gun.X_train, tiny_gun.y_train, n_splits=2, cv_folds=3, seed=0
        )
        first = selector.evaluate_batch([(30, 5, 4)])[0]
        again, rounded = selector.evaluate_batch([(30, 5, 4), (29.6, 5.2, 4.4)])
        assert first is again is rounded
        assert selector.n_evaluations == 1

    def test_clipping_shares_cache_entry(self, tiny_gun):
        selector = ParamSelector(
            tiny_gun.X_train, tiny_gun.y_train, n_splits=2, cv_folds=3, seed=0
        )
        selector.evaluate_batch([(10_000, 5, 4)])  # clips to the window upper bound
        hi = selector.ranges.window[1]
        selector.evaluate_batch([(hi, 5, 4)])
        assert selector.n_evaluations == 1

    def test_f1_scores_per_class(self, tiny_gun):
        selector = ParamSelector(
            tiny_gun.X_train, tiny_gun.y_train, n_splits=2, cv_folds=3, seed=0
        )
        evaluation = selector.evaluate_batch([(30, 5, 4)])[0]
        if not evaluation.pruned:
            assert set(evaluation.f1_by_class) == {0, 1}
            for f1 in evaluation.f1_by_class.values():
                assert 0.0 <= f1 <= 1.0

    def test_select_direct_returns_params_per_class(self, tiny_gun):
        selector = ParamSelector(
            tiny_gun.X_train, tiny_gun.y_train, n_splits=2, cv_folds=3, seed=0
        )
        best = selector.select_direct(max_evaluations=6, max_iterations=3)
        assert set(best) == {0, 1}
        for params in best.values():
            assert isinstance(params, SaxParams)

    def test_select_grid_small_axes(self, tiny_gun):
        selector = ParamSelector(
            tiny_gun.X_train, tiny_gun.y_train, n_splits=2, cv_folds=3, seed=0
        )
        best = selector.select_grid(axes=[[24, 36], [4], [4]])
        assert set(best) == {0, 1}
        assert selector.n_evaluations <= 2

    def test_select_grid_rejects_empty_axis(self, tiny_gun):
        selector = ParamSelector(tiny_gun.X_train, tiny_gun.y_train, n_splits=2, seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            selector.select_grid(axes=[[], [4], [4]])
        assert selector.n_evaluations == 0

    def test_select_grid_pinned(self):
        # Values recorded before the grid search became one
        # evaluate_batch call over the axes' product.
        data = italy_power_sim(
            n_train_per_class=12, n_test_per_class=10, length=24, seed=12
        )
        selector = ParamSelector(data.X_train, data.y_train, n_splits=2, seed=0)
        best = selector.select_grid()
        assert {label: p.as_tuple() for label, p in best.items()} == {
            0: (13, 3, 3),
            1: (13, 3, 3),
        }
        assert selector.n_evaluations == 66
        assert sum(e.pruned for e in selector._cache.values()) == 12
        grid = itertools.product(*selector.ranges.grid_axes())
        clipped = [selector.ranges.clip(*key) for key in grid]
        assert list(selector._cache) == list(dict.fromkeys(clipped))

    @pytest.mark.parametrize(
        "option,value",
        [
            ("n_splits", 0),
            ("n_splits", -1),
            ("cv_folds", 1),
            ("validation_fraction", 0.0),
            ("validation_fraction", 1.0),
            ("validation_fraction", 1.5),
        ],
    )
    def test_rejects_bad_search_options(self, tiny_gun, option, value):
        # Before, n_splits=0 and cv_folds=1 pruned every triple and the
        # fit went on with a fallback triple; a bad validation_fraction
        # failed inside the split under another name.
        with pytest.raises(ValueError, match=option):
            ParamSelector(tiny_gun.X_train, tiny_gun.y_train, **{option: value})


class TestRPMClassifier:
    @pytest.mark.parametrize(
        "options,message",
        [
            (dict(n_splits=0), "n_splits"),
            (dict(direct_budget=0), "max_evaluations"),
            (dict(direct_budget=-3), "max_evaluations"),
        ],
    )
    def test_rejects_bad_search_budget(self, tiny_gun, options, message):
        # Before, each fit ran on: every triple pruned, or one evaluation.
        clf = RPMClassifier(**{"n_splits": 2, **options})
        with pytest.raises(ValueError, match=message):
            clf.fit(tiny_gun.X_train, tiny_gun.y_train)

    @pytest.mark.parametrize("m", [4, 5, 6, 8, 9])
    def test_searches_series_shorter_than_ten_points(self, m):
        rng = np.random.default_rng(m)
        X = rng.standard_normal((12, m))
        y = np.repeat([0, 1], 6)
        X[y == 1] += np.linspace(-1.0, 1.0, m)
        clf = RPMClassifier(direct_budget=6, n_splits=2, seed=0).fit(X, y)
        assert all(p.window_size <= m for p in clf.params_by_class_.values())
        assert clf.predict(X).shape == y.shape

    def test_fixed_params_pipeline(self, tiny_cbf):
        clf = RPMClassifier(sax_params=SaxParams(24, 4, 4), seed=0)
        clf.fit(tiny_cbf.X_train, tiny_cbf.y_train)
        preds = clf.predict(tiny_cbf.X_test)
        assert preds.shape == tiny_cbf.y_test.shape
        acc = np.mean(preds == tiny_cbf.y_test)
        assert acc > 0.6

    def test_patterns_exposed(self, tiny_cbf):
        clf = RPMClassifier(sax_params=SaxParams(24, 4, 4), seed=0)
        clf.fit(tiny_cbf.X_train, tiny_cbf.y_train)
        assert clf.patterns_
        described = clf.describe_patterns()
        assert "representative patterns" in described
        for pattern in clf.patterns_:
            assert pattern.length >= 2

    def test_transform_shape(self, tiny_cbf):
        clf = RPMClassifier(sax_params=SaxParams(24, 4, 4), seed=0)
        clf.fit(tiny_cbf.X_train, tiny_cbf.y_train)
        F = clf.transform(tiny_cbf.X_test)
        assert F.shape == (tiny_cbf.n_test, len(clf.patterns_))

    @pytest.mark.parametrize("sax_params", [SaxParams(24, 4, 4), None])
    def test_fitted_model_keeps_no_cache(self, tiny_gun, sax_params):
        # The fit's caches hold tens of MB on long series; inference
        # runs the pattern bank and needs none of them.
        clf = RPMClassifier(sax_params=sax_params, direct_budget=4, n_splits=2, seed=0)
        clf.fit(tiny_gun.X_train, tiny_gun.y_train)
        clf.predict(tiny_gun.X_test)
        held = [name for name, value in vars(clf).items() if isinstance(value, LRUCache)]
        assert held == []

    def test_per_class_params_dict(self, tiny_gun):
        params = {0: SaxParams(24, 4, 4), 1: SaxParams(30, 5, 5)}
        clf = RPMClassifier(sax_params=params, seed=0)
        clf.fit(tiny_gun.X_train, tiny_gun.y_train)
        assert clf.params_by_class_ == params

    def test_missing_class_params_rejected(self, tiny_gun):
        clf = RPMClassifier(sax_params={0: SaxParams(24, 4, 4)})
        with pytest.raises(ValueError, match="missing classes"):
            clf.fit(tiny_gun.X_train, tiny_gun.y_train)

    def test_direct_search_end_to_end(self, tiny_gun):
        clf = RPMClassifier(direct_budget=6, n_splits=2, cv_folds=3, seed=0)
        clf.fit(tiny_gun.X_train, tiny_gun.y_train)
        assert clf.n_param_evaluations_ >= 1
        preds = clf.predict(tiny_gun.X_test)
        assert preds.shape == tiny_gun.y_test.shape

    def test_patterns_for_class(self, tiny_cbf):
        clf = RPMClassifier(sax_params=SaxParams(24, 4, 4), seed=0)
        clf.fit(tiny_cbf.X_train, tiny_cbf.y_train)
        for label in (0, 1, 2):
            for pattern in clf.patterns_for_class(label):
                assert pattern.label == label

    def test_gamma_fallback_produces_model(self, rng):
        # Pure noise: almost nothing repeats, but fit must still work.
        X = rng.standard_normal((8, 50))
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        clf = RPMClassifier(sax_params=SaxParams(20, 4, 4), gamma=0.99, seed=0)
        clf.fit(X, y)
        assert clf.patterns_
        assert clf.predict(X).shape == (8,)

    def test_rotation_invariant_flag(self, tiny_gun):
        clf = RPMClassifier(
            sax_params=SaxParams(24, 4, 4), rotation_invariant=True, seed=0
        )
        clf.fit(tiny_gun.X_train, tiny_gun.y_train)
        assert clf.predict(tiny_gun.X_test).shape == tiny_gun.y_test.shape

    def test_medoid_prototype_option(self, tiny_gun):
        clf = RPMClassifier(sax_params=SaxParams(24, 4, 4), prototype="medoid", seed=0)
        clf.fit(tiny_gun.X_train, tiny_gun.y_train)
        assert clf.patterns_

    def test_rejects_single_class(self, rng):
        X = rng.standard_normal((4, 30))
        with pytest.raises(ValueError, match="two classes"):
            RPMClassifier(sax_params=SaxParams(10, 4, 4)).fit(X, np.zeros(4))

    def test_rejects_bad_param_search(self):
        with pytest.raises(ValueError, match="param_search"):
            RPMClassifier(param_search="random")

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            RPMClassifier().predict(np.zeros((1, 20)))

    def test_custom_classifier_factory(self, tiny_gun):
        from repro.baselines.nn import NearestNeighborED

        clf = RPMClassifier(
            sax_params=SaxParams(24, 4, 4),
            classifier_factory=NearestNeighborED,
            seed=0,
        )
        clf.fit(tiny_gun.X_train, tiny_gun.y_train)
        assert isinstance(clf.classifier_, NearestNeighborED)
        assert clf.predict(tiny_gun.X_test).shape == tiny_gun.y_test.shape
