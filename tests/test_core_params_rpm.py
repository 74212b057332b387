import numpy as np
import pytest

from repro.core.params import ParamRanges, ParamSelector, default_ranges
from repro.core.rpm import RPMClassifier
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


class TestParamSelector:
    def test_evaluation_cached(self, tiny_gun):
        selector = ParamSelector(
            tiny_gun.X_train, tiny_gun.y_train, n_splits=2, cv_folds=3, seed=0
        )
        first = selector.evaluate(30, 5, 4)
        again = selector.evaluate(30, 5, 4)
        assert first is again
        assert selector.n_evaluations == 1

    def test_clipping_shares_cache_entry(self, tiny_gun):
        selector = ParamSelector(
            tiny_gun.X_train, tiny_gun.y_train, n_splits=2, cv_folds=3, seed=0
        )
        selector.evaluate(10_000, 5, 4)  # clips to the window upper bound
        hi = selector.ranges.window[1]
        selector.evaluate(hi, 5, 4)
        assert selector.n_evaluations == 1

    def test_f1_scores_per_class(self, tiny_gun):
        selector = ParamSelector(
            tiny_gun.X_train, tiny_gun.y_train, n_splits=2, cv_folds=3, seed=0
        )
        evaluation = selector.evaluate(30, 5, 4)
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


class TestRPMClassifier:
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
