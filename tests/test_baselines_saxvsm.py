import numpy as np
import pytest

from repro.baselines.saxvsm import SaxVsmClassifier
from repro.data import cbf, italy_power_sim
from repro.sax.discretize import SaxParams


class TestSaxVsm:
    def test_fixed_params_classifies_cbf(self, tiny_cbf):
        clf = SaxVsmClassifier(params=SaxParams(30, 5, 5))
        clf.fit(tiny_cbf.X_train, tiny_cbf.y_train)
        acc = np.mean(clf.predict(tiny_cbf.X_test) == tiny_cbf.y_test)
        assert acc > 0.7

    def test_weight_matrix_shape(self, tiny_cbf):
        clf = SaxVsmClassifier(params=SaxParams(24, 4, 4))
        clf.fit(tiny_cbf.X_train, tiny_cbf.y_train)
        assert clf.weights_.shape == (3, len(clf.vocabulary_))

    def test_idf_zeroes_ubiquitous_words(self, tiny_cbf):
        clf = SaxVsmClassifier(params=SaxParams(24, 4, 4))
        clf.fit(tiny_cbf.X_train, tiny_cbf.y_train)
        # A word present in every class bag has idf = log(1) = 0.
        present_everywhere = (clf.weights_ != 0).sum(axis=0) == 0
        tf_everywhere = np.array(
            [
                all(
                    clf.weights_[c, j] == 0.0
                    for c in range(clf.weights_.shape[0])
                )
                for j in range(clf.weights_.shape[1])
            ]
        )
        assert np.array_equal(present_everywhere, tf_everywhere)

    def test_parameter_selection_runs(self, tiny_gun):
        clf = SaxVsmClassifier(direct_budget=8, cv_folds=2, seed=0)
        clf.fit(tiny_gun.X_train, tiny_gun.y_train)
        assert clf.params is not None
        preds = clf.predict(tiny_gun.X_test)
        assert preds.shape == tiny_gun.y_test.shape

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            SaxVsmClassifier(params=SaxParams(8, 4, 4)).predict(np.zeros((1, 20)))

    def test_deterministic(self, tiny_cbf):
        p = SaxParams(30, 5, 5)
        a = SaxVsmClassifier(params=p).fit(tiny_cbf.X_train, tiny_cbf.y_train)
        b = SaxVsmClassifier(params=p).fit(tiny_cbf.X_train, tiny_cbf.y_train)
        np.testing.assert_array_equal(
            a.predict(tiny_cbf.X_test), b.predict(tiny_cbf.X_test)
        )

    @pytest.mark.parametrize(
        "make,kwargs,expected",
        [
            (cbf, dict(n_train_per_class=10, n_test_per_class=100, length=128, seed=1),
             (43, 4, 8)),
            (italy_power_sim,
             dict(n_train_per_class=34, n_test_per_class=100, length=24, seed=12),
             (14, 9, 4)),
        ],
        ids=["CBF", "ItalyPowerSim"],
    )
    def test_parameter_selection_pinned(self, make, kwargs, expected):
        # The benchmark's direct-ucr training sets; values recorded before
        # the search's rounding cache moved into its batch evaluator.
        data = make(**kwargs)
        clf = SaxVsmClassifier(seed=0).fit(data.X_train, data.y_train)
        assert clf.params.as_tuple() == expected

    @pytest.mark.parametrize("budget", [0, -3])
    def test_rejects_empty_search_budget(self, tiny_gun, budget):
        with pytest.raises(ValueError, match="max_evaluations"):
            SaxVsmClassifier(direct_budget=budget).fit(tiny_gun.X_train, tiny_gun.y_train)
