"""Contract tests for the unified estimator protocol (repro.base).

Every estimator in the package — RPM and all baselines — must satisfy
the same surface: keyword-only construction, ``get_params`` /
``set_params`` round-trips, generic cloning, ``fit`` returning self.
Evaluation and cross-validation rely on these guarantees to
re-instantiate estimators without knowing their concrete types.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BaseEstimator, Estimator, RPMClassifier, SaxParams, clone
from repro.baselines import (
    BagOfPatternsClassifier,
    FastShapeletsClassifier,
    LearningShapeletsClassifier,
    LogicalShapeletsClassifier,
    NearestNeighborDTW,
    NearestNeighborED,
    SaxVsmClassifier,
    ShapeletTransformClassifier,
    TunedLearningShapelets,
)

PARAMS = SaxParams(16, 4, 4)

# One cheaply-constructed instance per estimator class in the package.
ESTIMATORS = [
    RPMClassifier(sax_params=PARAMS, seed=0),
    NearestNeighborED(),
    NearestNeighborDTW(window_fractions=(0.1,)),
    SaxVsmClassifier(params=PARAMS),
    BagOfPatternsClassifier(params=PARAMS),
    FastShapeletsClassifier(top_k=2, n_projections=2, seed=0),
    LearningShapeletsClassifier(n_shapelets=2, epochs=5, seed=0),
    TunedLearningShapelets(grid={"n_shapelets": [2]}, epochs=5),
    LogicalShapeletsClassifier(top_k=2, seed=0),
    ShapeletTransformClassifier(n_shapelets=2, seed=0),
]

ids = [type(est).__name__ for est in ESTIMATORS]

# Cheap to fit on a tiny dataset (the heavier shapelet learners are
# exercised by their own suites).
FITTABLE = [
    est
    for est in ESTIMATORS
    if type(est).__name__
    not in {"TunedLearningShapelets", "ShapeletTransformClassifier"}
]


@pytest.fixture(scope="module")
def tiny(tiny_gun):
    return tiny_gun.X_train[:12], tiny_gun.y_train[:12]


class TestProtocol:
    @pytest.mark.parametrize("est", ESTIMATORS, ids=ids)
    def test_satisfies_protocol(self, est):
        assert isinstance(est, Estimator)
        assert isinstance(est, BaseEstimator)

    @pytest.mark.parametrize("est", ESTIMATORS, ids=ids)
    def test_get_params_round_trips_through_init(self, est):
        params = est.get_params()
        rebuilt = type(est)(**params)
        assert rebuilt.get_params().keys() == params.keys()
        for name, value in params.items():
            assert rebuilt.get_params()[name] is value or rebuilt.get_params()[name] == value

    @pytest.mark.parametrize("est", ESTIMATORS, ids=ids)
    def test_clone_is_fresh_and_equal(self, est):
        twin = clone(est)
        assert twin is not est
        assert type(twin) is type(est)
        assert twin.get_params().keys() == est.get_params().keys()

    @pytest.mark.parametrize("est", ESTIMATORS, ids=ids)
    def test_set_params_returns_self_and_applies(self, est):
        twin = clone(est)
        params = twin.get_params()
        assert twin.set_params(**params) is twin
        for name, value in params.items():
            assert twin.get_params()[name] is value or twin.get_params()[name] == value

    @pytest.mark.parametrize("est", ESTIMATORS, ids=ids)
    def test_set_params_rejects_unknown_name(self, est):
        with pytest.raises(ValueError, match="no_such_param"):
            clone(est).set_params(no_such_param=1)

    @pytest.mark.parametrize("est", FITTABLE, ids=[type(e).__name__ for e in FITTABLE])
    def test_fit_returns_self(self, est, tiny):
        X, y = tiny
        model = clone(est)
        assert model.fit(X, y) is model
        assert model.predict(X[:2]).shape == (2,)

    def test_clone_never_copies_fitted_state(self, tiny):
        X, y = tiny
        model = NearestNeighborED().fit(X, y)
        twin = clone(model)
        assert twin.X_ is None and twin.y_ is None


# Every estimator that takes configuration (all but NearestNeighborED).
CONFIGURED = [est for est in ESTIMATORS if est.get_params()]


class TestKeywordOnlyConstructors:
    @pytest.mark.parametrize(
        "est", CONFIGURED, ids=[type(est).__name__ for est in CONFIGURED]
    )
    def test_positional_argument_is_a_type_error(self, est):
        # The value of the first parameter, passed positionally.
        first = next(iter(est.get_params().values()))
        with pytest.raises(TypeError, match="positional"):
            type(est)(first)

    @pytest.mark.parametrize("est", ESTIMATORS, ids=ids)
    def test_signature_is_keyword_only_for_introspection(self, est):
        import inspect

        parameters = list(inspect.signature(type(est).__init__).parameters.values())
        assert parameters[0].name == "self"
        assert all(p.kind is p.KEYWORD_ONLY for p in parameters[1:])
        assert list(est.get_params()) == [p.name for p in parameters[1:]]


class TestModuleClone:
    def test_clone_accepts_duck_typed_estimator(self):
        class Duck:
            def get_params(self):
                return {}

            def fit(self, X, y):
                return self

            def predict(self, X):
                return np.zeros(len(X))

        assert isinstance(clone(Duck()), Duck)

    def test_clone_rejects_non_estimators(self):
        with pytest.raises(TypeError):
            clone(object())
