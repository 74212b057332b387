import numpy as np
import pytest

from repro.ml import svm as svm_module
from repro.ml.svm import SVC, BinarySVM, StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_var(self, rng):
        X = rng.standard_normal((50, 4)) * 7 + 3
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_untouched(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z[:, 0], 0.0, atol=1e-12)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fit"):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            StandardScaler().fit(np.zeros(4))


def _blobs(rng, n=60, gap=4.0, d=2):
    X = np.vstack([rng.normal(0, 1, (n, d)), rng.normal(gap, 1, (n, d))])
    y = np.array([-1.0] * n + [1.0] * n)
    return X, y


class TestBinarySVM:
    def test_separable_blobs_linear(self, rng):
        X, y = _blobs(rng)
        svm = BinarySVM(kernel="linear", C=1.0).fit(X, y)
        assert np.mean(svm.predict(X) == y) > 0.97

    def test_decision_sign_matches_predict(self, rng):
        X, y = _blobs(rng)
        svm = BinarySVM(kernel="rbf").fit(X, y)
        scores = svm.decision_function(X)
        np.testing.assert_array_equal(np.sign(scores) >= 0, svm.predict(X) > 0)

    def test_margin_support_vectors_subset(self, rng):
        X, y = _blobs(rng, gap=6.0)
        svm = BinarySVM(kernel="linear").fit(X, y)
        # Well-separated blobs need few support vectors.
        assert svm.support_vectors_.shape[0] < X.shape[0] / 2

    def test_dual_feasibility(self, rng):
        X, y = _blobs(rng)
        svm = BinarySVM(kernel="linear", C=2.0).fit(X, y)
        alpha = svm.alpha_
        assert (alpha >= -1e-9).all() and (alpha <= 2.0 + 1e-9).all()
        assert abs(float(alpha @ y)) < 1e-6

    def test_rejects_bad_labels(self, rng):
        X = rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match="-1 or \\+1"):
            BinarySVM().fit(X, np.array([0.0, 1.0, 0.0, 1.0]))

    def test_rejects_single_class(self, rng):
        X = rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match="both classes"):
            BinarySVM().fit(X, np.ones(4))

    def test_rejects_nonpositive_C(self):
        with pytest.raises(ValueError, match="positive"):
            BinarySVM(C=0.0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            BinarySVM().decision_function(np.zeros((1, 2)))

    def test_explicit_gamma(self, rng):
        X, y = _blobs(rng)
        svm = BinarySVM(kernel="rbf", gamma=0.5).fit(X, y)
        assert svm.gamma_ == 0.5


class TestSVC:
    def test_three_class_blobs(self, rng):
        X = np.vstack(
            [rng.normal(0, 0.5, (30, 2)), rng.normal(4, 0.5, (30, 2)), rng.normal([0, 5], 0.5, (30, 2))]
        )
        y = np.repeat(["a", "b", "c"], 30)
        clf = SVC().fit(X, y)
        assert np.mean(clf.predict(X) == y) > 0.95

    def test_xor_needs_rbf(self, rng):
        X = rng.standard_normal((300, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        rbf = SVC(kernel="rbf", C=10.0).fit(X, y)
        lin = SVC(kernel="linear", C=10.0).fit(X, y)
        assert np.mean(rbf.predict(X) == y) > 0.9
        assert np.mean(lin.predict(X) == y) < 0.75

    def test_decision_function_shape(self, rng):
        X = np.vstack([rng.normal(0, 1, (20, 3)), rng.normal(5, 1, (20, 3))])
        y = np.array([0] * 20 + [1] * 20)
        clf = SVC().fit(X, y)
        assert clf.decision_function(X).shape == (40, 2)

    def test_preserves_label_dtype(self, rng):
        X = np.vstack([rng.normal(0, 1, (10, 2)), rng.normal(5, 1, (10, 2))])
        y = np.array(["neg"] * 10 + ["pos"] * 10)
        preds = SVC().fit(X, y).predict(X)
        assert set(preds) <= {"neg", "pos"}

    def test_unscaled_option(self, rng):
        X, _ = _blobs(rng)
        y = np.array([0] * 60 + [1] * 60)
        clf = SVC(scale=False).fit(X, y)
        assert clf.scaler_ is None
        assert np.mean(clf.predict(X) == y) > 0.9

    def test_rejects_single_class(self, rng):
        with pytest.raises(ValueError, match="two classes"):
            SVC().fit(rng.standard_normal((5, 2)), np.zeros(5))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            SVC().predict(np.zeros((1, 2)))


class TestScalarSMO:
    """The scalar SMO loop must reproduce the numpy loop bit for bit."""

    @staticmethod
    def _fit(monkeypatch, max_rows, X, y, **params):
        monkeypatch.setattr(svm_module, "SCALAR_SMO_MAX_ROWS", max_rows)
        return BinarySVM(**params).fit(X, y)

    def _assert_paths_agree(self, monkeypatch, X, y, **params):
        scalar = self._fit(monkeypatch, X.shape[0], X, y, **params)
        vector = self._fit(monkeypatch, 0, X, y, **params)
        assert scalar.alpha_.tobytes() == vector.alpha_.tobytes()
        assert scalar.bias_ == vector.bias_
        assert scalar.iterations_ == vector.iterations_
        return scalar

    @staticmethod
    def _problem(local, n, d=3, overlap=1.0):
        X = local.standard_normal((n, d))
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        X[y > 0] += overlap
        return X, y

    @pytest.mark.parametrize(
        "n",
        [2, 6, 17, 40, svm_module.SCALAR_SMO_MAX_ROWS, svm_module.SCALAR_SMO_MAX_ROWS + 1, 140],
    )
    def test_sizes_around_the_crossover(self, monkeypatch, n):
        local = np.random.default_rng(200 + n)
        for kernel in ("rbf", "linear"):
            X, y = self._problem(local, n)
            self._assert_paths_agree(monkeypatch, X, y, kernel=kernel)

    def test_box_bound_cases(self, monkeypatch):
        # Heavy overlap and a small C push many α onto the bound C.
        local = np.random.default_rng(211)
        hit_bound = False
        for C in (0.01, 0.1, 1.0, 10.0):
            X, y = self._problem(local, 30, overlap=0.2)
            fitted = self._assert_paths_agree(monkeypatch, X, y, C=C)
            hit_bound |= bool(np.any(fitted.alpha_ == C))
        assert hit_bound

    @pytest.mark.parametrize("max_iter", [0, 1, 3, 7])
    def test_max_iter_exits(self, monkeypatch, max_iter):
        X, y = self._problem(np.random.default_rng(212), 25, overlap=0.3)
        fitted = self._assert_paths_agree(monkeypatch, X, y, max_iter=max_iter)
        assert fitted.iterations_ == max_iter

    def test_non_finite_kernel_takes_numpy_loop(self, monkeypatch):
        # argmax picks the first NaN; only the numpy loop reproduces that.
        X, y = self._problem(np.random.default_rng(213), 8)
        X[0, 0] = np.nan
        scalar = self._fit(monkeypatch, 8, X, y)
        vector = self._fit(monkeypatch, 0, X, y)
        assert scalar.alpha_.tobytes() == vector.alpha_.tobytes()
        assert scalar.iterations_ == vector.iterations_
