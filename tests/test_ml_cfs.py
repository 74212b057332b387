import numpy as np
import pytest

from repro.ml.cfs import (
    cfs_select,
    discretize_features,
    symmetrical_uncertainty,
)


class TestDiscretize:
    def test_shape_and_dtype(self, rng):
        codes = discretize_features(rng.standard_normal((30, 4)))
        assert codes.shape == (30, 4)
        assert codes.dtype == int

    def test_equal_frequency_bins(self, rng):
        codes = discretize_features(rng.standard_normal((1000, 1)), bins=10)
        _, counts = np.unique(codes, return_counts=True)
        assert counts.min() > 60  # roughly 100 each

    def test_constant_column_single_code(self):
        codes = discretize_features(np.ones((20, 1)))
        assert np.unique(codes).size == 1

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            discretize_features(np.zeros(5))


class TestSymmetricalUncertainty:
    def test_identical_is_one(self, rng):
        a = rng.integers(0, 4, 100)
        assert symmetrical_uncertainty(a, a) == pytest.approx(1.0)

    def test_independent_near_zero(self, rng):
        a = rng.integers(0, 2, 5000)
        b = rng.integers(0, 2, 5000)
        assert symmetrical_uncertainty(a, b) < 0.05

    def test_symmetry(self, rng):
        a = rng.integers(0, 3, 200)
        b = rng.integers(0, 3, 200)
        assert symmetrical_uncertainty(a, b) == pytest.approx(
            symmetrical_uncertainty(b, a)
        )

    def test_constant_input_zero(self):
        assert symmetrical_uncertainty(np.zeros(10, int), np.arange(10)) == 0.0

    def test_bounds(self, rng):
        for _ in range(20):
            a = rng.integers(0, 5, 50)
            b = rng.integers(0, 5, 50)
            su = symmetrical_uncertainty(a, b)
            assert 0.0 <= su <= 1.0

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError, match="equal length"):
            symmetrical_uncertainty(np.zeros(3, int), np.zeros(4, int))


class TestCfsSelect:
    def _data(self, rng, n=200):
        """Feature 0 informative, 1 an exact duplicate of 0, 2-3 noise."""
        y = rng.integers(0, 2, n)
        f0 = y * 2.0 + rng.standard_normal(n) * 0.3
        f1 = f0.copy()  # perfectly redundant
        f2 = rng.standard_normal(n)
        f3 = rng.standard_normal(n)
        return np.column_stack([f0, f1, f2, f3]), y

    def test_picks_informative_feature(self, rng):
        X, y = self._data(rng)
        result = cfs_select(X, y)
        assert 0 in result.selected or 1 in result.selected

    def test_avoids_pure_noise(self, rng):
        X, y = self._data(rng)
        result = cfs_select(X, y)
        assert 2 not in result.selected
        assert 3 not in result.selected

    def test_redundant_pair_not_both_kept(self, rng):
        X, y = self._data(rng)
        result = cfs_select(X, y)
        assert not (0 in result.selected and 1 in result.selected)

    def test_two_complementary_features(self, rng):
        n = 400
        y = rng.integers(0, 4, n)
        f0 = (y % 2) + rng.standard_normal(n) * 0.15
        f1 = (y // 2) + rng.standard_normal(n) * 0.15
        noise = rng.standard_normal((n, 2))
        X = np.column_stack([f0, f1, noise])
        result = cfs_select(X, y)
        assert 0 in result.selected and 1 in result.selected

    def test_never_empty(self, rng):
        X = rng.standard_normal((40, 3))
        y = rng.integers(0, 2, 40)
        result = cfs_select(X, y)
        assert len(result.selected) >= 1

    def test_selected_sorted_unique(self, rng):
        X, y = self._data(rng)
        sel = cfs_select(X, y).selected
        assert sel == sorted(set(sel))

    def test_max_features_cap(self, rng):
        X = rng.standard_normal((50, 30))
        y = rng.integers(0, 2, 50)
        result = cfs_select(X, y, max_features=5)
        assert set(result.selected) <= set(range(30))

    def test_merit_matches_direct_evaluation(self, rng):
        # The incremental merit must equal the direct formula.
        from repro.ml.cfs import merit_from_sums
        from tests.oracles import MeritEvaluator

        X, y = self._data(rng, n=100)
        codes = discretize_features(X)
        _, y_codes = np.unique(y, return_inverse=True)
        ev = MeritEvaluator(codes, y_codes)
        subset: frozenset[int] = frozenset()
        fc = ff = 0.0
        for j in (0, 2, 3):
            fc, ff = ev.extend_sums(subset, fc, ff, j)
            subset = subset | {j}
            assert merit_from_sums(len(subset), fc, ff) == pytest.approx(
                ev.merit(subset)
            )

    def test_rejects_no_features(self):
        with pytest.raises(ValueError, match="no features"):
            cfs_select(np.zeros((5, 0)), np.zeros(5))

    def test_rejects_mismatched_lengths(self, rng):
        with pytest.raises(ValueError, match="disagree"):
            cfs_select(rng.standard_normal((5, 2)), np.zeros(4))
