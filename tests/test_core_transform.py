import numpy as np
import pytest

from repro.core.transform import pattern_features
from repro.data.rotate import rotate_series
from repro.distance.best_match import best_match


class TestPatternFeatures:
    def test_shape(self, rng):
        X = rng.standard_normal((5, 40))
        patterns = [rng.standard_normal(10), rng.standard_normal(14)]
        F = pattern_features(X, patterns)
        assert F.shape == (5, 2)

    def test_matches_scalar_best_match(self, rng):
        X = rng.standard_normal((4, 30))
        patterns = [rng.standard_normal(8)]
        F = pattern_features(X, patterns)
        for i in range(4):
            assert F[i, 0] == pytest.approx(best_match(patterns[0], X[i]).distance, abs=1e-8)

    def test_row_helper_agrees(self, rng):
        X = rng.standard_normal((3, 25))
        patterns = [rng.standard_normal(7), rng.standard_normal(9)]
        F = pattern_features(X, patterns)
        for i in range(3):
            np.testing.assert_allclose(
                pattern_features(X[i : i + 1], patterns)[0], F[i], atol=1e-8
            )

    def test_embedded_pattern_gives_near_zero_feature(self, rng):
        pattern = np.hanning(12)
        X = rng.standard_normal((2, 50)) * 0.1
        X[0, 20:32] += pattern * 5
        F = pattern_features(X, [pattern])
        assert F[0, 0] < 0.5
        assert F[1, 0] > F[0, 0]

    def test_accepts_objects_with_values(self, rng):
        class Holder:
            def __init__(self, values):
                self.values = values

        X = rng.standard_normal((2, 20))
        p = rng.standard_normal(6)
        a = pattern_features(X, [p])
        b = pattern_features(X, [Holder(p)])
        np.testing.assert_array_equal(a, b)

    def test_rejects_empty_patterns(self, rng):
        with pytest.raises(ValueError, match="non-empty"):
            pattern_features(rng.standard_normal((2, 20)), [])

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            pattern_features(rng.standard_normal(20), [rng.standard_normal(5)])


class TestRotationInvariantTransform:
    def test_recovers_pattern_broken_by_rotation(self, rng):
        # Embed the pattern, rotate the series so the embedded copy is
        # split across the wrap-around point, and check the invariant
        # transform still sees it.
        pattern = np.hanning(16)
        series = rng.standard_normal(64) * 0.1
        series[24:40] += pattern * 6
        broken = rotate_series(series, 32)  # cuts straight through it
        plain = pattern_features(broken[None, :], [pattern])
        invariant = pattern_features(
            broken[None, :], [pattern], rotation_invariant=True
        )
        assert invariant[0, 0] < 0.6
        assert invariant[0, 0] <= plain[0, 0] + 1e-9

    def test_invariant_never_worse(self, rng):
        X = rng.standard_normal((6, 40))
        patterns = [rng.standard_normal(9)]
        plain = pattern_features(X, patterns)
        invariant = pattern_features(X, patterns, rotation_invariant=True)
        assert (invariant <= plain + 1e-9).all()

    def test_rotation_of_test_data_changes_little(self, rng):
        pattern = np.hanning(12)
        series = rng.standard_normal(48) * 0.1
        series[10:22] += pattern * 5
        base = pattern_features(series[None, :], [pattern], rotation_invariant=True)
        for cut in (5, 17, 29, 41):
            rotated = rotate_series(series, cut)
            feat = pattern_features(
                rotated[None, :], [pattern], rotation_invariant=True
            )
            assert feat[0, 0] < 1.5
        assert base[0, 0] < 0.5
