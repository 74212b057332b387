import numpy as np
import pytest

from repro.sax.znorm import NORM_THRESHOLD, znorm, znorm_rows
from tests.oracles import std_znorm


class TestZnorm:
    def test_zero_mean_unit_std(self):
        out = znorm(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert abs(out.mean()) < 1e-12
        assert abs(out.std() - 1.0) < 1e-12

    def test_flat_series_becomes_zeros(self):
        out = znorm(np.full(10, 3.7))
        assert np.array_equal(out, np.zeros(10))

    def test_nearly_flat_series_uses_threshold(self):
        series = 5.0 + np.linspace(0, NORM_THRESHOLD / 10, 8)
        assert np.array_equal(znorm(series), np.zeros(8))

    def test_scale_and_offset_invariance(self):
        base = np.array([0.0, 1.0, -1.0, 2.0, 0.5])
        shifted = 10.0 * base + 42.0
        np.testing.assert_allclose(znorm(base), znorm(shifted), atol=1e-12)

    def test_does_not_mutate_input(self):
        series = np.array([1.0, 2.0, 3.0])
        copy = series.copy()
        znorm(series)
        assert np.array_equal(series, copy)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            znorm(np.zeros((2, 3)))

    def test_empty_input_returns_empty(self):
        assert znorm(np.array([])).size == 0

    def test_single_point_is_flat(self):
        assert np.array_equal(znorm(np.array([5.0])), np.array([0.0]))


class TestZnormMatchesStd:
    """znorm's two reductions against the np.std-based reference, bitwise."""

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129,
                                        255, 256, 257, 1000, 1024, 2049, 4096])
    def test_bitwise_over_offsets_and_scales(self, length):
        local = np.random.default_rng(length)
        for scale in (1e-9, 1e-6, 1e-3, 0.5, 1.0, 37.0, 1e3, 1e6):
            for offset in (0.0, -1.0, 3.5, 250.0, -1e4, 1e4):
                series = local.standard_normal(length) * scale + offset
                assert znorm(series).tobytes() == std_znorm(series).tobytes()

    def test_flat_and_near_threshold(self):
        local = np.random.default_rng(5)
        for length in (2, 5, 64, 777):
            base = local.standard_normal(length)
            base = (base - base.mean()) / base.std()
            for sd in (0.0, NORM_THRESHOLD * 0.999, NORM_THRESHOLD,
                       NORM_THRESHOLD * 1.001, NORM_THRESHOLD * (1 + 1e-12)):
                for offset in (0.0, 42.0, -1e4):
                    series = base * sd + offset
                    assert znorm(series).tobytes() == std_znorm(series).tobytes()
            assert znorm(np.full(length, 7.25)).tobytes() == np.zeros(length).tobytes()

    def test_integer_and_list_input(self):
        for series in ([1, 2, 3, 4], np.arange(12), [5.0]):
            assert znorm(series).tobytes() == std_znorm(series).tobytes()


class TestZnormRows:
    def test_matches_per_row_znorm(self, rng):
        X = rng.standard_normal((6, 20)) * 3.0 + 1.0
        out = znorm_rows(X)
        for i in range(6):
            np.testing.assert_allclose(out[i], znorm(X[i]), atol=1e-12)

    def test_rows_bitwise_equal_znorm(self):
        # The dedup matrix and the refinement rely on this equality.
        local = np.random.default_rng(77)
        for rows, length, scale, offset in [(1, 2, 1.0, 0.0), (5, 7, 1e-3, 3.0),
                                            (9, 64, 1e3, 1e5), (3, 250, 1.0, -2.0)]:
            X = local.standard_normal((rows, length)) * scale + offset
            X[0] = 4.0  # one flat row
            out = znorm_rows(X)
            for i in range(rows):
                assert out[i].tobytes() == znorm(X[i]).tobytes()

    def test_mixed_flat_and_normal_rows(self):
        X = np.vstack([np.full(5, 2.0), np.arange(5.0)])
        out = znorm_rows(X)
        assert np.array_equal(out[0], np.zeros(5))
        assert abs(out[1].std() - 1.0) < 1e-12

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            znorm_rows(np.zeros(5))

    def test_empty_matrix(self):
        out = znorm_rows(np.zeros((0, 4)))
        assert out.shape == (0, 4)
