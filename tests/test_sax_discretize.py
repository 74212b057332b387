import numpy as np
import pytest

from repro.sax.discretize import SaxParams, discretize, sliding_windows
from repro.sax.sax import sax_word


class TestSaxParams:
    def test_valid(self):
        p = SaxParams(30, 5, 4)
        assert p.as_tuple() == (30, 5, 4)

    def test_rejects_small_window(self):
        with pytest.raises(ValueError, match="window_size"):
            SaxParams(1, 1, 4)

    def test_rejects_paa_bigger_than_window(self):
        with pytest.raises(ValueError, match="paa_size"):
            SaxParams(10, 11, 4)

    def test_rejects_bad_alphabet(self):
        with pytest.raises(ValueError, match="alphabet_size"):
            SaxParams(10, 4, 1)

    def test_frozen(self):
        p = SaxParams(10, 4, 4)
        with pytest.raises(AttributeError):
            p.window_size = 5


class TestSlidingWindows:
    def test_shape_and_content(self):
        out = sliding_windows(np.arange(6.0), 3)
        assert out.shape == (4, 3)
        np.testing.assert_array_equal(out[0], [0, 1, 2])
        np.testing.assert_array_equal(out[-1], [3, 4, 5])

    def test_window_equal_length(self):
        out = sliding_windows(np.arange(4.0), 4)
        assert out.shape == (1, 4)

    def test_rejects_window_too_long(self):
        with pytest.raises(ValueError, match="exceeds"):
            sliding_windows(np.arange(3.0), 5)

    def test_returns_readonly_view_by_default(self):
        series = np.arange(6.0)
        out = sliding_windows(series, 3)
        with pytest.raises(ValueError):
            out[0, 0] = 99
        assert np.shares_memory(out, series)

    def test_copy_opt_in_is_writable(self):
        series = np.arange(6.0)
        out = sliding_windows(series, 3, copy=True)
        out[0, 0] = 99
        assert series[0] == 0.0
        assert not np.shares_memory(out, series)


class TestDiscretize:
    PARAMS = SaxParams(8, 4, 4)

    def test_offsets_match_words(self, rng):
        series = rng.standard_normal(50)
        record = discretize(series, self.PARAMS)
        for word, offset in zip(record.words, record.offsets):
            window = series[offset : offset + self.PARAMS.window_size]
            assert sax_word(window, 4, 4) == word

    def test_numerosity_reduction_removes_consecutive_duplicates(self):
        series = np.concatenate([np.linspace(0, 1, 30), np.linspace(1, 0, 30)])
        full = discretize(series, self.PARAMS, numerosity_reduction=False)
        reduced = discretize(series, self.PARAMS)
        assert len(reduced) <= len(full)
        for a, b in zip(reduced.words, reduced.words[1:]):
            assert a != b

    def test_no_reduction_keeps_every_position(self, rng):
        series = rng.standard_normal(40)
        record = discretize(series, self.PARAMS, numerosity_reduction=False)
        assert len(record) == 40 - 8 + 1
        np.testing.assert_array_equal(record.offsets, np.arange(33))

    def test_first_occurrence_kept(self):
        series = np.sin(np.linspace(0, 2 * np.pi, 60))
        record = discretize(series, self.PARAMS)
        assert record.offsets[0] == 0

    def test_valid_start_skips_positions(self, rng):
        series = rng.standard_normal(30)
        mask = np.ones(30 - 8 + 1, dtype=bool)
        mask[5:12] = False
        record = discretize(series, self.PARAMS, valid_start=mask)
        assert not set(range(5, 12)) & set(record.offsets.tolist())
        assert record.dropped == 7

    def test_valid_start_breaks_numerosity_runs(self):
        # A skipped stretch must restart the run: the first valid word
        # after the gap is always emitted even if it equals the last
        # word before the gap.
        series = np.tile(np.linspace(0, 1, 10), 6)
        n_pos = series.size - 8 + 1
        mask = np.ones(n_pos, dtype=bool)
        mask[20:25] = False
        record = discretize(series, SaxParams(8, 4, 4), valid_start=mask)
        after_gap = [o for o in record.offsets if o >= 25]
        assert after_gap and after_gap[0] == 25

    def test_valid_start_wrong_shape_rejected(self, rng):
        with pytest.raises(ValueError, match="valid_start"):
            discretize(rng.standard_normal(30), self.PARAMS, valid_start=np.ones(5, bool))

    def test_as_string_joins_words(self, rng):
        record = discretize(rng.standard_normal(30), self.PARAMS)
        assert record.as_string().split() == record.words

    def test_series_length_recorded(self, rng):
        record = discretize(rng.standard_normal(42), self.PARAMS)
        assert record.series_length == 42


class TestReductionStrategies:
    PARAMS = SaxParams(8, 4, 4)

    def test_bool_aliases(self, rng):
        series = rng.standard_normal(40)
        exact = discretize(series, self.PARAMS, numerosity_reduction="exact")
        as_true = discretize(series, self.PARAMS, numerosity_reduction=True)
        assert exact.words == as_true.words
        none = discretize(series, self.PARAMS, numerosity_reduction="none")
        as_false = discretize(series, self.PARAMS, numerosity_reduction=False)
        assert none.words == as_false.words

    def test_mindist_at_most_exact(self, rng):
        series = np.sin(np.linspace(0, 12, 120)) + rng.standard_normal(120) * 0.05
        exact = discretize(series, self.PARAMS, numerosity_reduction="exact")
        mindist = discretize(series, self.PARAMS, numerosity_reduction="mindist")
        assert len(mindist) <= len(exact)

    def test_mindist_consecutive_words_not_adjacent(self, rng):
        series = np.sin(np.linspace(0, 12, 120)) + rng.standard_normal(120) * 0.05
        record = discretize(series, self.PARAMS, numerosity_reduction="mindist")
        for a, b in zip(record.words, record.words[1:]):
            assert any(abs(ord(x) - ord(y)) > 1 for x, y in zip(a, b))

    def test_rejects_unknown_strategy(self, rng):
        with pytest.raises(ValueError, match="numerosity_reduction"):
            discretize(rng.standard_normal(30), self.PARAMS, numerosity_reduction="fuzzy")


class TestNonFiniteInput:
    """A NaN or inf is refused, never mapped to a letter.

    The window moments come from prefix sums, which would carry one
    non-finite value into every later window; before that, every window
    touching it got the top letter.
    """

    PARAMS = SaxParams(8, 4, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_discretize_names_the_first_non_finite_index(self, rng, bad):
        series = rng.standard_normal(29)
        series[[11, 20]] = bad
        with pytest.raises(ValueError, match="non-finite value at index 11"):
            discretize(series, self.PARAMS)

    def test_cache_refuses_without_keeping_an_entry(self, rng):
        from repro.runtime import DiscretizationCache

        series = rng.standard_normal(29)
        series[5] = np.nan
        cache = DiscretizationCache(max_entries=4)
        for _ in range(2):
            with pytest.raises(ValueError, match="index 5"):
                discretize(series, self.PARAMS, cache=cache)
        assert len(cache) == 0 and cache.misses == 2

    def test_finite_values_whose_sum_overflows_are_accepted(self):
        # The moments overflow, so every window goes through the
        # reference expression.
        from tests.oracles import legacy_discretize

        series = np.tile([1.7e308, 1.7e308, -1e308, 0.5], 6)
        with np.errstate(over="ignore", invalid="ignore"):
            got = discretize(series, self.PARAMS, numerosity_reduction=False)
            expected = legacy_discretize(series, self.PARAMS, numerosity_reduction=False)
        assert got.words == expected.words

    def test_callers_refuse_it(self, rng):
        from repro.baselines.bag_of_patterns import BagOfPatternsClassifier
        from repro.baselines.saxvsm import SaxVsmClassifier
        from repro.motif import find_discords_density, find_motifs

        series = np.sin(np.arange(120) / 4.0) + 0.1 * rng.standard_normal(120)
        series[40] = np.nan
        with pytest.raises(ValueError, match="index 40"):
            find_motifs(series, self.PARAMS)
        with pytest.raises(ValueError, match="index 40"):
            find_discords_density(series, self.PARAMS)
        X = np.tile(series[:60], (4, 1))
        y = np.array([0, 0, 1, 1])
        with pytest.raises(ValueError, match="index 40"):
            SaxVsmClassifier(params=self.PARAMS).fit(X, y)
        with pytest.raises(ValueError, match="index 40"):
            BagOfPatternsClassifier(params=self.PARAMS).fit(X, y)
