"""Parity and cache tests for the vectorized discretization pipeline.

The integer-coded path must be *bitwise* interchangeable with the
string-per-window reference (:func:`tests.oracles.legacy_discretize`):
same words, same offsets (values and dtype), same dropped count, under
every numerosity-reduction mode, junction mask and degenerate input.
Its codes come from prefix sums, not from the z-normalized window
matrix the reference builds, so the inputs that put a value on a
breakpoint or a window's sd on the flatness threshold are pinned too.
The :class:`DiscretizationCache` must never change results either —
only skip repeated pre-work (its LRU is pinned in
``tests/test_runtime_cache.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ParamRanges, ParamSelector
from repro.grammar.inference import occurrence_table
from repro.runtime import DiscretizationCache
from repro.sax.discretize import REDUCTIONS, SaxParams, SaxRecord, discretize
from repro.sax.znorm import NORM_THRESHOLD
from tests.oracles import (
    LegacySaxRecord,
    find_token_occurrences,
    find_word_occurrences,
    legacy_discretize,
)


@pytest.fixture()
def rng() -> np.random.Generator:
    # Module-local override of the session-scoped conftest fixture:
    # these tests draw many variates, and sharing the session stream
    # would shift the data every downstream test module sees.
    return np.random.default_rng(20240806)


def _assert_records_equal(a: SaxRecord, b: SaxRecord | LegacySaxRecord) -> None:
    assert a.words == b.words
    assert a.offsets.dtype == b.offsets.dtype
    np.testing.assert_array_equal(a.offsets, b.offsets)
    assert a.dropped == b.dropped
    assert a.series_length == b.series_length
    assert a.params == b.params


def _random_mask(rng, n: int) -> np.ndarray:
    mask = rng.random(n) > 0.25
    if not mask.any():
        mask[0] = True
    return mask


class TestVectorizedLegacyParity:
    PARAM_GRID = [
        SaxParams(8, 4, 4),
        SaxParams(10, 3, 5),
        SaxParams(12, 5, 3),  # window not divisible by paa
        SaxParams(7, 7, 6),
    ]

    @pytest.mark.parametrize("reduction", REDUCTIONS + (True, False))
    def test_random_series_all_modes(self, rng, reduction):
        for params in self.PARAM_GRID:
            series = rng.standard_normal(90)
            expected = legacy_discretize(series, params, numerosity_reduction=reduction)
            got = discretize(series, params, numerosity_reduction=reduction)
            _assert_records_equal(got, expected)

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_junction_masks_break_runs(self, rng, reduction):
        params = SaxParams(8, 4, 4)
        for _ in range(10):
            series = rng.standard_normal(70)
            mask = _random_mask(rng, series.size - params.window_size + 1)
            expected = legacy_discretize(
                series, params, numerosity_reduction=reduction, valid_start=mask
            )
            got = discretize(
                series, params, numerosity_reduction=reduction, valid_start=mask
            )
            _assert_records_equal(got, expected)

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_flat_and_repetitive_series(self, reduction):
        params = SaxParams(8, 4, 4)
        flat = np.zeros(50)
        saw = np.tile([0.0, 1.0, 0.0, -1.0], 15).astype(float)
        steps = np.repeat([0.0, 5.0, 0.0], 20).astype(float)
        for series in (flat, saw, steps):
            expected = legacy_discretize(series, params, numerosity_reduction=reduction)
            got = discretize(series, params, numerosity_reduction=reduction)
            _assert_records_equal(got, expected)

    def test_mindist_differs_from_adjacent_heuristic(self):
        # A strictly drifting code sequence: every word is within
        # MINDIST-zero of its neighbour but not of the last *kept* one.
        # Guards against "compare adjacent rows" shortcuts.
        series = np.linspace(0.0, 1.0, 60) ** 2
        params = SaxParams(8, 4, 6)
        expected = legacy_discretize(series, params, numerosity_reduction="mindist")
        got = discretize(series, params, numerosity_reduction="mindist")
        _assert_records_equal(got, expected)

    def test_cache_never_changes_results(self, rng):
        cache = DiscretizationCache(max_entries=8)
        for params in self.PARAM_GRID:
            series = rng.standard_normal(80)
            for reduction in REDUCTIONS:
                plain = discretize(series, params, numerosity_reduction=reduction)
                cached = discretize(
                    series, params, numerosity_reduction=reduction, cache=cache
                )
                again = discretize(
                    series, params, numerosity_reduction=reduction, cache=cache
                )
                _assert_records_equal(cached, plain)
                _assert_records_equal(again, plain)
        assert cache.hits > 0


def _balanced_blocks(rng, n_blocks: int) -> np.ndarray:
    """Blocks of 5 points whose first two sum to their last two.

    Cut at the half point, a block has equal halves, so a window of
    whole blocks split into segments of 2.5 points (``w / p = 2.5``)
    has every segment mean equal to the window mean: every value is
    exactly 0 in exact arithmetic. Quarter-integers keep the sums exact.
    """
    a, b, c, d = rng.integers(-9, 10, size=(4, n_blocks)) / 4.0
    return np.stack([a, b, c, d, a + b - d], axis=1).ravel()


def _case_series(kind: str, length: int, window: int, rng) -> np.ndarray:
    if kind == "gaussian":
        return rng.standard_normal(length)
    if kind == "plateau":
        # Runs of equal values; alternating ones put segment means on
        # the window mean whenever a segment holds whole pairs.
        step = int(rng.integers(1, 4))
        values = rng.choice([-1.0, 1.0], size=length // step + 1)
        if rng.random() < 0.5:
            values = np.tile([1.0, -1.0], length // 2 + 1)
        return np.repeat(values, step)[:length]
    if kind == "walk":
        return np.round(np.cumsum(rng.standard_normal(length)), 1)
    if kind == "half-flat":
        series = rng.standard_normal(length)
        series[: length // 2] = series[0]
        return series
    if kind == "threshold":
        # sd of every even-length window within a few ulp of the threshold.
        k = int(rng.integers(-4, 5))
        series = NORM_THRESHOLD * (1 + k * 2.0**-52) * np.tile([1.0, -1.0], length)[:length]
        series[length // 2 :] += 0.5 * rng.standard_normal(length - length // 2)
        return series
    series = rng.standard_normal(length)
    blocks = _balanced_blocks(rng, length // 5 + 1)
    start = int(rng.integers(0, max(length - window, 0) + 1))
    series[start:] = blocks[: length - start]
    return series


CASE_KINDS = ("gaussian", "plateau", "walk", "half-flat", "threshold", "balanced")


@st.composite
def discretize_cases(draw):
    window = draw(st.integers(2, 40))
    length = window + draw(st.integers(0, 120))
    paa = draw(
        st.one_of(st.just(1), st.just(window), st.integers(1, min(window, 12)))
    )
    params = SaxParams(window, paa, draw(st.integers(2, 12)))
    kind = draw(st.sampled_from(CASE_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = _case_series(kind, length, window, rng)
    if kind != "threshold":
        series = series * draw(st.sampled_from([1e-3, 0.1, 1.0, 1e3]))
    series = series + draw(st.sampled_from([0.0, 1.0, -37.5, 1e3, 1e6, -1e6]))
    mask = None
    if draw(st.booleans()):
        mask = rng.random(length - window + 1) > 0.25
    return series, params, mask


class TestPrefixSumCodes:
    """Codes from prefix sums equal the z-normalized matrix's codes."""

    @staticmethod
    def _assert_matches_reference(series, params, *, mask=None, reduction="none"):
        expected = legacy_discretize(
            series, params, numerosity_reduction=reduction, valid_start=mask
        )
        cache = DiscretizationCache(max_entries=2)
        for _ in range(2):  # uncached, then a cache miss, then a hit
            got = discretize(
                series, params, numerosity_reduction=reduction, valid_start=mask
            )
            _assert_records_equal(got, expected)
            cached = discretize(
                series, params, numerosity_reduction=reduction, valid_start=mask,
                cache=cache,
            )
            _assert_records_equal(cached, expected)

    @given(discretize_cases(), st.sampled_from(REDUCTIONS))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, case, reduction):
        series, params, mask = case
        self._assert_matches_reference(series, params, mask=mask, reduction=reduction)

    @pytest.mark.parametrize("offset", [0.0, 3.0, 1e6])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_plateaus_on_the_zero_breakpoint(self, offset, scale):
        # Every exact value is 0, a breakpoint of even alphabets, so each
        # code follows the sign of the reference's rounding.
        rng = np.random.default_rng(11)
        alternating = np.tile([1.0, -1.0], 60)
        balanced = _balanced_blocks(rng, 24)
        for series, shapes in (
            (alternating, [(4, 2), (8, 4), (12, 3), (5, 2), (9, 2)]),
            (balanced, [(10, 4), (15, 6), (20, 8)]),
        ):
            for window, paa in shapes:
                for alphabet in (2, 4, 6):
                    self._assert_matches_reference(
                        series * scale + offset, SaxParams(window, paa, alphabet)
                    )

    @pytest.mark.parametrize("offset", [0.0, 1.0, 7.5, 1e3, 1e6])
    def test_sd_at_the_flatness_threshold(self, offset):
        # A window with sd == NORM_THRESHOLD is not flat, one an ulp
        # below it is; prefix sums see the sd with an error of their own.
        for ulps in range(-6, 7):
            amplitude = NORM_THRESHOLD * (1 + ulps * 2.0**-52)
            series = np.concatenate(
                [amplitude * np.tile([1.0, -1.0], 40), np.linspace(0.0, 2.0, 40)]
            ) + offset
            for window in (4, 8, 10, 16):
                self._assert_matches_reference(series, SaxParams(window, 2, 4))

    def test_fractional_recompute_runs_the_whole_product(self):
        # One balanced window amid noise: its values sit on the 0
        # breakpoint, and the reference's fractional PAA is a BLAS
        # product whose bits for that row depend on how many rows the
        # product has. Only the whole product reproduces them.
        rng = np.random.default_rng(5)
        for _ in range(12):
            series = rng.standard_normal(200)
            series[60:80] = np.tile(_balanced_blocks(rng, 1), 4) + rng.choice([0.0, 0.5, 10.0])
            self._assert_matches_reference(series, SaxParams(20, 8, 4))

    @pytest.mark.parametrize("params", [SaxParams(16, 1, 3), SaxParams(16, 16, 4), SaxParams(16, 5, 6)])
    def test_single_window_series(self, rng, params):
        self._assert_matches_reference(rng.standard_normal(16) + 5.0, params)


class TestTokenIds:
    def test_token_ids_render_back_to_words(self, rng):
        record = discretize(rng.standard_normal(90), SaxParams(8, 4, 4))
        words = record.words
        assert [record.vocabulary[i] for i in record.token_ids] == words
        # One id per distinct word, ids dense in [0, vocab).
        assert sorted(set(record.vocabulary)) == sorted(set(words))
        assert record.token_ids.dtype == np.int64
        assert set(np.unique(record.token_ids)) <= set(range(len(record.vocabulary)))

    def test_equal_words_share_an_id(self, rng):
        record = discretize(
            rng.standard_normal(90), SaxParams(8, 4, 3), numerosity_reduction=False
        )
        ids_by_word: dict[str, set] = {}
        for word, token in zip(record.words, record.token_ids.tolist()):
            ids_by_word.setdefault(word, set()).add(token)
        assert all(len(ids) == 1 for ids in ids_by_word.values())

    @staticmethod
    def _unique_rows_reference(codes):
        uniq, inverse = np.unique(codes, axis=0, return_inverse=True)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        return np.asarray(inverse).ravel(), tuple("".join(row) for row in letters[uniq])

    @pytest.mark.parametrize("alphabet", range(2, 27))
    def test_packed_ids_equal_row_unique_ids(self, alphabet):
        # PAA sizes 1-20 cover packed keys and, for larger alphabets,
        # rows too wide to pack.
        local = np.random.default_rng(300 + alphabet)
        for paa in range(1, 21):
            # Few distinct letters per column make repeated rows likely.
            codes = local.integers(0, alphabet, size=(300, paa)).astype(np.uint8)
            codes[local.random(300) < 0.5] = codes[0]
            record = SaxRecord(
                offsets=np.arange(300), params=SaxParams(20, paa, alphabet), codes=codes
            )
            ids, vocabulary = self._unique_rows_reference(codes)
            np.testing.assert_array_equal(record.token_ids, ids)
            assert record.vocabulary == vocabulary

    def test_rows_too_wide_to_pack_fall_back(self):
        # 26 ** 14 > 2 ** 63: the rows cannot be packed into one int64.
        local = np.random.default_rng(320)
        codes = local.integers(0, 26, size=(200, 14)).astype(np.uint8)
        codes[::3] = codes[1]
        codes[0, 0], codes[1, 0] = 25, 0
        record = SaxRecord(offsets=np.arange(200), params=SaxParams(20, 14, 26), codes=codes)
        ids, vocabulary = self._unique_rows_reference(codes)
        np.testing.assert_array_equal(record.token_ids, ids)
        assert record.vocabulary == vocabulary

    def test_discretized_records_match_row_unique(self, rng):
        for paa, alphabet in [(1, 2), (4, 4), (8, 6), (12, 26), (16, 26)]:
            record = discretize(
                rng.standard_normal(400),
                SaxParams(16, paa, alphabet),
                numerosity_reduction=False,
            )
            ids, vocabulary = self._unique_rows_reference(record.codes)
            np.testing.assert_array_equal(record.token_ids, ids)
            assert record.vocabulary == vocabulary

    def test_find_token_occurrences_matches_scalar_search(self, rng):
        for _ in range(20):
            ids = rng.integers(0, 4, size=30)
            k = int(rng.integers(1, 4))
            start = int(rng.integers(0, ids.size - k))
            needle = tuple(ids[start : start + k].tolist())
            expected = find_word_occurrences(ids.tolist(), needle)
            assert find_token_occurrences(ids, needle) == expected
            rule, position = occurrence_table(ids, [needle])
            assert position.tolist() == expected
            assert not rule.any()
        assert find_token_occurrences(np.array([1, 2]), ()) == []
        assert find_token_occurrences(np.array([1]), (1, 2)) == []
        assert occurrence_table(np.array([1]), [(1, 2)])[1].size == 0


class TestDiscretizationCache:
    def test_paa_memoized_per_entry(self, rng):
        # One table of segment values per PAA size, shared by every
        # alphabet; the entry itself is shared by every call on the
        # same (series, window).
        series = rng.standard_normal(60)
        cache = DiscretizationCache(max_entries=4)
        entry = cache.windows(series, 10)
        first = entry.codes(5, 4)
        np.testing.assert_array_equal(entry.codes(5, 4), first)
        entry.codes(5, 7)
        assert entry.n_paa_sizes == 1
        entry.codes(4, 4)
        assert entry.n_paa_sizes == 2
        assert cache.windows(series.copy(), 10) is entry


class TestParamSelectorParallelEquivalence:
    def _dataset(self):
        rng = np.random.default_rng(3)
        n, m = 20, 50
        X = rng.standard_normal((n, m))
        y = np.repeat([0, 1], n // 2)
        X[y == 1] += np.sin(np.linspace(0, 6, m))
        return X, y

    def _selector(self, X, y):
        return ParamSelector(
            X,
            y,
            ranges=ParamRanges(window=(8, 26), paa=(3, 7), alphabet=(3, 6)),
            n_splits=2,
            cv_folds=3,
            seed=0,
        )

    def test_running_best_matches_full_rescan(self):
        X, y = self._dataset()
        selector = self._selector(X, y)
        selector.select_direct(max_evaluations=15, max_iterations=6)
        for label in selector.classes_:
            best_key, best_f1 = None, -1.0
            for key, evaluation in selector._cache.items():
                if evaluation.pruned:
                    continue
                f1 = evaluation.f1_by_class.get(label, 0.0)
                if f1 > best_f1:
                    best_f1, best_key = f1, key
            assert selector._best_key_for(label, fallback=None) == (
                best_key
                if best_key is not None
                else selector.ranges.clip(
                    (selector.ranges.window[0] + selector.ranges.window[1]) // 2, 6, 5
                )
            )
