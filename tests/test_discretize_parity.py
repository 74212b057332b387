"""Parity and cache tests for the vectorized discretization pipeline.

The integer-coded path must be *bitwise* interchangeable with the
string-per-window reference (:func:`tests.oracles.legacy_discretize`):
same words, same offsets (values and dtype), same dropped count, under
every numerosity-reduction mode, junction mask and degenerate input.
The :class:`DiscretizationCache` must never change results either —
only skip repeated pre-work (its LRU is pinned in
``tests/test_runtime_cache.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import ParamRanges, ParamSelector
from repro.grammar.inference import find_token_occurrences, find_word_occurrences
from repro.runtime import DiscretizationCache
from repro.runtime.executor import ParallelExecutor
from repro.sax.discretize import REDUCTIONS, SaxParams, SaxRecord, discretize
from tests.oracles import LegacySaxRecord, legacy_discretize


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
        assert find_token_occurrences(np.array([1, 2]), ()) == []
        assert find_token_occurrences(np.array([1]), (1, 2)) == []


class TestDiscretizationCache:
    def test_paa_memoized_per_entry(self, rng):
        series = rng.standard_normal(60)
        cache = DiscretizationCache(max_entries=4)
        entry = cache.windows(series, 10)
        first = entry.paa(5)
        assert entry.paa(5) is first
        entry.paa(4)
        assert entry.n_paa_sizes == 2


class TestParamSelectorParallelEquivalence:
    def _dataset(self):
        rng = np.random.default_rng(3)
        n, m = 20, 50
        X = rng.standard_normal((n, m))
        y = np.repeat([0, 1], n // 2)
        X[y == 1] += np.sin(np.linspace(0, 6, m))
        return X, y

    def _selector(self, X, y, executor):
        return ParamSelector(
            X,
            y,
            ranges=ParamRanges(window=(8, 26), paa=(3, 7), alphabet=(3, 6)),
            n_splits=2,
            cv_folds=3,
            seed=0,
            executor=executor,
        )

    def test_parallel_direct_matches_serial(self):
        X, y = self._dataset()
        serial = self._selector(X, y, None)
        best_serial = serial.select_direct(max_evaluations=20, max_iterations=8)
        with ParallelExecutor(4, "thread") as executor:
            parallel = self._selector(X, y, executor)
            best_parallel = parallel.select_direct(max_evaluations=20, max_iterations=8)
        assert best_serial == best_parallel
        # Deterministic cache-merge: same triples, same insertion order.
        assert list(serial._cache.keys()) == list(parallel._cache.keys())
        for key, evaluation in serial._cache.items():
            other = parallel._cache[key]
            assert evaluation.pruned == other.pruned
            assert evaluation.f1_by_class == other.f1_by_class
        assert serial._best == parallel._best

    def test_running_best_matches_full_rescan(self):
        X, y = self._dataset()
        selector = self._selector(X, y, None)
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
