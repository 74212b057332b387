"""Parity tests for the blocked-SU CFS kernel.

The blocked contingency kernel must be *bitwise* interchangeable with
the scalar ``np.unique``-per-pair reference in ``tests/oracles.py``:
same discretized codes, same SU values expression for expression, same
selected subsets and merits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.cfs import (
    cfs_select,
    column_entropies,
    discretize_features,
    feature_class_su,
    feature_feature_su_matrix,
    symmetrical_uncertainty,
)
from repro.ml import cfs
from repro.obs.metrics import MetricsRegistry, scoped_registry
from tests.oracles import (
    MeritEvaluator,
    closure_best_first_search,
    looped_entropies_from_counts,
    scalar_cfs_select,
)


@pytest.fixture()
def rng() -> np.random.Generator:
    # Module-local override of the session-scoped conftest fixture:
    # these tests draw many variates, and sharing the session stream
    # would shift the data every downstream test module sees.
    return np.random.default_rng(20240806)


def _reference_discretize(X: np.ndarray, bins: int) -> np.ndarray:
    """The pre-vectorization per-column loop (quantiles + searchsorted)."""
    n, d = X.shape
    codes = np.empty((n, d), dtype=int)
    quantiles = np.linspace(0, 1, bins + 1)[1:-1]
    for j in range(d):
        edges = np.unique(np.quantile(X[:, j], quantiles))
        codes[:, j] = np.searchsorted(edges, X[:, j], side="right")
    return codes


@st.composite
def code_matrices(draw):
    """Integer code matrices with adversarial column structure.

    Mixes plain random columns with constant columns (zero entropy) and
    exact duplicates (SU == 1 pairs) — the branches where a clamp or a
    zero-entropy guard could diverge between implementations.
    """
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    codes = gen.integers(0, draw(st.integers(1, 6)), size=(n, d))
    for j in range(d):
        kind = draw(st.sampled_from(["plain", "constant", "duplicate"]))
        if kind == "constant":
            codes[:, j] = draw(st.integers(0, 3))
        elif kind == "duplicate" and j > 0:
            codes[:, j] = codes[:, draw(st.integers(0, j - 1))]
    return codes


@st.composite
def labelings(draw, n):
    """Class code vectors including the degenerate single-class case."""
    n_classes = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(0, n_classes, size=n)


class TestBlockedSuParity:
    @given(code_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_feature_class_su_matches_scalar(self, codes, data):
        y_codes = data.draw(labelings(codes.shape[0]))
        expected = np.array(
            [
                symmetrical_uncertainty(codes[:, j], y_codes)
                for j in range(codes.shape[1])
            ]
        )
        got = feature_class_su(codes, y_codes)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        # The real guarantee is stronger than close: bitwise identical.
        np.testing.assert_array_equal(got, expected)

    @given(code_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_feature_feature_matrix_matches_pairwise_loop(self, codes, data):
        d = codes.shape[1]
        k = data.draw(st.integers(1, d))
        indices = list(
            np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(d)[
                :k
            ]
        )
        got = feature_feature_su_matrix(codes, indices)
        expected = np.zeros((k, k))
        for p in range(k):
            for q in range(p + 1, k):
                # The scalar path (``MeritEvaluator.su_ff``) orients every
                # pair by original column index; joint-entropy fuse order
                # matters at the last ulp, so the oracle must match it.
                lo, hi = sorted((indices[p], indices[q]))
                su = symmetrical_uncertainty(codes[:, lo], codes[:, hi])
                expected[p, q] = expected[q, p] = su
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(got, expected)

    @given(code_matrices())
    @settings(max_examples=40, deadline=None)
    def test_column_entropies_match_unique_path(self, codes):
        from repro.ml.cfs import _entropy

        expected = np.array([_entropy(codes[:, j]) for j in range(codes.shape[1])])
        np.testing.assert_array_equal(column_entropies(codes), expected)

    def test_vectorized_discretize_matches_per_column_loop(self, rng):
        for bins in (1, 2, 10):
            X = rng.standard_normal((37, 6))
            X[:, 2] = 1.5  # constant column → all duplicate quantiles
            X[:, 4] = np.round(X[:, 4])  # heavy ties → some duplicate edges
            np.testing.assert_array_equal(
                discretize_features(X, bins=bins), _reference_discretize(X, bins)
            )

    def test_matrix_oriented_by_original_index(self, rng):
        # Reversed index order must still fuse every pair as
        # (min, max) of the *original* columns — the scalar key.
        codes = rng.integers(0, 5, size=(25, 4))
        forward = feature_feature_su_matrix(codes, [0, 1, 2, 3])
        backward = feature_feature_su_matrix(codes, [3, 2, 1, 0])
        np.testing.assert_array_equal(backward, forward[::-1, ::-1])

    def test_su_pairs_metric_counts_computed_pairs(self, rng):
        codes = rng.integers(0, 4, size=(30, 5))
        y_codes = rng.integers(0, 2, size=30)
        metrics = MetricsRegistry()
        with scoped_registry(metrics):
            feature_class_su(codes, y_codes)
            feature_feature_su_matrix(codes, [0, 1, 2])
        assert metrics.counter_value("cfs.su_pairs") == 5 + 3


def _assert_bitwise(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


class TestEntropiesFromCounts:
    """Grouped row sums reproduce the one-sum-per-row loop bit for bit."""

    def test_random_blocks(self, rng):
        for _ in range(60):
            n_pairs = int(rng.integers(1, 300))
            cap = int(rng.integers(1, 320))
            density = rng.random((n_pairs, 1)) * rng.random()
            counts = (rng.random((n_pairs, cap)) < density) * rng.integers(
                1, 60, size=(n_pairs, cap)
            )
            n_rows = int(rng.integers(1, 400))
            _assert_bitwise(
                cfs._entropies_from_counts(counts, n_rows),
                looped_entropies_from_counts(counts, n_rows),
            )

    def test_empty_and_all_zero_rows(self):
        counts = np.zeros((3, 4), dtype=np.int64)
        counts[1, 2] = 5
        _assert_bitwise(
            cfs._entropies_from_counts(counts, 5),
            looped_entropies_from_counts(counts, 5),
        )
        assert cfs._entropies_from_counts(np.zeros((0, 4), dtype=np.int64), 1).size == 0

    def test_blocks_of_a_tiny_fit(self, monkeypatch):
        from repro import RPMClassifier, SaxParams
        from repro.data import cbf

        blocks = []
        entropies = cfs._entropies_from_counts

        def recording(counts, n_rows):
            got = entropies(counts, n_rows)
            blocks.append((got, looped_entropies_from_counts(counts, n_rows)))
            return got

        monkeypatch.setattr(cfs, "_entropies_from_counts", recording)
        data = cbf(n_train_per_class=8, n_test_per_class=2, length=96, seed=7)
        RPMClassifier(sax_params=SaxParams(24, 5, 4), seed=0).fit(
            data.X_train, data.y_train
        )
        assert blocks, "the fit computed no contingency entropies"
        for got, expected in blocks:
            _assert_bitwise(got, expected)


class TestCfsSelectParity:
    def _datasets(self, rng):
        n, d = 60, 12
        plain = rng.standard_normal((n, d))
        y = np.repeat([0, 1, 2], n // 3)
        informative = plain.copy()
        informative[:, 0] += y * 2.0
        informative[:, 1] -= y
        informative[:, 5] = informative[:, 0]  # redundant duplicate
        informative[:, 7] = 0.25  # constant
        wide = rng.standard_normal((40, 80))  # > max_features cap
        wide[:, 3] += np.repeat([0, 3], 20)
        return [
            (plain, y),
            (informative, y),
            (wide, np.repeat([0, 1], 20)),
        ]

    def test_blocked_matches_scalar_bitwise(self, rng):
        for X, y in self._datasets(rng):
            blocked = cfs_select(X, y)
            scalar = scalar_cfs_select(X, y)
            assert blocked.selected == scalar.selected
            assert blocked.merit == scalar.merit
            np.testing.assert_array_equal(
                blocked.feature_class_su, scalar.feature_class_su
            )

    def test_merit_matches_evaluator_oracle(self, rng):
        for X, y in self._datasets(rng):
            result = cfs_select(X, y)
            codes = discretize_features(np.asarray(X, dtype=float))
            _, y_codes = np.unique(y, return_inverse=True)
            oracle = MeritEvaluator(codes, y_codes).merit(frozenset(result.selected))
            assert result.merit == pytest.approx(oracle, rel=1e-12)

    def test_seed_dataset_pipeline_features(self):
        # Same construction as the conftest two-blob seed dataset.
        gen = np.random.default_rng(12345)
        X = np.vstack(
            [gen.normal(0.0, 0.6, size=(40, 3)), gen.normal(3.0, 0.6, size=(40, 3))]
        )
        y = np.array([0] * 40 + [1] * 40)
        blocked = cfs_select(X, y)
        scalar = scalar_cfs_select(X, y)
        assert blocked.selected == scalar.selected
        assert blocked.merit == scalar.merit


def _matrix_oracle(matrix: np.ndarray, searchable: list[int]):
    """``su_ff(i, j)`` over the searchable-positional matrix."""
    position = {j: p for p, j in enumerate(searchable)}
    return lambda i, j: float(matrix[position[i], position[j]])


@st.composite
def su_problems(draw):
    """A symmetric SU matrix over a shuffled searchable set, with ties
    (repeated values) and zero rows, plus the feature-class SU."""
    d = draw(st.integers(1, 24))
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = rng.choice(levels, size=(d, d)) * (rng.random((d, d)) < 0.8)
    matrix = np.triu(upper, 1)
    matrix = matrix + matrix.T
    searchable = rng.permutation(d + 3)[:d].tolist()
    su_fc = rng.choice(levels + [0.0], size=d + 3)
    return su_fc, matrix, searchable, draw(st.integers(1, 6))


class TestBestFirstSearch:
    """One cumsum per expanded node finds the subset the per-pair sums find."""

    @given(su_problems())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_closure_search(self, problem):
        su_fc, matrix, searchable, max_stale = problem
        got = cfs._best_first_search(su_fc, matrix, searchable, max_stale)
        want = closure_best_first_search(
            su_fc, _matrix_oracle(matrix, searchable), searchable, max_stale
        )
        assert got == want

    def test_searches_of_a_tiny_fit(self, monkeypatch):
        from repro import RPMClassifier
        from repro.data import italy_power_sim

        searches = []
        search = cfs._best_first_search

        def recording(su_fc, ff_matrix, searchable, max_stale):
            got = search(su_fc, ff_matrix, searchable, max_stale)
            want = closure_best_first_search(
                su_fc, _matrix_oracle(ff_matrix, searchable), searchable, max_stale
            )
            searches.append((got, want))
            return got

        monkeypatch.setattr(cfs, "_best_first_search", recording)
        data = italy_power_sim(n_train_per_class=12, n_test_per_class=2, seed=12)
        RPMClassifier(direct_budget=6, n_splits=2, seed=0).fit(data.X_train, data.y_train)
        assert searches, "the fit ran no CFS search"
        assert any(len(got[0]) > 1 for got, _ in searches)
        for got, want in searches:
            assert got == want
