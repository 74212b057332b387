"""Property-based tests (hypothesis) on the core data structures."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.distance.best_match import best_match
from repro.distance.dtw import dtw_distance
from repro.distance.euclidean import euclidean, pairwise_euclidean
from repro.grammar.sequitur import induce_grammar
from repro.ml.stats import rankdata_average
from repro.sax.paa import paa
from repro.sax.sax import mindist, sax_word
from repro.sax.znorm import NORM_THRESHOLD, znorm
from tests.oracles import (
    agglomerate,
    best_match_scalar,
    cut_k,
    dtw_distance_reference,
    find_word_occurrences,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def series_strategy(min_size=2, max_size=40):
    return arrays(np.float64, st.integers(min_size, max_size), elements=finite_floats)


class TestZnormProperties:
    @given(series_strategy())
    def test_idempotent(self, series):
        once = znorm(series)
        twice = znorm(once)
        np.testing.assert_allclose(once, twice, atol=1e-9)

    @given(series_strategy(), st.floats(0.1, 100), st.floats(-50, 50))
    def test_affine_invariance(self, series, scale, offset):
        # Scaling can legitimately push a near-flat series across the
        # flatness threshold; restrict to clearly non-flat inputs.
        assume(series.std() * min(scale, 1.0) > 10 * NORM_THRESHOLD)
        np.testing.assert_allclose(
            znorm(series), znorm(series * scale + offset), atol=1e-6
        )


class TestPaaProperties:
    @given(series_strategy(min_size=4, max_size=60), st.integers(1, 4))
    def test_output_within_input_range(self, series, segments):
        out = paa(series, segments)
        assert out.min() >= series.min() - 1e-9
        assert out.max() <= series.max() + 1e-9

    @given(series_strategy(min_size=4, max_size=60))
    def test_single_segment_is_mean(self, series):
        np.testing.assert_allclose(paa(series, 1), [series.mean()], atol=1e-9)


class TestSaxProperties:
    @given(series_strategy(min_size=8, max_size=50), st.integers(2, 8), st.integers(2, 8))
    def test_word_length_and_alphabet(self, series, w, alpha):
        word = sax_word(series, min(w, series.size), alpha)
        assert len(word) == min(w, series.size)
        assert all(ord("a") <= ord(ch) < ord("a") + alpha for ch in word)

    @given(series_strategy(min_size=16, max_size=32))
    def test_mindist_lower_bounds_euclidean(self, series):
        a = znorm(series)
        b = znorm(series[::-1].copy())
        n = a.size
        wa = sax_word(a, 8, 4)
        wb = sax_word(b, 8, 4)
        assert mindist(wa, wb, n, 4) <= euclidean(a, b) + 1e-6


class TestDistanceProperties:
    @given(series_strategy(4, 24), series_strategy(4, 24))
    def test_dtw_fast_equals_reference(self, a, b):
        fast = dtw_distance(a, b, 3)
        ref = dtw_distance_reference(a, b, 3)
        # Relative tolerance: the vectorized cumsum formulation trades
        # a few ulps of absolute precision on huge-magnitude inputs
        # (real use runs on z-normalized data).
        scale = max(1.0, abs(ref), float(np.abs(a).max()), float(np.abs(b).max()))
        assert abs(fast - ref) < 1e-6 * scale

    @given(series_strategy(4, 24))
    def test_dtw_identity(self, a):
        assert dtw_distance(a, a) == 0.0

    moderate_floats = st.floats(
        min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
    )

    @given(
        arrays(np.float64, st.integers(3, 10), elements=moderate_floats),
        arrays(np.float64, st.integers(12, 30), elements=moderate_floats),
    )
    def test_best_match_vectorized_equals_scalar(self, pattern, series):
        # Moderate magnitudes: at extreme offsets the two estimators can
        # legitimately disagree on which windows count as "flat". The
        # tolerance is scale-aware like test_euclidean's — the rolling
        # identity loses absolute precision as window offsets grow.
        fast = best_match(pattern, series).distance
        slow = best_match_scalar(pattern, series).distance
        scale = max(1.0, float(np.abs(series).max()))
        assert abs(fast - slow) < 1e-6 * scale

    @given(arrays(np.float64, st.tuples(st.integers(2, 8), st.integers(1, 5)), elements=finite_floats))
    def test_pairwise_euclidean_metric_axioms(self, X):
        D = pairwise_euclidean(X)
        assert (D >= 0).all()
        np.testing.assert_allclose(D, D.T, atol=1e-6)
        assert np.array_equal(np.diag(D), np.zeros(X.shape[0]))


class TestSequiturProperties:
    tokens_strategy = st.lists(st.sampled_from(["a", "b", "c", "ab"]), min_size=1, max_size=80)

    @given(tokens_strategy)
    @settings(max_examples=60)
    def test_derivation_exact(self, tokens):
        g = induce_grammar(tokens)
        assert g.start.expansion() == tokens

    @given(tokens_strategy)
    @settings(max_examples=60)
    def test_rule_utility(self, tokens):
        g = induce_grammar(tokens)
        for rule in g.non_start_rules():
            assert rule.refcount >= 2

    @given(tokens_strategy)
    @settings(max_examples=60)
    def test_rules_occur_at_least_twice(self, tokens):
        g = induce_grammar(tokens)
        for rule in g.non_start_rules():
            assert len(find_word_occurrences(tokens, rule.expansion())) >= 2


class TestClusteringProperties:
    @given(arrays(np.float64, st.tuples(st.integers(2, 12), st.integers(2, 4)), elements=finite_floats))
    @settings(max_examples=40)
    def test_cut_k_partitions(self, X):
        D = pairwise_euclidean(X)
        merges = agglomerate(D)
        n = X.shape[0]
        for k in (1, 2, n):
            labels = cut_k(merges, k)
            assert labels.size == n
            assert np.unique(labels).size <= k


class TestRankProperties:
    @given(arrays(np.float64, st.integers(1, 30), elements=finite_floats))
    def test_rank_sum_invariant(self, values):
        ranks = rankdata_average(values)
        n = values.size
        assert abs(ranks.sum() - n * (n + 1) / 2) < 1e-9


class TestDiscretizeProperties:
    from repro.sax.discretize import SaxParams as _SP

    @given(series_strategy(min_size=20, max_size=80))
    @settings(max_examples=40)
    def test_reduction_never_lengthens(self, series):
        from repro.sax.discretize import SaxParams, discretize

        params = SaxParams(8, 4, 4)
        none = discretize(series, params, numerosity_reduction="none")
        exact = discretize(series, params, numerosity_reduction="exact")
        mindist_rec = discretize(series, params, numerosity_reduction="mindist")
        assert len(mindist_rec) <= len(exact) <= len(none)

    @given(series_strategy(min_size=20, max_size=80))
    @settings(max_examples=40)
    def test_offsets_strictly_increasing(self, series):
        from repro.sax.discretize import SaxParams, discretize

        record = discretize(series, SaxParams(8, 4, 4))
        assert np.all(np.diff(record.offsets) > 0)


class TestEnvelopeProperties:
    from repro.distance.dtw import envelope as _env

    @given(series_strategy(min_size=3, max_size=40), st.integers(0, 10))
    @settings(max_examples=50)
    def test_envelope_widens_with_window(self, series, w):
        from repro.distance.dtw import envelope

        u1, l1 = envelope(series, w)
        u2, l2 = envelope(series, w + 2)
        assert (u2 >= u1 - 1e-12).all()
        assert (l2 <= l1 + 1e-12).all()


class TestMotifProperties:
    @given(st.integers(20, 60), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_motif_occurrences_sane(self, period, reps):
        from repro.motif import find_motifs
        from repro.sax.discretize import SaxParams

        rng_local = np.random.default_rng(period * 31 + reps)
        t = np.arange(period * reps * 3)
        series = np.sin(2 * np.pi * t / period) + rng_local.standard_normal(t.size) * 0.05
        window = max(4, period // 2)
        motifs = find_motifs(series, SaxParams(window, 4, 4), refine=False)
        for motif in motifs:
            assert motif.frequency >= 2
            for occ in motif.occurrences:
                assert 0 <= occ.start < occ.end <= series.size
