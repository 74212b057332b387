import numpy as np
import pytest

from repro.cluster.refine import bisect_refine, centroid_of
from repro.grammar import Occurrence, RuleMotif
from repro.motif import (
    find_discord_brute_force,
    find_discords_density,
    find_motifs,
    rule_density,
)
from repro.sax.discretize import SaxParams, discretize
from tests.oracles import ObjectSequitur, align_subsequences, find_token_occurrences

PARAMS = SaxParams(24, 4, 4)


def _reference_motifs(series, params, *, min_frequency=2, min_words=1, rank_by="frequency",
                      numerosity_reduction=True):
    """find_motifs with its own rule-to-occurrence loop over the object Sequitur."""
    record = discretize(series, params, numerosity_reduction=numerosity_reduction)
    token_ids = record.token_ids
    grammar = ObjectSequitur().feed_all(token_ids.tolist())
    motifs = []
    seen = set()
    for rule in grammar.non_start_rules():
        expansion = tuple(rule.expansion())
        if len(expansion) < min_words or expansion in seen:
            continue
        seen.add(expansion)
        occurrences = []
        for word_index in find_token_occurrences(token_ids, expansion):
            start = int(record.offsets[word_index])
            end = int(record.offsets[word_index + len(expansion) - 1]) + params.window_size
            occurrences.append(Occurrence(start=start, end=min(end, series.size), instance=0))
        if len(occurrences) < min_frequency:
            continue
        motif = RuleMotif(
            rule_id=rule.rule_id,
            words=tuple(record.vocabulary[i] for i in expansion),
            occurrences=occurrences,
        )
        subs = motif.subsequences(series)
        if all(s.size >= 2 for s in subs):
            clusters = bisect_refine(align_subsequences(subs))
            motif.prototype = centroid_of(max(clusters, key=lambda c: c.size))
        motifs.append(motif)
    key = {
        "frequency": lambda m: (m.frequency, m.mean_length()),
        "length": lambda m: (m.mean_length(), m.frequency),
        "coverage": lambda m: (m.covered_points(), m.frequency),
    }[rank_by]
    motifs.sort(key=key, reverse=True)
    return motifs


def _periodic(rng, n=500, period=40, noise=0.1):
    t = np.arange(n)
    return np.sin(2 * np.pi * t / period) + rng.standard_normal(n) * noise


class TestMotifDataclass:
    def test_frequency_and_mean_length(self):
        motif = RuleMotif(
            rule_id=1,
            words=("ab",),
            occurrences=[Occurrence(0, 10, 0), Occurrence(20, 34, 0)],
        )
        assert motif.frequency == 2
        assert motif.mean_length() == 12.0

    def test_covered_points_merges_overlaps(self):
        motif = RuleMotif(
            rule_id=1,
            words=("ab",),
            occurrences=[Occurrence(0, 10, 0), Occurrence(5, 15, 0)],
        )
        assert motif.covered_points() == 15

    def test_covered_points_disjoint(self):
        motif = RuleMotif(
            rule_id=1,
            words=("ab",),
            occurrences=[Occurrence(0, 5, 0), Occurrence(10, 15, 0)],
        )
        assert motif.covered_points() == 10

    def test_empty(self):
        motif = RuleMotif(rule_id=1, words=("ab",))
        assert motif.covered_points() == 0
        assert motif.mean_length() == 0.0


class TestFindMotifs:
    def test_periodic_series_has_frequent_motifs(self, rng):
        series = _periodic(rng)
        motifs = find_motifs(series, PARAMS)
        assert motifs
        assert motifs[0].frequency >= 4

    def test_occurrences_within_bounds(self, rng):
        series = _periodic(rng)
        for motif in find_motifs(series, PARAMS):
            for occ in motif.occurrences:
                assert 0 <= occ.start < occ.end <= series.size

    def test_min_frequency_respected(self, rng):
        series = _periodic(rng)
        for motif in find_motifs(series, PARAMS, min_frequency=5):
            assert motif.frequency >= 5

    def test_top_k_limits(self, rng):
        series = _periodic(rng)
        assert len(find_motifs(series, PARAMS, top_k=3)) <= 3

    @pytest.mark.parametrize("top_k", [0, -1, -3])
    def test_rejects_top_k_below_one(self, top_k):
        with pytest.raises(ValueError, match=f"top_k .* got {top_k}"):
            find_motifs(_periodic(np.random.default_rng(3)), PARAMS, top_k=top_k)

    def test_motifs_are_the_grammar_records(self, rng):
        series = _periodic(rng)
        motifs = find_motifs(series, PARAMS)
        assert all(type(m) is RuleMotif for m in motifs)
        assert {occ.instance for m in motifs for occ in m.occurrences} == {0}
        assert all(m.support == 1 for m in motifs)
        # Records with prototypes compare by rule, words and occurrences.
        assert motifs == find_motifs(series, PARAMS)

    def test_ranking_orders(self, rng):
        series = _periodic(rng)
        by_freq = find_motifs(series, PARAMS, rank_by="frequency")
        freqs = [m.frequency for m in by_freq]
        assert freqs == sorted(freqs, reverse=True)
        by_cov = find_motifs(series, PARAMS, rank_by="coverage")
        covers = [m.covered_points() for m in by_cov]
        assert covers == sorted(covers, reverse=True)

    def test_prototype_is_znormed(self, rng):
        series = _periodic(rng)
        motifs = find_motifs(series, PARAMS, refine=True, top_k=1)
        proto = motifs[0].prototype
        assert proto is not None
        assert abs(proto.mean()) < 1e-6

    def test_no_refine_skips_prototype(self, rng):
        series = _periodic(rng)
        motifs = find_motifs(series, PARAMS, refine=False, top_k=1)
        assert motifs[0].prototype is None

    def test_rejects_bad_ranking(self, rng):
        with pytest.raises(ValueError, match="rank_by"):
            find_motifs(_periodic(rng), PARAMS, rank_by="best")

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            find_motifs(np.zeros((3, 30)), PARAMS)

    def test_random_walk_fewer_motifs_than_periodic(self, rng):
        periodic = _periodic(rng, noise=0.05)
        walk = np.cumsum(rng.standard_normal(500))
        motifs_p = find_motifs(periodic, PARAMS, min_frequency=4)
        motifs_w = find_motifs(walk, PARAMS, min_frequency=4)
        top_p = motifs_p[0].frequency if motifs_p else 0
        top_w = motifs_w[0].frequency if motifs_w else 0
        assert top_p >= top_w


class TestFindMotifsPinned:
    """find_motifs' output, field by field, against a loop of its own."""

    @pytest.mark.parametrize("rank_by", ["frequency", "length", "coverage"])
    @pytest.mark.parametrize("kind", ["periodic", "walk", "bumps"])
    def test_equals_reference_loop(self, kind, rank_by):
        local = np.random.default_rng(29)
        if kind == "periodic":
            series = _periodic(local, n=700)
        elif kind == "walk":
            series = np.cumsum(local.standard_normal(600))
        else:
            series = local.standard_normal(600) * 0.1
            for start in (40, 200, 330, 480):
                series[start : start + 30] += np.hanning(30) * 2.0
        for params, options in [
            (PARAMS, {}),
            (SaxParams(16, 4, 3), {"min_frequency": 3, "min_words": 2}),
            (SaxParams(30, 6, 5), {"numerosity_reduction": False}),
        ]:
            got = find_motifs(series, params, rank_by=rank_by, **options)
            want = _reference_motifs(series, params, rank_by=rank_by, **options)
            assert [(m.rule_id, m.words, m.occurrences) for m in got] == [
                (m.rule_id, m.words, m.occurrences) for m in want
            ]
            for a, b in zip(got, want):
                assert a.prototype.tobytes() == b.prototype.tobytes()


class TestRuleDensity:
    def test_counts_covering_occurrences(self):
        motifs = [
            RuleMotif(rule_id=1, words=("a",), occurrences=[Occurrence(0, 5, 0)]),
            RuleMotif(rule_id=2, words=("b",), occurrences=[Occurrence(3, 8, 0)]),
        ]
        density = rule_density(10, motifs)
        assert density[0] == 1
        assert density[4] == 2
        assert density[9] == 0

    def test_periodic_series_dense_everywhere_in_middle(self, rng):
        series = _periodic(rng, noise=0.05)
        motifs = find_motifs(series, PARAMS, refine=False)
        density = rule_density(series.size, motifs)
        assert density[100:400].min() >= 1


class TestDiscords:
    def _anomalous_series(self, rng, n=600, period=40):
        series = _periodic(rng, n=n, period=period, noise=0.08)
        series[300:330] += np.hanning(30) * 3.0
        return series

    def test_density_discord_near_true_anomaly(self, rng):
        series = self._anomalous_series(rng)
        discord = find_discords_density(series, PARAMS, n_discords=1)[0]
        assert 300 - 40 <= discord.start <= 330

    def test_brute_force_finds_anomaly(self, rng):
        series = self._anomalous_series(rng)
        discord = find_discord_brute_force(series, 30)
        assert 270 <= discord.start <= 330

    def test_multiple_discords_nonoverlapping(self, rng):
        series = self._anomalous_series(rng)
        discords = find_discords_density(series, PARAMS, n_discords=3)
        assert len(discords) <= 3
        for i, a in enumerate(discords):
            for b in discords[i + 1 :]:
                assert abs(a.start - b.start) >= PARAMS.window_size

    def test_scores_sorted_descending(self, rng):
        series = self._anomalous_series(rng)
        discords = find_discords_density(series, PARAMS, n_discords=3)
        scores = [d.score for d in discords]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("n_discords", [0, -1])
    def test_rejects_discord_count_below_one(self, n_discords):
        series = np.cumsum(np.random.default_rng(4).standard_normal(300))
        with pytest.raises(ValueError, match=f"n_discords .* got {n_discords}"):
            find_discords_density(series, PARAMS, n_discords=n_discords)

    @pytest.mark.parametrize("window", [-5, 0, 1, 2.5])
    def test_rejects_window_below_two_or_not_an_integer(self, window):
        series = np.cumsum(np.random.default_rng(4).standard_normal(600))
        with pytest.raises(ValueError, match=f"window .* got {window}"):
            find_discords_density(series, PARAMS, window=window)

    def test_window_none_is_the_sax_window(self):
        series = np.cumsum(np.random.default_rng(4).standard_normal(600))
        assert find_discords_density(series, PARAMS, n_discords=2) == find_discords_density(
            series, PARAMS, n_discords=2, window=PARAMS.window_size
        )

    def test_rejects_window_too_long(self, rng):
        with pytest.raises(ValueError, match="shorter"):
            find_discords_density(np.zeros(30), PARAMS, window=40)
        with pytest.raises(ValueError, match="shorter"):
            find_discord_brute_force(np.zeros(30), 40)
