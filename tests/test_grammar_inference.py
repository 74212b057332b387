import numpy as np
import pytest

from repro.grammar.inference import (
    Occurrence,
    RuleMotif,
    concatenate_with_junctions,
    discretize_class,
    induce_motifs,
)
from repro.sax.discretize import SaxParams
from tests.oracles import find_word_occurrences


class TestConcatenate:
    def test_layout(self):
        a = np.arange(10.0)
        b = np.arange(12.0)
        series, starts, valid = concatenate_with_junctions([a, b], window_size=4)
        assert series.size == 22
        np.testing.assert_array_equal(starts, [0, 10])
        assert valid.size == 22 - 4 + 1

    def test_junction_windows_invalid(self):
        a = np.zeros(10)
        b = np.zeros(10)
        _, _, valid = concatenate_with_junctions([a, b], window_size=4)
        # Windows starting at 7, 8, 9 span the junction at index 10.
        assert not valid[7] and not valid[8] and not valid[9]
        assert valid[6] and valid[10]

    def test_last_instance_tail_is_valid(self):
        _, _, valid = concatenate_with_junctions([np.zeros(8), np.zeros(8)], 4)
        assert valid[-1]

    def test_three_instances(self):
        _, starts, valid = concatenate_with_junctions([np.zeros(6)] * 3, 3)
        np.testing.assert_array_equal(starts, [0, 6, 12])
        # bad windows: starts 4,5 and 10,11
        for pos in (4, 5, 10, 11):
            assert not valid[pos]
        for pos in (0, 3, 6, 9, 12, 15):
            assert valid[pos]

    def test_rejects_short_instance(self):
        with pytest.raises(ValueError, match="at least"):
            concatenate_with_junctions([np.zeros(3)], window_size=5)

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError, match="at least one"):
            concatenate_with_junctions([], window_size=3)


class TestFindWordOccurrences:
    def test_basic(self):
        words = ["a", "b", "c", "a", "b", "a"]
        assert find_word_occurrences(words, ["a", "b"]) == [0, 3]

    def test_overlapping(self):
        assert find_word_occurrences(["x", "x", "x"], ["x", "x"]) == [0, 1]

    def test_full_match(self):
        assert find_word_occurrences(["p", "q"], ["p", "q"]) == [0]

    def test_no_match(self):
        assert find_word_occurrences(["a", "b"], ["c"]) == []

    def test_empty_needle(self):
        assert find_word_occurrences(["a"], []) == []

    def test_needle_longer_than_haystack(self):
        assert find_word_occurrences(["a"], ["a", "a"]) == []


class TestOccurrence:
    def test_length(self):
        occ = Occurrence(start=5, end=12, instance=0)
        assert occ.length == 7


class TestRuleMotif:
    def test_support_counts_distinct_instances(self):
        motif = RuleMotif(
            rule_id=1,
            words=("ab",),
            occurrences=[
                Occurrence(0, 5, 0),
                Occurrence(8, 13, 0),
                Occurrence(20, 25, 1),
            ],
        )
        assert motif.support == 2
        assert motif.frequency == 3
        assert motif.mean_length() == 5.0

    def test_empty_motif(self):
        motif = RuleMotif(rule_id=1, words=("ab",))
        assert motif.support == 0
        assert motif.mean_length() == 0.0


def _bump_instance(rng, length=60, pos=20):
    out = rng.standard_normal(length) * 0.05
    out[pos : pos + 15] += np.hanning(15) * 3.0
    return out


class TestInduceMotifs:
    PARAMS = SaxParams(12, 4, 4)

    def test_shared_bump_found_in_all_instances(self, rng):
        instances = [_bump_instance(rng) for _ in range(6)]
        record, starts, lengths = discretize_class(instances, self.PARAMS)
        motifs = induce_motifs(record, starts, lengths)
        assert motifs, "expected at least one motif for a shared pattern"
        best = max(motifs, key=lambda m: m.support)
        assert best.support >= 4

    def test_occurrences_inside_instances(self, rng):
        instances = [_bump_instance(rng) for _ in range(5)]
        record, starts, lengths = discretize_class(instances, self.PARAMS)
        ends = starts + lengths
        for motif in induce_motifs(record, starts, lengths):
            for occ in motif.occurrences:
                assert starts[occ.instance] <= occ.start
                assert occ.end <= ends[occ.instance]

    def test_variable_length_occurrences_possible(self, rng):
        # Numerosity reduction lets one rule cover raw spans of varying
        # length; verify the machinery reports span lengths >= window.
        instances = [_bump_instance(rng) for _ in range(6)]
        record, starts, lengths = discretize_class(instances, self.PARAMS)
        for motif in induce_motifs(record, starts, lengths):
            for occ in motif.occurrences:
                assert occ.length >= self.PARAMS.window_size

    def test_min_frequency_filter(self, rng):
        instances = [_bump_instance(rng) for _ in range(6)]
        record, starts, lengths = discretize_class(instances, self.PARAMS)
        motifs = induce_motifs(record, starts, lengths, min_frequency=4)
        assert all(m.frequency >= 4 for m in motifs)

    def test_pure_noise_has_no_high_support_motifs(self, rng):
        instances = [rng.standard_normal(60) for _ in range(5)]
        record, starts, lengths = discretize_class(instances, self.PARAMS)
        motifs = induce_motifs(record, starts, lengths)
        # Noise may produce incidental repeats, but none should cover
        # nearly all instances at high frequency.
        assert all(m.frequency < 12 for m in motifs)

    def test_expansions_unique(self, rng):
        instances = [_bump_instance(rng) for _ in range(6)]
        record, starts, lengths = discretize_class(instances, self.PARAMS)
        motifs = induce_motifs(record, starts, lengths)
        words = [m.words for m in motifs]
        assert len(words) == len(set(words))
