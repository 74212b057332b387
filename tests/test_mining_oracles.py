"""The array mining program against the per-rule oracles in ``tests/oracles.py``.

``repro.grammar.inference`` finds every rule's occurrences in one table
and ``repro.cluster.refine.align_groups`` resamples every member of one
aligned length together. Both must reproduce the per-rule path bit for
bit: the token-stream scan per rule, the ``bisect_right`` per
occurrence, and one ``np.interp`` per member plus one ``znorm_rows``
per rule.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.refine import align_groups
from repro.grammar.inference import induce_motifs, occurrence_table
from repro.grammar.sequitur import Sequitur
from repro.sax.discretize import SaxParams, SaxRecord
from tests.oracles import align_subsequences, find_token_occurrences, per_rule_motifs


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


@st.composite
def streams_and_expansions(draw):
    """A token stream over a small alphabet (many overlapping repeats) and
    needles cut from it, repeated, or absent; some end at the last token."""
    alphabet = draw(st.integers(1, 4))
    tokens = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=60))
    n = len(tokens)
    expansions = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["cut", "tail", "random", "repeat"]))
        if kind == "repeat" and expansions:
            expansions.append(draw(st.sampled_from(expansions)))
        elif kind == "random":
            expansions.append(
                tuple(draw(st.lists(st.integers(0, alphabet), min_size=1, max_size=5)))
            )
        else:
            size = draw(st.integers(1, min(n, 8)))
            start = n - size if kind == "tail" else draw(st.integers(0, n - size))
            expansions.append(tuple(tokens[start : start + size]))
    return np.array(tokens, dtype=np.int64), expansions


class TestOccurrenceTable:
    @given(streams_and_expansions())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_scan_per_rule(self, case):
        tokens, expansions = case
        rule, position = occurrence_table(tokens, expansions)
        want_rule, want_position = [], []
        for r, expansion in enumerate(expansions):
            hits = find_token_occurrences(tokens, expansion)
            want_rule += [r] * len(hits)
            want_position += hits
        assert rule.tolist() == want_rule
        assert position.tolist() == want_position

    def test_overlapping_and_last_token_occurrences(self):
        tokens = np.array([1, 1, 1, 0, 1, 1])
        rule, position = occurrence_table(tokens, [(1, 1), (0, 1, 1), (1,)])
        assert rule.tolist() == [0, 0, 0, 1, 2, 2, 2, 2, 2]
        assert position.tolist() == [0, 1, 4, 3, 0, 1, 2, 4, 5]

    def test_empty_inputs(self):
        assert occurrence_table(np.array([], dtype=np.int64), [(1,)])[0].size == 0
        assert occurrence_table(np.array([1, 2]), [])[1].size == 0


@st.composite
def records(draw):
    """A SaxRecord over a random token stream with gappy offsets (as
    numerosity reduction leaves them) and a random instance layout, so
    that raw spans cross junctions."""
    alphabet = draw(st.integers(2, 3))
    tokens = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=50))
    steps = draw(st.lists(st.integers(1, 4), min_size=len(tokens) - 1, max_size=len(tokens) - 1))
    offsets = np.concatenate(([0], np.cumsum(steps, dtype=np.intp)))
    window = draw(st.integers(2, 6))
    length = int(offsets[-1]) + window
    cuts = sorted(set(draw(st.lists(st.integers(1, length - 1), max_size=6))))
    starts = np.array([0, *cuts])
    lengths = np.diff(np.append(starts, length))
    record = SaxRecord(
        offsets,
        SaxParams(window, 1, alphabet),
        series_length=length,
        codes=np.array(tokens, dtype=np.uint8)[:, None],
    )
    return record, starts, lengths


class TestInduceMotifs:
    @given(records(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_rule_motifs(self, case, min_frequency, min_word_count):
        record, starts, lengths = case
        options = dict(min_frequency=min_frequency, min_word_count=min_word_count)
        table = induce_motifs(record, starts, lengths, **options)
        want = per_rule_motifs(record, starts, lengths, **options)
        assert list(table) == want
        assert table.support.tolist() == [m.support for m in want]
        assert table.frequency.tolist() == [m.frequency for m in want]

    @given(records())
    @settings(max_examples=200, deadline=None)
    def test_rule_spans_equal_the_scan_per_rule(self, case):
        # A single series is one instance: every raw span of every
        # distinct expansion is kept, as motif discovery needs.
        record, _, _ = case
        window = record.params.window_size
        offsets = record.offsets.tolist()
        want, seen = [], set()
        for rule in Sequitur().feed_all(record.token_ids.tolist()).non_start_rules():
            expansion = tuple(rule.expansion())
            if expansion in seen:
                continue
            seen.add(expansion)
            spans = [
                (offsets[i], offsets[i + len(expansion) - 1] + window, 0)
                for i in find_token_occurrences(record.token_ids, expansion)
            ]
            want.append((rule.rule_id, expansion, spans))
        table = induce_motifs(record, [0], [record.series_length], min_frequency=1)
        got = [
            (motif.rule_id, expansion, [(o.start, o.end, o.instance) for o in motif.occurrences])
            for motif, expansion in zip(table, table.expansions)
        ]
        assert got == want

    def test_first_rule_wins_a_repeated_expansion(self):
        # Sequitur builds two rules expanding to (1, 1, 1) here.
        tokens = [1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1]
        expansions = [
            tuple(r.expansion()) for r in Sequitur().feed_all(tokens).non_start_rules()
        ]
        assert expansions.count((1, 1, 1)) == 2
        record = SaxRecord(
            np.arange(len(tokens)),
            SaxParams(2, 1, 2),
            series_length=len(tokens) + 1,
            codes=np.array(tokens, dtype=np.uint8)[:, None],
        )
        starts, lengths = np.array([0]), np.array([len(tokens) + 1])
        table = induce_motifs(record, starts, lengths)
        assert list(table) == per_rule_motifs(record, starts, lengths)
        assert len(table) == len(set(expansions))

    def test_drops_junction_crossing_occurrences(self):
        # Offsets 0, 4, 8, 12 with a window of 4 and a junction at 6: the
        # spans of (0, 1) are [0, 8), across the junction, and [8, 16),
        # inside the second instance.
        record = SaxRecord(
            np.array([0, 4, 8, 12]),
            SaxParams(4, 1, 2),
            series_length=16,
            codes=np.array([0, 1, 0, 1], dtype=np.uint8)[:, None],
        )
        starts, lengths = np.array([0, 6]), np.array([6, 10])
        table = induce_motifs(record, starts, lengths, min_frequency=1)
        assert list(table) == per_rule_motifs(record, starts, lengths, min_frequency=1)
        assert [(o.start, o.end, o.instance) for o in table[0].occurrences] == [(8, 16, 1)]
        assert table.support.tolist() == [1]


@st.composite
def member_groups(draw):
    """Groups of subsequences laid out in one series: 2-point members,
    flat members, members at the group's median length, large offsets."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces, starts, ends, bounds = [], [], [], [0]
    position = 0
    for _ in range(draw(st.integers(1, 6))):
        base = draw(st.integers(2, 40))
        for _ in range(draw(st.integers(1, 7))):
            kind = draw(st.sampled_from(["base", "other", "two", "flat"]))
            size = {"base": base, "two": 2}.get(kind) or draw(st.integers(2, 60))
            offset = draw(st.sampled_from([0.0, 3.5, -1e4, 1e6]))
            scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
            values = np.full(size, offset) if kind == "flat" else (
                rng.standard_normal(size) * scale + offset
            )
            gap = draw(st.integers(0, 3))
            pieces.append(np.zeros(gap))
            pieces.append(values)
            starts.append(position + gap)
            ends.append(position + gap + size)
            position += gap + size
        bounds.append(len(starts))
    return np.concatenate(pieces), starts, ends, bounds


class TestAlignGroups:
    @given(member_groups())
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_interp_then_znorm_rows(self, case):
        series, starts, ends, bounds = case
        aligned = align_groups(series, starts, ends, bounds)
        assert aligned.sizes.size == len(bounds) - 1
        for g in range(len(bounds) - 1):
            members = range(bounds[g], bounds[g + 1])
            want = align_subsequences([series[starts[i] : ends[i]] for i in members])
            np.testing.assert_array_equal(_bits(aligned[g]), _bits(want))

    def test_groups_of_one_length_share_one_matrix(self):
        series = np.random.default_rng(0).standard_normal(100)
        aligned = align_groups(series, [0, 10, 20, 30, 42], [10, 20, 30, 42, 50], [0, 2, 3, 5])
        assert sorted(aligned.matrices) == [10]
        assert aligned.matrices[10].shape == (5, 10)
        assert aligned.first_rows.tolist() == [0, 2, 3]

    def test_rejects_empty_groups_and_tiny_members(self):
        series = np.arange(10.0)
        with pytest.raises(ValueError, match="at least one"):
            align_groups(series, [0], [5], [0, 0, 1])
        with pytest.raises(ValueError, match="at least 2"):
            align_groups(series, [0], [1], [0, 1])
