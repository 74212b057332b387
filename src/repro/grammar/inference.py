"""Junction-aware grammar inference over concatenated class series.

This module glues the SAX discretization and Sequitur together the way
RPM's Algorithm 1 needs (paper §3.2.2, Figure 4):

* training instances of a class are concatenated into one long series;
* sliding windows that *span a junction* between two instances are
  excluded from discretization (they would be concatenation artifacts);
* a Sequitur grammar is induced over the surviving SAX words;
* every rule is expanded to its terminal word sequence and **all** its
  occurrences in the word stream are located, then mapped back to raw
  variable-length subsequence spans (numerosity reduction is what makes
  the spans vary in length);
* occurrences that would cross a junction in raw coordinates are
  dropped, and each occurrence is tagged with the training instance it
  lies in.

The occurrences of all rules are found and mapped as one table of
arrays (:func:`occurrence_table`, :class:`MotifTable`), not one rule at
a time. A single long series is one instance of its own: motif
discovery (:mod:`repro.motif`) runs the same :func:`induce_motifs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from ..sax.discretize import SaxParams, SaxRecord, discretize
from .sequitur import Sequitur

__all__ = [
    "MotifTable",
    "Occurrence",
    "RuleMotif",
    "concatenate_with_junctions",
    "discretize_class",
    "induce_motifs",
    "occurrence_table",
]


@dataclass(frozen=True)
class Occurrence:
    """One raw-coordinate occurrence of a grammar-rule motif.

    ``start``/``end`` index the concatenated series (end exclusive);
    ``instance`` is the index of the training instance containing it
    (0 throughout a single series).
    """

    start: int
    end: int
    instance: int

    @property
    def length(self) -> int:
        """Number of points."""
        return self.end - self.start


@dataclass
class RuleMotif:
    """A motif: one grammar rule and its occurrences.

    :class:`MotifTable` builds one per rule of a class's grammar, and
    :func:`~repro.motif.find_motifs` one per rule of a single series,
    with the ``prototype`` of its occurrences when asked to refine. The
    prototype is derived from the occurrences, so equality ignores it.
    """

    rule_id: int
    words: tuple[str, ...]
    occurrences: list[Occurrence] = field(default_factory=list)
    prototype: np.ndarray | None = field(default=None, compare=False)

    @property
    def support(self) -> int:
        """Number of *distinct training instances* covering the motif."""
        return len({occ.instance for occ in self.occurrences})

    @property
    def frequency(self) -> int:
        """Total number of occurrences in the concatenated series."""
        return len(self.occurrences)

    def mean_length(self) -> float:
        """Average occurrence length in points."""
        if not self.occurrences:
            return 0.0
        return float(np.mean([occ.length for occ in self.occurrences]))

    def covered_points(self) -> int:
        """Number of series points covered by at least one occurrence."""
        if not self.occurrences:
            return 0
        spans = sorted((occ.start, occ.end) for occ in self.occurrences)
        total = 0
        cur_start, cur_end = spans[0]
        for start, end in spans[1:]:
            if start > cur_end:
                total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        total += cur_end - cur_start
        return total

    def subsequences(self, series: np.ndarray) -> list[np.ndarray]:
        """Raw subsequences of every occurrence."""
        series = np.asarray(series, dtype=float)
        return [series[occ.start : occ.end] for occ in self.occurrences]


def concatenate_with_junctions(
    instances: Sequence[np.ndarray],
    window_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate class instances and mark junction-spanning windows.

    Returns ``(series, starts, valid_start)`` where ``starts[i]`` is the
    offset of instance ``i`` in the concatenation and ``valid_start`` is
    the boolean mask (one entry per sliding-window position) that is
    False for windows crossing an instance boundary.
    """
    if not instances:
        raise ValueError("need at least one instance to concatenate")
    arrays = [np.asarray(inst, dtype=float).ravel() for inst in instances]
    lengths = np.array([a.size for a in arrays])
    if (lengths < window_size).any():
        raise ValueError(
            f"every instance must be at least window_size={window_size} long; "
            f"shortest is {lengths.min()}"
        )
    series = np.concatenate(arrays)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(int)
    n_positions = series.size - window_size + 1
    valid = np.ones(n_positions, dtype=bool)
    for start, length in zip(starts, lengths):
        # A window starting at p covers [p, p + window). It spans the next
        # junction when p > start + length - window.
        first_bad = start + length - window_size + 1
        last_bad = start + length - 1  # windows starting inside the instance
        if first_bad < n_positions:
            # For the last instance first_bad == n_positions, so nothing
            # is marked: its tail windows span no junction.
            valid[first_bad : min(last_bad + 1, n_positions)] = False
    return series, starts, valid


def occurrence_table(
    token_ids: np.ndarray, expansions: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Every occurrence of every expansion in *token_ids*, as two arrays.

    Returns ``(rule, position)``: for each occurrence, the index of its
    expansion in *expansions* and the token position it starts at,
    sorted by expansion and then by position. Overlapping occurrences
    are reported. The candidates of an expansion are the positions of
    its first token from which it fits in the stream; they are filtered
    one expansion position at a time, across all expansions at once, so
    the work is one numpy pass per position of the longest expansion.
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    n = token_ids.size
    sizes = np.fromiter(map(len, expansions), dtype=np.intp, count=len(expansions))
    if sizes.size and sizes.min() < 1:
        raise ValueError("every expansion must hold at least one token")
    if n == 0 or sizes.size == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    flat = np.fromiter(chain.from_iterable(expansions), dtype=np.int64, count=int(sizes.sum()))
    head = np.cumsum(sizes) - sizes  # each expansion's first token in ``flat``
    first = flat[head]
    # Token t's positions, ascending: by_token[token_start[t]:token_start[t + 1]].
    by_token = np.argsort(token_ids, kind="stable")
    counts = np.bincount(token_ids, minlength=int(first.max()) + 1)
    token_start = np.concatenate(([0], np.cumsum(counts)))
    counts = counts[first]
    block = np.cumsum(counts) - counts
    rule = np.repeat(np.arange(sizes.size), counts)
    position = by_token[
        np.arange(int(counts.sum())) + np.repeat(token_start[first] - block, counts)
    ]
    size = sizes[rule]
    fits = position + size <= n
    # Longest expansions first, so the candidates still being matched at
    # step j are a prefix; a stable sort keeps positions ascending.
    order = np.argsort(-size[fits], kind="stable")
    rule, position, size = rule[fits][order], position[fits][order], size[fits][order]
    cursor = head[rule]
    matched_rule, matched_position = [], []
    for j in range(1, int(sizes.max())):
        live = int(np.count_nonzero(size > j))
        matched_rule.append(rule[live:])
        matched_position.append(position[live:])
        rule, position, size, cursor = rule[:live], position[:live], size[:live], cursor[:live]
        same = token_ids[position + j] == flat[cursor + j]
        rule, position, size, cursor = rule[same], position[same], size[same], cursor[same]
    matched_rule.append(rule)
    matched_position.append(position)
    rule = np.concatenate(matched_rule)
    position = np.concatenate(matched_position)
    # All of an expansion's candidates finish at one step, in position order.
    order = np.argsort(rule, kind="stable")
    return rule[order], position[order]


@dataclass(frozen=True, eq=False)
class MotifTable:
    """The motifs of one grammar and all their occurrences, as arrays.

    Motif ``m`` is grammar rule ``rule_ids[m]``, expanding to the token
    ids ``expansions[m]``. Its occurrences are rows
    ``bounds[m]:bounds[m + 1]`` of ``starts``/``ends`` (raw coordinates,
    end exclusive) and ``instances`` (the training instance holding
    each), in series order. Indexing or iterating the table builds
    :class:`RuleMotif` objects; the SAX words are rendered only there
    and by :meth:`words`.
    """

    rule_ids: np.ndarray
    expansions: tuple[tuple[int, ...], ...]
    bounds: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    instances: np.ndarray
    #: Distinct training instances covered, per motif.
    support: np.ndarray
    record: SaxRecord = field(repr=False)

    def __len__(self) -> int:
        return len(self.expansions)

    @property
    def frequency(self) -> np.ndarray:
        """Occurrence count per motif."""
        return np.diff(self.bounds)

    def words(self, m: int) -> tuple[str, ...]:
        """The SAX words of motif *m*."""
        vocabulary = self.record.vocabulary
        return tuple(vocabulary[i] for i in self.expansions[m])

    def select(self, motifs: np.ndarray) -> "MotifTable":
        """The table of the motifs at indices *motifs*, in that order."""
        motifs = np.asarray(motifs, dtype=np.intp)
        sizes = self.frequency[motifs]
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        rows = np.arange(int(bounds[-1])) + np.repeat(self.bounds[motifs] - bounds[:-1], sizes)
        return MotifTable(
            rule_ids=self.rule_ids[motifs],
            expansions=tuple(self.expansions[m] for m in motifs.tolist()),
            bounds=bounds,
            starts=self.starts[rows],
            ends=self.ends[rows],
            instances=self.instances[rows],
            support=self.support[motifs],
            record=self.record,
        )

    def __getitem__(self, m: int) -> RuleMotif:
        m = range(len(self))[m]
        lo, hi = int(self.bounds[m]), int(self.bounds[m + 1])
        return RuleMotif(
            rule_id=int(self.rule_ids[m]),
            words=self.words(m),
            occurrences=[
                Occurrence(start=start, end=end, instance=instance)
                for start, end, instance in zip(
                    self.starts[lo:hi].tolist(),
                    self.ends[lo:hi].tolist(),
                    self.instances[lo:hi].tolist(),
                )
            ],
        )

    def __iter__(self) -> Iterator[RuleMotif]:
        return (self[m] for m in range(len(self)))


def induce_motifs(
    record: SaxRecord,
    instance_starts: Sequence[int],
    instance_lengths: Sequence[int],
    *,
    min_frequency: int = 2,
    min_word_count: int = 1,
) -> MotifTable:
    """Run Sequitur over a :class:`SaxRecord` and map rules to raw motifs.

    Parameters
    ----------
    record:
        The discretized (numerosity-reduced, junction-filtered) words.
    instance_starts, instance_lengths:
        Layout of the concatenated series, as returned by
        :func:`concatenate_with_junctions`; ``[0]`` and ``[len(series)]``
        for a single series.
    min_frequency:
        Rules with fewer raw occurrences are dropped (Sequitur
        guarantees >= 2 by construction, so this mostly filters rules
        whose occurrences were removed by the junction check).
    min_word_count:
        Minimum number of SAX words a rule must expand to.

    Returns
    -------
    MotifTable
        The candidate motifs in rule-id (creation) order, one per
        distinct expansion (of rules sharing one, the first wins), with
        every occurrence, its instance, and each motif's support. An
        occurrence spans from its first word's offset to its last
        word's offset plus the window.
    """
    grammar = Sequitur().feed_all(record.token_ids.tolist())
    rule_ids: list[int] = []
    expansions: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for grammar_rule in grammar.non_start_rules():
        expansion = tuple(grammar_rule.expansion())
        if len(expansion) < min_word_count or expansion in seen:
            continue
        seen.add(expansion)
        rule_ids.append(grammar_rule.rule_id)
        expansions.append(expansion)
    rule, position = occurrence_table(record.token_ids, expansions)
    sizes = np.fromiter(map(len, expansions), dtype=np.intp, count=len(expansions))
    starts = record.offsets[position]
    ends = record.offsets[position + sizes[rule] - 1] + record.params.window_size
    first = np.asarray(instance_starts, dtype=np.intp)
    last = first + np.asarray(instance_lengths, dtype=np.intp)
    instances = np.searchsorted(first, starts, side="right") - 1
    # Drop occurrences crossing a junction (can happen when numerosity
    # reduction made two sides of a junction adjacent).
    inside = ends <= last[instances]
    rule, starts, ends, instances = rule[inside], starts[inside], ends[inside], instances[inside]
    frequency = np.bincount(rule, minlength=len(expansions))
    frequent = frequency >= min_frequency
    kept = np.flatnonzero(frequent)
    inside = frequent[rule]
    motif = (np.cumsum(frequent) - 1)[rule[inside]]
    starts, ends, instances = starts[inside], ends[inside], instances[inside]
    # Occurrences run in series order, so a motif's instances never
    # decrease: each new (motif, instance) pair starts a run.
    new = np.ones(motif.size, dtype=bool)
    new[1:] = (motif[1:] != motif[:-1]) | (instances[1:] != instances[:-1])
    return MotifTable(
        rule_ids=np.asarray(rule_ids, dtype=np.intp)[kept],
        expansions=tuple(expansions[m] for m in kept.tolist()),
        bounds=np.concatenate(([0], np.cumsum(frequency[kept]))),
        starts=starts,
        ends=ends,
        instances=instances,
        support=np.bincount(motif[new], minlength=kept.size),
        record=record,
    )


def discretize_class(
    instances: Sequence[np.ndarray],
    params: SaxParams,
    *,
    numerosity_reduction: bool = True,
    cache=None,
) -> tuple[SaxRecord, np.ndarray, np.ndarray]:
    """Concatenate, junction-mask and discretize a class's instances.

    Returns ``(record, starts, lengths)`` ready for :func:`induce_motifs`.
    ``cache`` is an optional
    :class:`~repro.runtime.DiscretizationCache`; repeated calls sharing
    this class's concatenated series and window size (the parameter
    search revisits both constantly) then skip the window-moment and
    segment stages.
    """
    series, starts, valid = concatenate_with_junctions(instances, params.window_size)
    record = discretize(
        series,
        params,
        numerosity_reduction=numerosity_reduction,
        valid_start=valid,
        cache=cache,
    )
    lengths = np.array([np.asarray(inst).size for inst in instances], dtype=int)
    return record, starts, lengths
