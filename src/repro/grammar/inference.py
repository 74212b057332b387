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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..sax.discretize import SaxParams, SaxRecord, discretize
from .sequitur import Sequitur

__all__ = [
    "Occurrence",
    "RuleMotif",
    "concatenate_with_junctions",
    "find_token_occurrences",
    "find_word_occurrences",
    "induce_motifs",
    "rule_spans",
]


@dataclass(frozen=True)
class Occurrence:
    """One raw-coordinate occurrence of a grammar-rule motif.

    ``start``/``end`` index the concatenated series (end exclusive);
    ``instance`` is the index of the training instance containing it.
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
    """A candidate class motif: one grammar rule and its occurrences."""

    rule_id: int
    words: tuple[str, ...]
    occurrences: list[Occurrence] = field(default_factory=list)

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


def find_word_occurrences(words: Sequence[str], needle: Sequence[str]) -> list[int]:
    """All start indices at which the token sequence *needle* occurs in *words*.

    Uses a first-token index to keep the scan near-linear for the short
    needles Sequitur produces. Overlapping occurrences are reported.
    Tokens may be any equality-comparable objects (strings, ints).
    """
    if not needle:
        return []
    first = needle[0]
    k = len(needle)
    n = len(words)
    out: list[int] = []
    for i, word in enumerate(words):
        if word != first or i + k > n:
            continue
        if all(words[i + j] == needle[j] for j in range(1, k)):
            out.append(i)
    return out


def find_token_occurrences(token_ids: np.ndarray, needle: Sequence[int]) -> list[int]:
    """Vectorized :func:`find_word_occurrences` over an integer id array.

    One boolean AND per needle position instead of a Python scan per
    window; overlapping occurrences are reported, matching the scalar
    path exactly.
    """
    token_ids = np.asarray(token_ids)
    k = len(needle)
    n = token_ids.size
    if k == 0 or k > n:
        return []
    hits = token_ids[: n - k + 1] == needle[0]
    for j in range(1, k):
        hits &= token_ids[j : n - k + 1 + j] == needle[j]
    return np.flatnonzero(hits).tolist()


def induce_motifs(
    record: SaxRecord,
    instance_starts: Sequence[int],
    instance_lengths: Sequence[int],
    *,
    min_frequency: int = 2,
    min_word_count: int = 1,
) -> list[RuleMotif]:
    """Run Sequitur over a :class:`SaxRecord` and map rules to raw motifs.

    Parameters
    ----------
    record:
        The discretized (numerosity-reduced, junction-filtered) words.
    instance_starts, instance_lengths:
        Layout of the concatenated series, as returned by
        :func:`concatenate_with_junctions`.
    min_frequency:
        Rules with fewer raw occurrences are dropped (Sequitur
        guarantees >= 2 by construction, so this mostly filters rules
        whose occurrences were removed by the junction check).
    min_word_count:
        Minimum number of SAX words a rule must expand to.

    Returns
    -------
    list[RuleMotif]
        Candidate motifs ordered by rule id (creation order).
    """
    starts = np.asarray(instance_starts, dtype=int)
    lengths = np.asarray(instance_lengths, dtype=int)
    start_list = starts.tolist()
    end_list = (starts + lengths).tolist()
    motifs: list[RuleMotif] = []
    for rule_id, expansion, spans in rule_spans(record, min_word_count=min_word_count):
        occurrences: list[Occurrence] = []
        for raw_start, raw_end in spans:
            instance = bisect_right(start_list, raw_start) - 1
            # Drop occurrences crossing a junction (can happen when
            # numerosity reduction made two sides of a junction adjacent).
            if raw_end > end_list[instance]:
                continue
            occurrences.append(Occurrence(start=raw_start, end=raw_end, instance=instance))
        if len(occurrences) >= min_frequency:
            vocabulary = record.vocabulary
            motifs.append(
                RuleMotif(
                    rule_id=rule_id,
                    words=tuple(vocabulary[i] for i in expansion),
                    occurrences=occurrences,
                )
            )
    return motifs


def rule_spans(
    record: SaxRecord, *, min_word_count: int = 1
) -> Iterator[tuple[int, tuple[int, ...], list[tuple[int, int]]]]:
    """Induce a grammar over *record* and map each rule to raw spans.

    Yields ``(rule_id, expansion, spans)`` in rule-id order, once per
    distinct expansion of at least *min_word_count* token ids (the first
    rule with an expansion wins). ``spans`` holds the raw ``(start,
    end)`` of every occurrence of the expansion in the word stream,
    overlapping ones included: from the first word's offset to the last
    word's offset plus the window.

    Grammar induction consumes compact integer token ids; callers render
    the letter strings only for the motifs that survive (display /
    saved-model metadata). Equal words share an id, so the grammar — and
    the dedup — is identical to feeding the strings.
    """
    token_ids = record.token_ids
    offsets = record.offsets.tolist()
    window = record.params.window_size
    grammar = Sequitur().feed_all(token_ids.tolist())
    seen: set[tuple[int, ...]] = set()
    for rule in grammar.non_start_rules():
        expansion = tuple(rule.expansion())
        if len(expansion) < min_word_count or expansion in seen:
            continue
        seen.add(expansion)
        last = len(expansion) - 1
        spans = [
            (offsets[i], offsets[i + last] + window)
            for i in find_token_occurrences(token_ids, expansion)
        ]
        yield rule.rule_id, expansion, spans


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
    search revisits both constantly) then skip the sliding/z-norm/PAA
    stages.
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
