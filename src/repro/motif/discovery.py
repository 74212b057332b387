"""Grammar-based motif discovery in a single long time series.

RPM's candidate generation is a classification-driven use of the
authors' earlier GrammarViz system ([7], [31] in the paper): SAX
discretization + Sequitur over *one* long series surfaces recurrent
variable-length patterns (motifs) without any pairwise distance
computation. The paper stresses that this exploratory capability
"extends beyond the classification task" (§1); this module exposes it
directly.

``find_motifs`` returns grammar rules mapped back to raw subsequence
occurrences, ranked by a configurable interestingness criterion, and
optionally refined with the same bisecting clustering RPM uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..cluster.refine import align_groups, bisect_refine, centroid_of
from ..grammar.inference import rule_spans
from ..sax.discretize import SaxParams, discretize

__all__ = ["Motif", "MotifOccurrence", "find_motifs", "rule_density"]

RANKINGS = ("frequency", "length", "coverage")


@dataclass(frozen=True)
class MotifOccurrence:
    """One raw occurrence of a motif: ``[start, end)`` in the series."""

    start: int
    end: int

    @property
    def length(self) -> int:
        """Number of points."""
        return self.end - self.start


@dataclass
class Motif:
    """A recurrent variable-length pattern found by grammar induction."""

    rule_id: int
    words: tuple[str, ...]
    occurrences: list[MotifOccurrence] = field(default_factory=list)
    prototype: np.ndarray | None = None

    @property
    def frequency(self) -> int:
        """Total number of occurrences."""
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


def find_motifs(
    series: np.ndarray,
    params: SaxParams,
    *,
    min_frequency: int = 2,
    min_words: int = 1,
    rank_by: str = "frequency",
    top_k: int | None = None,
    refine: bool = True,
    numerosity_reduction: bool = True,
) -> list[Motif]:
    """Discover recurrent variable-length motifs in *series*.

    Parameters
    ----------
    series:
        One long time series.
    params:
        SAX discretization parameters.
    min_frequency:
        Minimum number of occurrences a motif must have.
    min_words:
        Minimum rule expansion length in SAX words (longer = more
        specific structure).
    rank_by:
        ``'frequency'`` (most repeated first), ``'length'`` (longest
        mean span first) or ``'coverage'`` (most series points covered).
    top_k:
        Keep only the best *k* motifs after ranking.
    refine:
        Compute a z-normalized centroid prototype per motif from its
        aligned occurrences (RPM's refinement, without the split —
        single-series motifs are usually homogeneous).

    Returns
    -------
    list[Motif]
    """
    if rank_by not in RANKINGS:
        raise ValueError(f"rank_by must be one of {RANKINGS}, got {rank_by!r}")
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("find_motifs expects a 1-D series")
    record = discretize(series, params, numerosity_reduction=numerosity_reduction)
    vocabulary = record.vocabulary

    motifs: list[Motif] = []
    for rule_id, expansion, spans in rule_spans(record, min_word_count=min_words):
        if len(spans) < min_frequency:
            continue
        motifs.append(
            Motif(
                rule_id=rule_id,
                words=tuple(vocabulary[i] for i in expansion),
                occurrences=[
                    MotifOccurrence(start=start, end=min(end, series.size))
                    for start, end in spans
                ],
            )
        )
    if refine:
        refinable = [m for m in motifs if all(occ.length >= 2 for occ in m.occurrences)]
        occurrences = [occ for motif in refinable for occ in motif.occurrences]
        aligned = align_groups(
            series,
            [occ.start for occ in occurrences],
            [occ.end for occ in occurrences],
            np.cumsum([0] + [motif.frequency for motif in refinable]),
        )
        for g, motif in enumerate(refinable):
            biggest = max(bisect_refine(aligned[g]), key=lambda c: c.size)
            motif.prototype = centroid_of(biggest)

    key = {
        "frequency": lambda m: (m.frequency, m.mean_length()),
        "length": lambda m: (m.mean_length(), m.frequency),
        "coverage": lambda m: (m.covered_points(), m.frequency),
    }[rank_by]
    motifs.sort(key=key, reverse=True)
    return motifs[:top_k] if top_k is not None else motifs


def rule_density(
    series_length: int,
    motifs: Sequence[Motif],
) -> np.ndarray:
    """Per-point count of covering motif occurrences (GrammarViz's
    rule-density curve). Low-density intervals are candidate discords;
    see :mod:`repro.motif.discord`."""
    density = np.zeros(series_length, dtype=int)
    for motif in motifs:
        for occ in motif.occurrences:
            density[occ.start : min(occ.end, series_length)] += 1
    return density
