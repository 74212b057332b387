"""Grammar-based motif discovery in a single long time series.

RPM's candidate generation is a classification-driven use of the
authors' earlier GrammarViz system ([7], [31] in the paper): SAX
discretization + Sequitur over *one* long series surfaces recurrent
variable-length patterns (motifs) without any pairwise distance
computation. The paper stresses that this exploratory capability
"extends beyond the classification task" (§1); this module exposes it
directly.

``find_motifs`` returns grammar rules mapped back to raw subsequence
occurrences (:class:`~repro.grammar.RuleMotif` records, by the same
:func:`~repro.grammar.induce_motifs` RPM mines classes with), ranked by
a configurable interestingness criterion, and optionally refined with
the same bisecting clustering RPM uses.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.refine import align_groups, bisect_refine, centroid_of
from ..grammar.inference import RuleMotif, induce_motifs
from ..sax.discretize import SaxParams, discretize

__all__ = ["find_motifs", "rule_density"]

RANKINGS = ("frequency", "length", "coverage")


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
) -> list[RuleMotif]:
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
        Keep only the best *k* motifs after ranking (``None``: all of
        them; otherwise at least 1).
    refine:
        Compute a z-normalized centroid prototype per motif from its
        aligned occurrences (RPM's refinement: the centroid of the
        largest cluster of its bisection).

    Returns
    -------
    list[RuleMotif]
        The ranked motifs; every occurrence lies in instance 0.
    """
    if rank_by not in RANKINGS:
        raise ValueError(f"rank_by must be one of {RANKINGS}, got {rank_by!r}")
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be None or at least 1, got {top_k}")
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("find_motifs expects a 1-D series")
    record = discretize(series, params, numerosity_reduction=numerosity_reduction)
    # Every occurrence ends at a window's end, inside the series, and is
    # at least a window (>= 2 points) long, so none is dropped and every
    # motif can be aligned.
    table = induce_motifs(
        record, [0], [series.size], min_frequency=min_frequency, min_word_count=min_words
    )
    motifs = list(table)
    if refine:
        aligned = align_groups(series, table.starts, table.ends, table.bounds)
        for g, motif in enumerate(motifs):
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
    motifs: Sequence[RuleMotif],
) -> np.ndarray:
    """Per-point count of covering motif occurrences (GrammarViz's
    rule-density curve). Low-density intervals are candidate discords;
    see :mod:`repro.motif.discord`."""
    density = np.zeros(series_length, dtype=int)
    for motif in motifs:
        for occ in motif.occurrences:
            density[occ.start : min(occ.end, series_length)] += 1
    return density
