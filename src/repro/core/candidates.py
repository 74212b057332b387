"""Algorithm 1 — FindCandidates: class-specific motif discovery.

For every class: concatenate its training instances, discretize with
SAX (junction-aware), induce a Sequitur grammar, map every rule back to
its variable-length raw subsequences, refine each rule's subsequence
group with iterative bisecting complete-linkage clustering, drop
clusters below the γ support threshold, and emit each surviving
cluster's centroid (or medoid) as a candidate pattern.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.refine import (
    RefinedCluster,
    align_subsequences,
    bisect_refine,
    centroid_of,
    medoid_of,
)
from ..grammar.inference import RuleMotif, discretize_class, induce_motifs
from ..obs.metrics import registry
from ..obs.tracer import span
from ..sax.discretize import SaxParams
from .patterns import PatternCandidate

__all__ = ["find_class_candidates", "find_candidates"]

_PROTOTYPES = ("centroid", "medoid")


def _occurrence_subsequences(series: np.ndarray, motif: RuleMotif) -> list[np.ndarray]:
    return [series[occ.start : occ.end] for occ in motif.occurrences]


def find_class_candidates(
    instances: Sequence[np.ndarray],
    label,
    params: SaxParams,
    *,
    gamma: float = 0.2,
    prototype: str = "centroid",
    support_mode: str = "instances",
    numerosity_reduction: bool = True,
    min_split_fraction: float = 0.3,
    discretize_cache=None,
) -> list[PatternCandidate]:
    """Candidates for one class (the inner loop of Algorithm 1).

    Parameters
    ----------
    instances:
        The class's training series.
    label:
        Class label attached to the produced candidates.
    params:
        SAX discretization parameters for this class.
    gamma:
        Minimum support as a fraction of the class's training size
        (the paper's γ; its experiments use 20 %).
    prototype:
        ``'centroid'`` (default, paper's choice) or ``'medoid'``.
    support_mode:
        ``'instances'`` counts distinct training instances containing
        the cluster (the definition in §2.1); ``'occurrences'`` counts
        raw occurrences (the literal ``cluster.size > γ·I`` of the
        Algorithm 1 listing). Both are available for the ablation bench.
    numerosity_reduction:
        Disable only for ablation studies.
    min_split_fraction:
        The 30 % rule of the bisection refinement.
    discretize_cache:
        Optional :class:`~repro.runtime.DiscretizationCache`. The
        parameter search re-mines the same concatenated class series
        under many SAX triples; the cache lets every triple sharing a
        window size reuse the sliding/z-norm/PAA stages.

    Records ``discretize`` / ``grammar`` / ``refine`` spans on the active
    tracer; candidate counts also go to the metrics registry
    (``candidates.generated``, ``candidates.dropped_support``,
    ``grammar.rules``).
    """
    if prototype not in _PROTOTYPES:
        raise ValueError(f"prototype must be one of {_PROTOTYPES}, got {prototype!r}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if support_mode not in ("instances", "occurrences"):
        raise ValueError(f"unknown support_mode {support_mode!r}")

    metrics = registry()
    with span("class", label=str(label)):
        with span("discretize"):
            record, starts, lengths = discretize_class(
                instances,
                params,
                numerosity_reduction=numerosity_reduction,
                cache=discretize_cache,
            )
        series = np.concatenate(
            [np.asarray(inst, dtype=float).ravel() for inst in instances]
        )
        with span("grammar") as grammar_span:
            motifs = induce_motifs(record, starts, lengths)
            grammar_span.add("grammar.rules", len(motifs))
        metrics.inc("grammar.rules", len(motifs))
        n_instances = len(instances)
        min_support = max(2, int(np.ceil(gamma * n_instances)))

        candidates: list[PatternCandidate] = []
        dropped_support = 0
        with span("refine") as refine_span:
            for motif in motifs:
                # A cluster's members are a subset of its rule's
                # occurrences, so a rule that covers fewer than
                # min_support (>= 2) series, or occurrences, cannot yield
                # a candidate: skip its alignment and refinement.
                covered = (
                    motif.support if support_mode == "instances" else motif.frequency
                )
                if covered < min_support:
                    continue
                aligned = align_subsequences(_occurrence_subsequences(series, motif))
                clusters = bisect_refine(
                    aligned, min_split_fraction=min_split_fraction
                )
                for cluster in clusters:
                    instances_covered = {
                        motif.occurrences[i].instance for i in cluster.member_indices
                    }
                    measure = (
                        len(instances_covered)
                        if support_mode == "instances"
                        else cluster.size
                    )
                    if measure < min_support:
                        dropped_support += 1
                        continue
                    values = (
                        centroid_of(cluster)
                        if prototype == "centroid"
                        else medoid_of(cluster)
                    )
                    candidates.append(
                        PatternCandidate(
                            values=values,
                            label=label,
                            frequency=cluster.size,
                            support=len(instances_covered),
                            rule_id=motif.rule_id,
                            words=motif.words,
                            sax_params=params,
                            within_distances=cluster.within_distances(),
                        )
                    )
            refine_span.add("candidates.generated", len(candidates))
            refine_span.add("candidates.dropped_support", dropped_support)
    metrics.inc("candidates.generated", len(candidates))
    metrics.inc("candidates.dropped_support", dropped_support)
    return candidates


def find_candidates(
    X: np.ndarray,
    y: np.ndarray,
    params_by_class: dict,
    *,
    gamma: float = 0.2,
    prototype: str = "centroid",
    support_mode: str = "instances",
    numerosity_reduction: bool = True,
    discretize_cache=None,
) -> list[PatternCandidate]:
    """Algorithm 1 over the full training set.

    ``params_by_class`` maps each class label to its (possibly
    class-specific, see §4.3) :class:`SaxParams`. Classes are mined one
    after another in class-label order and their candidates
    concatenated in that order.

    The whole call is one ``mine`` span; per-class ``discretize`` /
    ``grammar`` / ``refine`` child spans nest under it.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    labels = np.unique(y)
    candidates: list[PatternCandidate] = []
    with span("mine") as mine_span:
        mine_span.add("mine.classes", len(labels))
        for label in labels:
            candidates.extend(
                find_class_candidates(
                    [row for row in X[y == label]],
                    label,
                    params_by_class[label],
                    gamma=gamma,
                    prototype=prototype,
                    support_mode=support_mode,
                    numerosity_reduction=numerosity_reduction,
                    discretize_cache=discretize_cache,
                )
            )
    return candidates
