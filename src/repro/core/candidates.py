"""Algorithm 1 — FindCandidates: class-specific motif discovery.

For every class: concatenate its training instances, discretize with
SAX (junction-aware), induce a Sequitur grammar, map every rule back to
its variable-length raw subsequences, refine each rule's subsequence
group with iterative bisecting complete-linkage clustering, drop
clusters below the γ support threshold, and emit each surviving
cluster's centroid (or medoid) as a candidate pattern.

Each class is mined as one array program: one occurrence table holds
every rule's occurrences (:func:`~repro.grammar.inference.induce_motifs`),
the members of every refined rule are resampled and z-normalized as one
matrix per aligned length (:func:`~repro.cluster.refine.align_groups`),
and cluster supports and centroids are read from those arrays. Only the
complete-linkage 2-cut (:func:`~repro.cluster.refine.bisect_refine`)
runs once per rule.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from ..cluster.refine import (
    AlignedGroups,
    RefinedCluster,
    align_groups,
    bisect_refine,
    medoid_of,
)
from ..grammar.inference import MotifTable, discretize_class, induce_motifs
from ..obs.metrics import registry
from ..obs.tracer import span
from ..sax.discretize import SaxParams
from ..sax.znorm import znorm_rows
from .patterns import PatternCandidate

__all__ = ["find_class_candidates", "find_candidates"]

_PROTOTYPES = ("centroid", "medoid")


def find_class_candidates(
    instances: Sequence[np.ndarray],
    label,
    params: SaxParams,
    *,
    gamma: float = 0.2,
    prototype: str = "centroid",
    support_mode: str = "instances",
    numerosity_reduction: bool = True,
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

        with span("refine") as refine_span:
            # A cluster's members are a subset of its rule's
            # occurrences, so a rule that covers fewer than min_support
            # (>= 2) series, or occurrences, cannot yield a candidate:
            # it is neither aligned nor refined.
            covered = motifs.support if support_mode == "instances" else motifs.frequency
            refined = motifs.select(np.flatnonzero(covered >= min_support))
            aligned = align_groups(series, refined.starts, refined.ends, refined.bounds)
            clusters: list[RefinedCluster] = []
            rule_of: list[int] = []
            for g in range(len(refined)):
                for cluster in bisect_refine(aligned[g]):
                    clusters.append(cluster)
                    rule_of.append(g)
            candidates = _candidates(
                clusters, rule_of, refined, aligned, label, params,
                prototype=prototype, support_mode=support_mode, min_support=min_support,
            )
            dropped_support = len(clusters) - len(candidates)
            refine_span.add("candidates.generated", len(candidates))
            refine_span.add("candidates.dropped_support", dropped_support)
    metrics.inc("candidates.generated", len(candidates))
    metrics.inc("candidates.dropped_support", dropped_support)
    return candidates


def _candidates(
    clusters: list[RefinedCluster],
    rule_of: list[int],
    refined: MotifTable,
    aligned: AlignedGroups,
    label,
    params: SaxParams,
    *,
    prototype: str,
    support_mode: str,
    min_support: int,
) -> list[PatternCandidate]:
    """The candidates of the clusters that reach ``min_support``, in order.

    ``clusters`` are the refinement leaves of every refined rule, rule
    by rule; ``rule_of[c]`` is cluster ``c``'s rule in ``refined`` and
    in ``aligned`` (that rule's aligned rows).
    """
    if not clusters:
        return []
    rules = np.asarray(rule_of, dtype=np.intp)
    sizes = np.fromiter((c.size for c in clusters), dtype=np.intp, count=len(clusters))
    first_member = np.cumsum(sizes) - sizes
    members = np.fromiter(
        chain.from_iterable(c.member_indices for c in clusters),
        dtype=np.intp,
        count=int(sizes.sum()),
    )
    cluster_id = np.repeat(np.arange(len(clusters)), sizes)
    instances = refined.instances[members + np.repeat(refined.bounds[rules], sizes)]
    # Members ascend within a cluster and occurrences run in series
    # order, so a cluster's instances never decrease: each new
    # (cluster, instance) pair starts a run.
    new = np.ones(cluster_id.size, dtype=bool)
    new[1:] = (cluster_id[1:] != cluster_id[:-1]) | (instances[1:] != instances[:-1])
    support = np.bincount(cluster_id[new], minlength=len(clusters))
    measure = support if support_mode == "instances" else sizes
    kept = np.flatnonzero(measure >= min_support)

    values: dict[int, np.ndarray] = {}
    if prototype == "centroid":
        # centroid_of: znorm of the mean of a cluster's aligned rows,
        # which mean(axis=0) sums from 0.0 in member order. The kept
        # clusters of one length are summed together: step k adds the
        # k-th member row of every cluster that has one, the largest
        # clusters first so that those form a prefix.
        rows = members + np.repeat(aligned.first_rows[rules], sizes)
        lengths = aligned.lengths[rules[kept]]
        for length in np.unique(lengths).tolist():
            ids = kept[lengths == length]
            ids = ids[np.argsort(-sizes[ids], kind="stable")]
            counts = sizes[ids]
            steps = np.arange(int(counts[0]))
            # index[i, k]: the row of the k-th member of cluster ids[i]
            # (unused past its last member).
            index = rows[np.minimum(first_member[ids, None] + steps, rows.size - 1)]
            matrix = aligned.matrices[length]
            sums = np.zeros((ids.size, length))
            for k, active in enumerate((counts[:, None] > steps).sum(axis=0).tolist()):
                sums[:active] += matrix[index[:active, k]]
            values.update(zip(ids.tolist(), znorm_rows(sums / counts[:, None])))
    else:
        values.update((c, medoid_of(clusters[c])) for c in kept.tolist())

    rule_ids = refined.rule_ids.tolist()
    words: dict[int, tuple[str, ...]] = {}
    out = []
    for c in kept.tolist():
        g = rule_of[c]
        if g not in words:
            words[g] = refined.words(g)
        out.append(
            PatternCandidate(
                values=values[c],
                label=label,
                frequency=clusters[c].size,
                support=int(support[c]),
                rule_id=rule_ids[g],
                words=words[g],
                sax_params=params,
                within_distances=clusters[c].within_distances(),
            )
        )
    return out


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
