"""Algorithm 2 — FindDistinct: keep only discriminative patterns.

Three stages, exactly as in the paper:

1. **τ threshold** — the 30th percentile (configurable) of the pairwise
   subsequence distances *within* the refined clusters of Algorithm 1.
2. **Similarity pruning** — scan the candidates; whenever a new
   candidate lies within τ (closest-match distance, so different
   lengths are fine) of an already-kept one, keep the more frequent of
   the two.
3. **Feature selection** — transform the training set into candidate-
   distance features and run CFS; the selected features are the
   representative patterns (their number is decided by CFS).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ml.cfs import cfs_select
from ..obs.metrics import registry
from ..obs.tracer import span
from ..runtime.kernel import exact_near_matches, tie_break_argmin_rows
from ..sax.znorm import NORM_THRESHOLD, is_flat, znorm_rows
from .patterns import PatternCandidate, RepresentativePattern
from .transform import pattern_features

__all__ = ["SelectionResult", "compute_tau", "remove_similar", "find_distinct"]

DEFAULT_TAU_PERCENTILE = 30.0


@dataclass
class SelectionResult:
    """Everything Algorithm 2 produced (kept for inspection/benches)."""

    patterns: list[RepresentativePattern]
    tau: float
    n_candidates_in: int
    n_after_dedup: int
    train_features: np.ndarray | None = field(repr=False, default=None)
    cfs_merit: float = 0.0


def compute_tau(
    candidates: list[PatternCandidate],
    percentile: float = DEFAULT_TAU_PERCENTILE,
) -> float:
    """The similarity threshold τ (paper §3.2.3).

    Pools the within-cluster pairwise distances recorded on every
    candidate and takes the requested percentile. Falls back to 0 (no
    pruning) when no cluster had two members.
    """
    if not 0.0 <= percentile <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {percentile}")
    pools = [c.within_distances for c in candidates if c.within_distances.size]
    if not pools:
        return 0.0
    return float(np.percentile(np.concatenate(pools), percentile))


#: Scratch budget for one chunk of stacked dedup profiles, the same as
#: the FFT kernel's: pattern chunks are sized so the ``(chunk, n, J)``
#: profile block stays under it for any pool size.
_DEDUP_SCRATCH_BYTES = 32 * 1024 * 1024


def _closest_match_matrix(ordered: list[PatternCandidate]) -> np.ndarray:
    """Oriented closest-match distances between every pair of a pool.

    ``D[a, b]`` for ``a < b`` (positions in ``ordered``) is the distance
    :func:`remove_similar`'s greedy scan measures when candidate ``b``
    probes an already-kept candidate ``a``; the lower triangle and the
    diagonal are ``inf``. The shorter candidate slides over the longer
    one and, for equal lengths, the later candidate is the pattern. A
    probe sliding over a longer kept candidate takes the row minimum; a
    kept pattern sliding over a longer probe takes the profile value at
    the tie-broken position (:func:`tie_break_argmin_rows`).

    The candidates are sorted by length and stacked, centred and
    zero-padded, into one matrix with one pair of cumulative sums. Each
    pattern length then takes one window-statistics batch over the
    suffix of candidates at least that long; windows that run into the
    padding are masked with ``inf``. Every valid entry is the
    :class:`~repro.runtime.kernel.SlidingWindowStats` mat-vec
    expression on the same per-row statistics, so it equals a per-probe
    kernel call bit for bit, including the BLAS dot product the kernel
    takes for single-alignment (equal-length) pairs and the kernel's
    recomputation of near-perfect matches.
    """
    n = len(ordered)
    dist = np.full((n, n), np.inf)
    lengths = np.array([c.length for c in ordered])
    order = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[order]
    group_starts = np.flatnonzero(np.diff(sorted_lengths, prepend=0))
    group_stops = np.append(group_starts[1:], n)

    centered = np.zeros((n, int(sorted_lengths[-1])))
    patterns = []
    for start, stop in zip(group_starts, group_stops):
        length = int(sorted_lengths[start])
        rows = np.stack([ordered[p].values for p in order[start:stop]])
        centered[start:stop, :length] = rows - rows.mean(axis=1, keepdims=True)
        # prenormalize_pattern, row by row: znorm_rows equals znorm.
        q = znorm_rows(rows)
        patterns.append((q, np.array([float(r @ r) for r in q]), ~q.any(axis=1)))
    cumsum = np.zeros((n, centered.shape[1] + 1))
    cumsum2 = np.zeros_like(cumsum)
    np.cumsum(centered, axis=1, out=cumsum[:, 1:])
    np.cumsum(centered * centered, axis=1, out=cumsum2[:, 1:])
    rms = np.sqrt(cumsum2[np.arange(n), sorted_lengths] / sorted_lengths)

    for start, stop, (q, qq, q_flat) in zip(group_starts, group_stops, patterns):
        length = int(sorted_lengths[start])
        # Window moments of every candidate at least this long.
        cs, cs2 = cumsum[start:], cumsum2[start:]
        mean = (cs[:, length:] - cs[:, :-length]) / length
        var = (cs2[:, length:] - cs2[:, :-length]) / length - mean * mean
        np.maximum(var, 0.0, out=var)
        sd = np.sqrt(var)
        flat = is_flat(sd, np.maximum(NORM_THRESHOLD, 1e-7 * rms[start:, None]))
        safe_sd = np.where(flat, 1.0, sd)
        windows = np.lib.stride_tricks.sliding_window_view(
            centered[start:], length, axis=1
        )
        n_series, n_windows = sd.shape
        padding = np.arange(n_windows) > (sorted_lengths[start:] - length)[:, None]
        same_length = stop - start  # the first rows of the suffix

        series_pos = order[start:]
        longer = sorted_lengths[start:] > length
        chunk = max(1, _DEDUP_SCRATCH_BYTES // (n_series * n_windows * 8 * 4))
        for lo in range(0, same_length, chunk):
            hi = min(lo + chunk, same_length)
            dots = np.stack([windows @ row for row in q[lo:hi]])
            if n_windows > 1:
                # Equal-length rows have one alignment, where the kernel's
                # mat-vec is numpy's BLAS dot product; the padded mat-vec
                # sums in another order, so redo those dots the kernel's way.
                dots[:, :same_length, 0] = [
                    (windows[:same_length, :1] @ row)[:, 0] for row in q[lo:hi]
                ]
            d2 = 2.0 * length - 2.0 * dots / safe_sd
            exact_near_matches(d2, windows, flat, q[lo:hi])
            d2[:, flat] = qq[lo:hi, None]
            d2[q_flat[lo:hi]] = np.where(flat, 0.0, float(length))
            np.maximum(d2, 0.0, out=d2)
            profiles = np.sqrt(d2)
            profiles[:, padding] = np.inf

            pattern_pos = order[start + lo : start + hi]
            later = pattern_pos[:, None] > series_pos[None, :]
            at_tie = np.take_along_axis(
                profiles, tie_break_argmin_rows(profiles)[:, :, None], axis=2
            )[:, :, 0]
            block = np.where(later, profiles.min(axis=2), at_tie)
            # An equal-length pair is measured once, with the later
            # candidate as the pattern (this also skips the diagonal).
            keep = later | longer[None, :]
            first = np.minimum(pattern_pos[:, None], series_pos[None, :])
            second = np.maximum(pattern_pos[:, None], series_pos[None, :])
            dist[first[keep], second[keep]] = block[keep]
    return dist


def remove_similar(
    candidates: list[PatternCandidate],
    tau: float,
) -> list[PatternCandidate]:
    """Greedy de-duplication (Algorithm 2, lines 5-18).

    Candidates are compared by the closest-match distance (the shorter
    pattern slides over the longer); within τ the more frequent
    candidate wins. The scan runs in descending frequency, so a kept
    candidate can never lose to a later one. The sort is stable: among
    equal frequencies the input order decides, so the result is
    independent of the input order only when the frequencies are
    distinct.

    All pairwise distances come from one oriented matrix
    (:func:`_closest_match_matrix`); the frequency-order walk over its
    "closer than τ" mask keeps a candidate unless an already-kept one
    marks it, exactly as probing each candidate against the kept set
    would.
    """
    ordered = sorted(candidates, key=lambda c: c.frequency, reverse=True)
    if not ordered or not tau > 0:
        # Distances are non-negative, so nothing is closer than τ ≤ 0.
        return ordered
    near = _closest_match_matrix(ordered) < tau
    kept: list[PatternCandidate] = []
    dropped = np.zeros(len(ordered), dtype=bool)
    for pos, candidate in enumerate(ordered):
        if not dropped[pos]:
            kept.append(candidate)
            dropped |= near[pos]
    return kept


#: Cap on the candidate pool entering the pairwise de-duplication. The
#: paper's pool is O(#motifs) and small; tiny validation splits in the
#: parameter search can lower the γ threshold enough to blow the pool
#: up, so we keep only the most frequent candidates per class beyond
#: this limit (frequency ordering matches Algorithm 2's own tie-break).
DEFAULT_MAX_CANDIDATES = 120


def _cap_candidates(
    candidates: list[PatternCandidate], max_candidates: int
) -> list[PatternCandidate]:
    if len(candidates) <= max_candidates:
        return candidates
    # First-appearance label order: iterating a set here would make the
    # capped pool's class grouping (and every downstream frequency
    # tie-break) depend on the hash seed for string labels.
    labels = list(dict.fromkeys(c.label for c in candidates))
    per_class = max(1, max_candidates // len(labels))
    capped: list[PatternCandidate] = []
    for label in labels:
        members = [c for c in candidates if c.label == label]
        members.sort(key=lambda c: c.frequency, reverse=True)
        capped.extend(members[:per_class])
    return capped


def find_distinct(
    X: np.ndarray,
    y: np.ndarray,
    candidates: list[PatternCandidate],
    *,
    tau_percentile: float = DEFAULT_TAU_PERCENTILE,
    rotation_invariant: bool = False,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    cache=None,
) -> SelectionResult:
    """Algorithm 2 end to end.

    Returns the representative patterns plus the transformed training
    matrix restricted to the selected features (handy for fitting the
    downstream classifier without recomputing distances).

    ``cache`` is forwarded to the training-set feature transform
    (stage 3), the step that dominates Algorithm 2's cost.
    The active tracer records a ``select`` span with ``tau`` / ``dedup``
    / ``transform`` / ``cfs`` children; de-duplication and CFS drop counts
    go to the metrics registry (``candidates.dropped_dedup``,
    ``patterns.selected``).
    """
    if not candidates:
        raise ValueError("no candidates to select from")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)

    metrics = registry()
    with span("select"):
        with span("tau"):
            tau = compute_tau(candidates, tau_percentile)
        capped = _cap_candidates(candidates, max_candidates)
        with span("dedup") as dedup_span:
            deduped = remove_similar(capped, tau)
            dedup_span.add("candidates.in", len(capped))
            dedup_span.add("candidates.kept", len(deduped))
        metrics.inc("candidates.dropped_dedup", len(capped) - len(deduped))

        features = pattern_features(
            X,
            deduped,
            rotation_invariant=rotation_invariant,
            cache=cache,
        )
        with span("cfs") as cfs_span:
            result = cfs_select(features, y)
            cfs_span.add("patterns.selected", len(result.selected))
        metrics.inc("patterns.selected", len(result.selected))
    patterns = [
        RepresentativePattern(
            values=deduped[idx].values,
            label=deduped[idx].label,
            feature_index=pos,
            candidate=deduped[idx],
        )
        for pos, idx in enumerate(result.selected)
    ]
    return SelectionResult(
        patterns=patterns,
        tau=tau,
        n_candidates_in=len(candidates),
        n_after_dedup=len(deduped),
        train_features=features[:, result.selected],
        cfs_merit=result.merit,
    )
