"""Iterative bisection refinement of grammar-rule subsequence groups.

Paper §3.2.2: a grammar rule's subsequences may mix more than one shape
(SAX granularity is coarse). RPM therefore clusters them with
complete-linkage, always trying a 2-way split first:

* if one side of the split would hold less than ``min_split_fraction``
  (30 %) of the group, the group is considered homogeneous and kept;
* otherwise both halves are split recursively until no group can be
  split further.

Groups smaller than the support threshold ``γ · |class|`` are discarded
by the caller; surviving groups are summarized by their **centroid**
(the mean of the z-normalized, length-aligned members) or **medoid**
(the member minimizing total distance to the rest) — the paper notes
either works.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..distance.euclidean import pairwise_euclidean
from ..obs.tracer import span
from ..sax.znorm import znorm, znorm_rows
from .linkage import _check_distance_matrix, complete_two_cut

__all__ = [
    "RefinedCluster",
    "align_subsequences",
    "bisect_refine",
    "centroid_of",
    "medoid_of",
]

#: Minimum fraction of a group a bisection side must hold for the split
#: to be accepted (paper §3.2.2).
MIN_SPLIT_FRACTION = 0.3

#: A split must also shrink the cluster: it is accepted only when the
#: larger child's diameter (complete-linkage height) is at most this
#: fraction of the parent's. Without this, a *homogeneous* group keeps
#: bisecting into balanced halves forever — the paper's "stops when no
#: group can be further split" implies such a homogeneity check.
MAX_CHILD_DIAMETER_RATIO = 0.8


@lru_cache(maxsize=512)
def _unit_grid(size: int) -> np.ndarray:
    """``np.linspace(0, 1, size)``, built once per size and read-only."""
    grid = np.linspace(0.0, 1.0, num=size)
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=512)
def _upper_triangle(size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(size, k=1)``, built once per size and read-only."""
    rows, cols = np.triu_indices(size, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@dataclass
class RefinedCluster:
    """A homogeneous group of subsequences from one grammar rule.

    ``member_indices`` point back into the motif's occurrence list;
    ``aligned`` holds the z-normalized, length-aligned member matrix the
    prototype is computed from.
    """

    member_indices: list[int]
    aligned: np.ndarray
    pairwise: np.ndarray | None = field(repr=False, default=None)

    @property
    def size(self) -> int:
        """Number of members."""
        return len(self.member_indices)

    def within_distances(self) -> np.ndarray:
        """Condensed (upper-triangle) pairwise member distances.

        These feed the τ threshold computation of Algorithm 2.
        """
        if self.size < 2:
            return np.empty(0)
        return self.pairwise[_upper_triangle(self.size)]


def align_subsequences(
    subsequences: list[np.ndarray],
    target_length: int | None = None,
) -> np.ndarray:
    """Z-normalize and resample variable-length subsequences to one length.

    The target defaults to the *median* member length, which keeps the
    prototype faithful to the dominant scale of the motif.
    """
    if not subsequences:
        raise ValueError("need at least one subsequence")
    lengths = sorted(np.asarray(s).size for s in subsequences)
    if lengths[0] < 2:
        raise ValueError("subsequences must have at least 2 points")
    if target_length is None:
        # int(np.median(lengths)) in integer arithmetic: the mean of the
        # two middle lengths of an even count is truncated.
        mid = len(lengths) // 2
        target_length = (
            lengths[mid] if len(lengths) % 2 else (lengths[mid - 1] + lengths[mid]) // 2
        )
    target_length = max(int(target_length), 2)
    grid = _unit_grid(target_length)
    rows = np.empty((len(subsequences), target_length))
    for i, sub in enumerate(subsequences):
        values = np.asarray(sub, dtype=float)
        if values.size == target_length:
            rows[i] = values
        else:
            rows[i] = np.interp(grid, _unit_grid(values.size), values)
    return znorm_rows(rows)


def bisect_refine(
    aligned: np.ndarray,
    *,
    min_split_fraction: float = MIN_SPLIT_FRACTION,
    max_child_diameter_ratio: float = MAX_CHILD_DIAMETER_RATIO,
    min_group_size: int = 2,
    pairwise: np.ndarray | None = None,
) -> list[RefinedCluster]:
    """Recursively 2-way split an aligned member matrix (paper §3.2.2).

    Parameters
    ----------
    aligned:
        (n, L) matrix of z-normalized, length-aligned subsequences.
    min_split_fraction:
        A split is accepted only when both halves hold at least this
        fraction of the parent group (the paper's 30 % rule).
    max_child_diameter_ratio:
        Homogeneity stop: the split is kept only when the larger child
        diameter is at most this fraction of the parent diameter.
    min_group_size:
        Groups at or below this size are never split.
    pairwise:
        Optional precomputed ``(n, n)`` distance matrix of ``aligned``
        rows. Callers that already paid for it (e.g. repeated
        refinement sweeps over one motif) pass it here; every recursion
        level and every emitted cluster block then reuses slices of the
        single matrix instead of recomputing distances.

    Returns
    -------
    list[RefinedCluster]
        Leaves of the bisection tree, each with its member indices into
        the original matrix and its own pairwise distance block.

    Each call records a ``bisect`` span with member/cluster/split
    counters on the active tracer.
    """
    aligned = np.asarray(aligned, dtype=float)
    if aligned.ndim != 2:
        raise ValueError(f"aligned must be 2-D, got {aligned.shape}")
    n = aligned.shape[0]
    if pairwise is None:
        full_pairwise = pairwise_euclidean(aligned)
    else:
        full_pairwise = np.asarray(pairwise, dtype=float)
        if full_pairwise.shape != (n, n):
            raise ValueError(
                f"pairwise must be ({n}, {n}) to match aligned, got {full_pairwise.shape}"
            )
    if n > min_group_size:
        # Every split clusters a sub-block of this matrix, so one check
        # at the root covers them all. The built matrix is symmetric
        # with a zero diagonal; only non-finite members can spoil it.
        if pairwise is not None:
            _check_distance_matrix(full_pairwise)
        elif not np.isfinite(full_pairwise).all():
            raise ValueError("aligned subsequences must be finite")
    out: list[RefinedCluster] = []
    n_splits = 0

    def emit(indices: np.ndarray, block: np.ndarray) -> None:
        out.append(
            RefinedCluster(
                member_indices=indices.tolist(),
                aligned=aligned[indices],
                pairwise=block,
            )
        )

    def recurse(indices: np.ndarray, block: np.ndarray) -> None:
        # ``block`` is ``full_pairwise`` restricted to ``indices``; the
        # root's is the matrix itself.
        nonlocal n_splits
        group_size = indices.size
        if group_size <= min_group_size:
            emit(indices, block)
            return
        on_left = complete_two_cut(block) == 0
        left = indices[on_left]
        right = indices[~on_left]
        smaller = min(left.size, right.size)
        if smaller < min_split_fraction * group_size:
            emit(indices, block)
            return
        left_block = block[np.ix_(on_left, on_left)]
        right_block = block[np.ix_(~on_left, ~on_left)]
        parent_diameter = block.max()
        child_diameter = max(left_block.max(), right_block.max())
        if parent_diameter <= 0 or child_diameter > max_child_diameter_ratio * parent_diameter:
            emit(indices, block)
            return
        n_splits += 1
        recurse(left, left_block)
        recurse(right, right_block)

    with span("bisect") as bisect_span:
        recurse(np.arange(n), full_pairwise)
        bisect_span.add("bisect.members", n)
        bisect_span.add("bisect.splits", n_splits)
        bisect_span.add("bisect.clusters", len(out))
    return out


def centroid_of(cluster: RefinedCluster) -> np.ndarray:
    """Mean of the aligned members, re-z-normalized (the paper's default)."""
    return znorm(cluster.aligned.mean(axis=0))


def medoid_of(cluster: RefinedCluster) -> np.ndarray:
    """The member minimizing the summed distance to the others."""
    totals = cluster.pairwise.sum(axis=1)
    return cluster.aligned[int(np.argmin(totals))].copy()
