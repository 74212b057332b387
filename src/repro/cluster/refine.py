"""Iterative bisection refinement of grammar-rule subsequence groups.

Paper §3.2.2: a grammar rule's subsequences may mix more than one shape
(SAX granularity is coarse). RPM therefore clusters them with
complete-linkage, always trying a 2-way split first:

* if one side of the split would hold less than
  :data:`MIN_SPLIT_FRACTION` (30 %) of the group, the group is
  considered homogeneous and kept;
* so is a group whose split would not shrink it (see
  :data:`MAX_CHILD_DIAMETER_RATIO`), and a group of one or two members;
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
from .linkage import complete_two_cut

__all__ = [
    "AlignedGroups",
    "RefinedCluster",
    "align_groups",
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
    pairwise: np.ndarray = field(repr=False)

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


@lru_cache(maxsize=1024)
def _resampling(size: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.interp(_unit_grid(target), _unit_grid(size), fp)`` as two tables.

    ``knots[0]`` holds, for each target point ``x``, the knot ``j`` below
    it (the binary search ``np.interp`` makes) and ``knots[1]`` the knot
    above (``j`` itself at the right end). ``steps[0]`` holds the knot
    spacing ``xp[j + 1] - xp[j]`` (1 where unused) and ``steps[1]`` the
    offset ``x - xp[j]``, which is 0 exactly where ``np.interp`` takes
    ``fp[j]`` as is: at an exact knot and at the right end. Built once
    per length pair and read-only.
    """
    xp, x = _unit_grid(size), _unit_grid(target)
    below = np.searchsorted(xp, x, side="right") - 1
    above = np.minimum(below + 1, size - 1)
    offset = x - xp[below]
    spacing = np.where(offset == 0.0, 1.0, xp[above] - xp[below])
    knots, steps = np.stack([below, above]), np.stack([spacing, offset])
    knots.flags.writeable = False
    steps.flags.writeable = False
    return knots, steps


def _resample(
    series: np.ndarray, starts: np.ndarray, lengths: np.ndarray, target: int
) -> np.ndarray:
    """``np.interp`` of every ``series[start:start + length]`` onto ``target``
    points, bit for bit: ``slope * (x - xp[j]) + fp[j]`` with ``slope =
    (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])``, and ``fp[j]`` at exact
    knots and at the right end. Members already ``target`` long sit on a
    knot everywhere: they are copied.
    """
    first = starts[:, None]
    if (lengths == target).all():
        return series[first + np.arange(target)]
    sizes = sorted(set(lengths.tolist()))
    tables = [_resampling(size, target) for size in sizes]
    which = np.searchsorted(sizes, lengths)
    knots = np.array([table[0] for table in tables])[which]
    steps = np.array([table[1] for table in tables])[which]
    low = series[knots[:, 0] + first]
    offset = steps[:, 1]
    rows = (series[knots[:, 1] + first] - low) / steps[:, 0] * offset + low
    np.copyto(rows, low, where=offset == 0.0)
    return rows


@dataclass(frozen=True, eq=False)
class AlignedGroups:
    """Groups of subsequences, each resampled to one length and z-normalized.

    Group ``g`` is a ``(sizes[g], lengths[g])`` matrix, read as
    ``groups[g]``: rows ``first_rows[g]:first_rows[g] + sizes[g]`` of
    ``matrices[lengths[g]]``, which stacks every group of that length in
    group order.
    """

    matrices: dict[int, np.ndarray]
    lengths: np.ndarray
    first_rows: np.ndarray
    sizes: np.ndarray

    def __getitem__(self, g: int) -> np.ndarray:
        first = int(self.first_rows[g])
        return self.matrices[int(self.lengths[g])][first : first + int(self.sizes[g])]


def align_groups(
    series: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    bounds: np.ndarray,
) -> AlignedGroups:
    """Z-normalize and resample groups of subsequences of *series*.

    Group ``g`` holds ``series[starts[i]:ends[i]]`` for ``i`` in
    ``bounds[g]:bounds[g + 1]``. Each group is resampled to the integer
    median of its member lengths (``int(np.median(lengths))``), which
    keeps the prototype faithful to the dominant scale of the motif.
    The members of all groups of one length are resampled together (see
    :func:`_resample`) and z-normalized by one
    :func:`~repro.sax.znorm.znorm_rows` call, so every row equals that of
    one ``np.interp`` and one ``znorm_rows`` per group.
    """
    series = np.asarray(series, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.asarray(ends, dtype=np.intp) - starts
    bounds = np.asarray(bounds, dtype=np.intp)
    sizes = np.diff(bounds)
    if sizes.size and sizes.min() < 1:
        raise ValueError("need at least one subsequence per group")
    if lengths.size and lengths.min() < 2:
        raise ValueError("subsequences must have at least 2 points")
    group = np.repeat(np.arange(sizes.size), sizes)
    ordered = lengths[np.lexsort((lengths, group))]
    # The mean of the two middle lengths of an even count is truncated.
    mid = bounds[:-1] + sizes // 2
    target = np.where(sizes % 2 == 1, ordered[mid], (ordered[mid - 1] + ordered[mid]) // 2)
    # Members, and groups, ordered by target length; ties keep their order.
    members = np.argsort(target[group], kind="stable")
    groups = np.argsort(target, kind="stable")
    first_rows = np.empty(sizes.size, dtype=np.intp)
    matrices: dict[int, np.ndarray] = {}
    member_lo = group_lo = 0
    for length in np.unique(target).tolist():
        group_hi = group_lo + int(np.count_nonzero(target == length))
        block = groups[group_lo:group_hi]
        first_rows[block] = np.cumsum(sizes[block]) - sizes[block]
        member_hi = member_lo + int(sizes[block].sum())
        block = members[member_lo:member_hi]
        matrices[length] = znorm_rows(_resample(series, starts[block], lengths[block], length))
        member_lo, group_lo = member_hi, group_hi
    return AlignedGroups(matrices, target, first_rows, sizes)


def bisect_refine(aligned: np.ndarray) -> list[RefinedCluster]:
    """Recursively 2-way split an aligned member matrix (paper §3.2.2).

    ``aligned`` is the ``(n, L)`` matrix of z-normalized, length-aligned
    subsequences. A group is split by :func:`complete_two_cut` of its
    pairwise distances, and the split is kept only when both halves
    hold at least :data:`MIN_SPLIT_FRACTION` of the group and the larger
    child diameter is at most :data:`MAX_CHILD_DIAMETER_RATIO` of the
    group's; groups of one or two members are never split. Every split
    and every emitted cluster reads slices of one distance matrix.

    Returns the leaves of the bisection tree, each with its member
    indices into ``aligned`` and its own pairwise distance block.

    Each call records a ``bisect`` span with member/cluster/split
    counters on the active tracer.
    """
    aligned = np.asarray(aligned, dtype=float)
    if aligned.ndim != 2:
        raise ValueError(f"aligned must be 2-D, got {aligned.shape}")
    n = aligned.shape[0]
    full_pairwise = pairwise_euclidean(aligned)
    # The built matrix is symmetric with a zero diagonal; only
    # non-finite members can spoil it, and only a split reads it.
    if n > 2 and not np.isfinite(full_pairwise).all():
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
        if group_size <= 2:
            emit(indices, block)
            return
        on_left = complete_two_cut(block) == 0
        left = indices[on_left]
        right = indices[~on_left]
        smaller = min(left.size, right.size)
        if smaller < MIN_SPLIT_FRACTION * group_size:
            emit(indices, block)
            return
        left_block = block[np.ix_(on_left, on_left)]
        right_block = block[np.ix_(~on_left, ~on_left)]
        parent_diameter = block.max()
        child_diameter = max(left_block.max(), right_block.max())
        if parent_diameter <= 0 or child_diameter > MAX_CHILD_DIAMETER_RATIO * parent_diameter:
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
