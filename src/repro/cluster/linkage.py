"""Agglomerative hierarchical clustering (complete / single / average linkage).

RPM refines the subsequences behind each grammar rule with
*complete-linkage* hierarchical clustering (paper §3.2.2). We implement
the classic Lance-Williams agglomeration over a precomputed distance
matrix; sizes here are small (a motif rarely has more than a few
hundred occurrences), so the straightforward O(n³) scheme is plenty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Linkage", "Merge", "agglomerate", "cut_k", "complete_two_cut"]

_METHODS = ("complete", "single", "average")


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: clusters *left* and *right* merge at *height*.

    Cluster ids follow the scipy convention: ids ``0..n-1`` are the
    singletons; the merge at step ``t`` creates cluster ``n + t``.
    """

    left: int
    right: int
    height: float
    size: int


@dataclass
class Linkage:
    """The full merge tree produced by :func:`agglomerate`."""

    n: int
    merges: list[Merge]

    def heights(self) -> np.ndarray:
        """Merge heights in agglomeration order."""
        return np.array([m.height for m in self.merges])


def _check_distance_matrix(dist: np.ndarray) -> np.ndarray:
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got {d.shape}")
    if d.shape[0] == 0:
        raise ValueError("distance matrix must be non-empty")
    if not np.allclose(d, d.T, atol=1e-9):
        raise ValueError("distance matrix must be symmetric")
    if (np.diag(d) > 1e-9).any():
        raise ValueError("distance matrix must have a zero diagonal")
    return d


def _merge_closest(
    d: np.ndarray, sizes: list[int], method: str
) -> tuple[int, int, float]:
    """Merge the closest pair of clusters of ``d`` in place.

    ``d`` holds one row and column per original member, ``inf`` on the
    diagonal and on every row and column merged away. The first minimum
    in row-major order picks the pair ``i < j``; row and column ``i``
    take the Lance-Williams update and ``j`` is set to ``inf``. Masking
    instead of deleting keeps the surviving rows in their order, so the
    merge order is that of a matrix shrunk after every merge. Returns
    ``(i, j, height)`` and updates ``sizes[i]``.
    """
    i, j = divmod(int(np.argmin(d)), d.shape[0])
    if i > j:
        i, j = j, i
    height = float(d[i, j])
    size = sizes[i] + sizes[j]
    if method == "complete":
        merged_row = np.maximum(d[i], d[j])
    elif method == "single":
        merged_row = np.minimum(d[i], d[j])
    else:  # average
        merged_row = (sizes[i] * d[i] + sizes[j] * d[j]) / size
    d[i, :] = merged_row
    d[:, i] = merged_row
    d[i, i] = np.inf
    d[j, :] = np.inf
    d[:, j] = np.inf
    sizes[i] = size
    return i, j, height


def agglomerate(dist: np.ndarray, method: str = "complete") -> Linkage:
    """Build the merge tree for a precomputed distance matrix.

    Parameters
    ----------
    dist:
        Symmetric (n, n) matrix of pairwise distances.
    method:
        ``'complete'`` (RPM's choice), ``'single'`` or ``'average'``.

    Returns
    -------
    Linkage
        ``n - 1`` merges ordered by non-decreasing height (heights are
        monotone for these three linkage methods).
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    d = _check_distance_matrix(dist).copy()
    n = d.shape[0]
    np.fill_diagonal(d, np.inf)
    # active[i] maps matrix row i to its current cluster id; sizes track
    # member counts for average linkage.
    active = list(range(n))
    sizes = [1] * n
    merges: list[Merge] = []
    for step in range(n - 1):
        i, j, height = _merge_closest(d, sizes, method)
        merges.append(Merge(left=active[i], right=active[j], height=height, size=sizes[i]))
        active[i] = n + step
    return Linkage(n=n, merges=merges)


def cut_k(linkage: Linkage, k: int) -> np.ndarray:
    """Cut the merge tree into exactly *k* clusters.

    Returns an array of ``n`` labels in ``0..k-1`` (labelled by order of
    first appearance). ``k`` must satisfy ``1 <= k <= n``.
    """
    n = linkage.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    # Apply the first n - k merges with a union-find.
    parent = list(range(n + len(linkage.merges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, merge in enumerate(linkage.merges[: n - k]):
        new_id = n + t
        parent[find(merge.left)] = new_id
        parent[find(merge.right)] = new_id

    labels = np.empty(n, dtype=int)
    mapping: dict[int, int] = {}
    for i in range(n):
        root = find(i)
        if root not in mapping:
            mapping[root] = len(mapping)
        labels[i] = mapping[root]
    return labels


def complete_two_cut(dist: np.ndarray) -> np.ndarray:
    """Labels of the complete-linkage 2-cut of a validated distance matrix.

    Returns exactly ``cut_k(agglomerate(dist, "complete"), 2)``: the
    same merges, stopped two clusters short, without validating
    ``dist`` or building the merge tree. The caller vouches for
    ``dist`` (square, symmetric, zero diagonal, finite);
    :func:`agglomerate` is the validating entry. Fewer than two members
    raise ``ValueError`` like ``cut_k``.
    """
    d = np.array(dist, dtype=float)
    n = d.shape[0]
    if n < 2:
        raise ValueError(f"k must be in [1, {n}], got 2")  # as cut_k
    np.fill_diagonal(d, np.inf)
    sizes = [1] * n
    owner = np.arange(n)
    for _ in range(n - 2):
        i, j, _height = _merge_closest(d, sizes, "complete")
        owner[owner == j] = i
    # cut_k labels by first appearance: member 0's cluster is 0.
    return (owner != owner[0]).astype(int)
