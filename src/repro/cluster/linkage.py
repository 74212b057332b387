"""The complete-linkage 2-cut that bisects a rule's subsequence group.

RPM refines the subsequences behind each grammar rule with
*complete-linkage* hierarchical clustering (paper §3.2.2), always
cutting the tree into two clusters. Only that cut is built: the
agglomeration runs over a precomputed distance matrix and stops two
clusters short. The full merge tree it reproduces is the reference in
``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["complete_two_cut"]


def complete_two_cut(dist: np.ndarray) -> np.ndarray:
    """Labels of the complete-linkage 2-cut of a distance matrix.

    ``dist`` must be square, symmetric, finite and zero on the diagonal;
    it is not checked, and it is left untouched. Member 0's cluster is
    labelled 0 and the other 1.

    The working copy holds one row and column per member, ``inf`` on the
    diagonal and on every row and column merged away. Each merge takes
    the first minimum in row-major order as the pair ``i < j``; row and
    column ``i`` become the elementwise maximum of rows ``i`` and ``j``
    and ``j`` is set to ``inf``. Masking instead of deleting keeps the
    surviving rows in their order, so the merge order is that of a
    matrix shrunk after every merge, and the peak allocation stays at
    one copy of ``dist``.
    """
    d = np.array(dist, dtype=float)
    n = d.shape[0]
    if n < 2:
        raise ValueError(f"the 2-cut needs at least 2 members, got {n}")
    np.fill_diagonal(d, np.inf)
    owner = np.arange(n)
    for _ in range(n - 2):
        i, j = divmod(int(np.argmin(d)), n)
        if i > j:
            i, j = j, i
        merged_row = np.maximum(d[i], d[j])
        d[i, :] = merged_row
        d[:, i] = merged_row
        d[i, i] = np.inf
        d[j, :] = np.inf
        d[:, j] = np.inf
        owner[owner == j] = i
    return (owner != owner[0]).astype(int)
