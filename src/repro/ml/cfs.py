"""Correlation-based Feature Selection (CFS, Hall 1999).

Algorithm 2 selects the representative patterns by running "the
correlation-based feature selection from [8]" on the pattern-distance
feature space. This module reproduces Weka's ``CfsSubsetEval`` +
best-first search:

* numeric features are discretized (equal-frequency binning) and
  feature-class / feature-feature association is measured by
  **symmetrical uncertainty** ``SU(a, b) = 2·IG(a; b) / (H(a) + H(b))``;
* a subset ``S`` of ``k`` features is scored by Hall's merit

      merit(S) = k·r̄_cf / sqrt(k + k·(k−1)·r̄_ff)

  (high average feature-class correlation, low average redundancy);
* subsets are explored with best-first search and a stale-expansion
  stop (Weka's default of 5).

The number of selected features is *dynamic* — whatever subset
maximizes the merit — which is exactly how RPM ends up with a different
number of representative patterns per dataset.

Symmetrical uncertainty is computed by a blocked kernel: every column
is discretized in one vectorized pass, and the contingency tables for
whole blocks of (feature, feature) / (feature, class) pairs come from a
single ``np.bincount`` over fused joint codes, bounded by
:data:`SU_SCRATCH_BYTES` of scratch. Each contingency row's nonzero
cells are summed in the same ascending-code order as the per-pair
``np.unique`` reference (:func:`symmetrical_uncertainty`), expression
for expression, so every SU value is bitwise equal to it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..obs.metrics import registry

__all__ = [
    "CfsResult",
    "cfs_select",
    "column_entropies",
    "discretize_features",
    "feature_class_su",
    "feature_feature_su_matrix",
    "symmetrical_uncertainty",
]

DEFAULT_BINS = 10
DEFAULT_MAX_STALE = 5

#: Scratch ceiling (bytes) for the blocked contingency builds: fused
#: joint-code blocks and their bincount tables are chunked so no
#: intermediate exceeds it, independent of how many pairs are scored.
SU_SCRATCH_BYTES = 32 * 2**20


def discretize_features(X: np.ndarray, bins: int = DEFAULT_BINS) -> np.ndarray:
    """Equal-frequency binning of every column into integer codes.

    All columns are processed in one vectorized pass: quantile edges for
    the whole matrix at once, duplicate edges masked to ``+inf`` (the
    per-column ``np.unique`` collapse for near-constant columns), and
    codes recovered as ``count(edges <= x)`` — exactly what the old
    per-column ``np.searchsorted(side="right")`` loop produced.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected 2-D features, got shape {X.shape}")
    n, d = X.shape
    quantiles = np.linspace(0, 1, bins + 1)[1:-1]
    codes = np.empty((n, d), dtype=int)
    if quantiles.size == 0:
        codes[:] = 0
        return codes
    qs = np.quantile(X, quantiles, axis=0)  # (bins-1, d)
    # Quantiles are non-decreasing per column; masking duplicates to
    # +inf removes them from the <=-count below, matching np.unique.
    duplicate = np.zeros_like(qs, dtype=bool)
    duplicate[1:] = qs[1:] == qs[:-1]
    edges = np.where(duplicate, np.inf, qs).T  # (d, bins-1)
    # Block columns so the (n, block, bins-1) comparison tensor stays
    # inside the scratch budget.
    block = max(1, SU_SCRATCH_BYTES // max(n * quantiles.size, 1))
    for lo in range(0, d, block):
        hi = min(lo + block, d)
        codes[:, lo:hi] = (X[:, lo:hi, None] >= edges[None, lo:hi, :]).sum(axis=2)
    return codes


def _entropy(codes: np.ndarray) -> float:
    _, counts = np.unique(codes, return_counts=True)
    p = counts / codes.size
    return float(-np.sum(p * np.log2(p)))


def _joint_entropy(a: np.ndarray, b: np.ndarray) -> float:
    # Combine the two code columns into one joint code.
    joint = a.astype(np.int64) * (b.max() + 1) + b
    return _entropy(joint)


def symmetrical_uncertainty(a: np.ndarray, b: np.ndarray) -> float:
    """SU in [0, 1]; 0 for independence, 1 for perfect association.

    Inputs are integer code arrays (already discretized).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-D arrays of equal length")
    ha = _entropy(a)
    hb = _entropy(b)
    if ha + hb <= 0:
        return 0.0
    ig = ha + hb - _joint_entropy(a, b)
    return float(max(0.0, min(1.0, 2.0 * ig / (ha + hb))))


# -- blocked SU kernel ---------------------------------------------------------
#
# Contingency tables for whole blocks of pairs at once: each pair's two
# code columns are fused into one joint code (``a * stride + b``), every
# pair in the block is shifted into its own disjoint code range, and a
# single ``np.bincount`` over the raveled block yields all the tables.
# The global stride only widens each pair's code range relative to the
# per-pair ``b.max() + 1`` of :func:`symmetrical_uncertainty` — the
# nonzero cells stay in the same (a, b)-lexicographic order, so summing
# each row's nonzero cells reproduces the ``np.unique`` entropies
# bitwise.


def _entropies_from_counts(counts: np.ndarray, n_rows: int) -> np.ndarray:
    """Row-wise entropies of a ``(P, cap)`` contingency block.

    Each row's nonzero cells are compacted (row-major, so ascending
    joint code within the row) before the ``-Σ p·log2 p`` reduction —
    the same operand order as the per-pair ``np.unique`` path, which is
    what keeps the results bitwise identical.

    Rows with the same number ``k`` of nonzero cells are gathered into
    one contiguous ``(rows, k)`` matrix and summed along its rows in one
    call: numpy sums each contiguous row with the same pairwise
    summation as a 1-D ``np.sum`` over that row's terms.
    """
    mask = counts > 0
    p = counts[mask] / n_rows
    terms = p * np.log2(p)
    nonzero = np.count_nonzero(mask, axis=1)
    starts = np.cumsum(nonzero) - nonzero
    out = np.empty(counts.shape[0])
    for k in np.unique(nonzero):
        rows = np.flatnonzero(nonzero == k)
        out[rows] = -terms[starts[rows, None] + np.arange(k)].sum(axis=1)
    return out


def _pair_blocks(n_pairs: int, bytes_per_pair: int):
    """Yield ``(lo, hi)`` chunks keeping scratch under the budget."""
    block = max(1, SU_SCRATCH_BYTES // max(bytes_per_pair, 1))
    for lo in range(0, n_pairs, block):
        yield lo, min(lo + block, n_pairs)


def column_entropies(codes: np.ndarray) -> np.ndarray:
    """Per-column entropy of an integer code matrix (blocked bincount)."""
    codes = np.asarray(codes)
    n, d = codes.shape
    cap = int(codes.max()) + 1 if codes.size else 1
    out = np.empty(d)
    for lo, hi in _pair_blocks(d, n * 8 + cap * 8):
        block = codes[:, lo:hi].astype(np.int64)
        block += np.arange(hi - lo, dtype=np.int64) * cap
        counts = np.bincount(block.ravel(), minlength=(hi - lo) * cap)
        out[lo:hi] = _entropies_from_counts(counts.reshape(hi - lo, cap), n)
    return out


def _su_from_entropies(ha, hb, hj) -> np.ndarray:
    """Vectorized ``SU = clamp(2·(H(a)+H(b)−H(a,b)) / (H(a)+H(b)))``."""
    hsum = np.asarray(ha + hb)
    ig = hsum - hj
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = 2.0 * ig / hsum
    su = np.maximum(0.0, np.minimum(1.0, raw))
    return np.where(hsum > 0, su, 0.0)


def feature_class_su(
    codes: np.ndarray,
    y_codes: np.ndarray,
    *,
    entropies: np.ndarray | None = None,
) -> np.ndarray:
    """Feature-class SU for every column at once (blocked bincount).

    Bitwise-identical to ``[symmetrical_uncertainty(codes[:, j],
    y_codes) for j in range(d)]``. Precomputed per-column ``entropies``
    can be passed to skip that stage.
    """
    codes = np.asarray(codes)
    y_codes = np.asarray(y_codes)
    n, d = codes.shape
    if y_codes.shape != (n,):
        raise ValueError("y_codes must be 1-D with one entry per row")
    h_cols = column_entropies(codes) if entropies is None else np.asarray(entropies)
    h_y = _entropy(y_codes)
    # The per-pair path fuses with stride ``y_codes.max() + 1`` — the same
    # for every column, so the blocked fuse matches it exactly.
    y_stride = int(y_codes.max()) + 1 if y_codes.size else 1
    cap = (int(codes.max()) + 1 if codes.size else 1) * y_stride
    y64 = y_codes.astype(np.int64)[:, None]
    hj = np.empty(d)
    for lo, hi in _pair_blocks(d, n * 16 + cap * 8):
        block = codes[:, lo:hi].astype(np.int64) * y_stride + y64
        block += np.arange(hi - lo, dtype=np.int64) * cap
        counts = np.bincount(block.ravel(), minlength=(hi - lo) * cap)
        hj[lo:hi] = _entropies_from_counts(counts.reshape(hi - lo, cap), n)
    registry().inc("cfs.su_pairs", d)
    return _su_from_entropies(h_cols, h_y, hj)


def feature_feature_su_matrix(
    codes: np.ndarray,
    indices,
    *,
    entropies: np.ndarray | None = None,
) -> np.ndarray:
    """Symmetric feature-feature SU matrix over ``indices`` columns.

    ``out[p, q]`` is the SU between columns ``indices[p]`` and
    ``indices[q]`` (diagonal left at 0; the search never reads it).
    Every pair is fused in original-index order — ``(min(i, j),
    max(i, j))``, the orientation of the per-pair reference — so each
    cell is bitwise what :func:`symmetrical_uncertainty` returns.
    ``entropies`` optionally supplies precomputed per-*original-column*
    entropies for the ``indices`` columns (positionally aligned with
    ``indices``).
    """
    codes = np.asarray(codes)
    n = codes.shape[0]
    idx = np.asarray(list(indices), dtype=np.int64)
    k = idx.size
    out = np.zeros((k, k))
    if k < 2:
        return out
    h_idx = column_entropies(codes[:, idx]) if entropies is None else np.asarray(entropies)
    pa, pb = np.triu_indices(k, 1)
    ia, ib = idx[pa], idx[pb]
    swap = ia > ib
    a_cols = np.where(swap, ib, ia)
    b_cols = np.where(swap, ia, ib)
    stride = int(codes.max()) + 1 if codes.size else 1
    cap = stride * stride
    n_pairs = pa.size
    hj = np.empty(n_pairs)
    for lo, hi in _pair_blocks(n_pairs, n * 24 + cap * 8):
        fused = codes[:, a_cols[lo:hi]].astype(np.int64) * stride
        fused += codes[:, b_cols[lo:hi]]
        fused += np.arange(hi - lo, dtype=np.int64) * cap
        counts = np.bincount(fused.ravel(), minlength=(hi - lo) * cap)
        hj[lo:hi] = _entropies_from_counts(counts.reshape(hi - lo, cap), n)
    registry().inc("cfs.su_pairs", int(n_pairs))
    su = _su_from_entropies(h_idx[pa], h_idx[pb], hj)
    out[pa, pb] = su
    out[pb, pa] = su
    return out


@dataclass
class CfsResult:
    """Outcome of :func:`cfs_select`."""

    selected: list[int]
    merit: float
    feature_class_su: np.ndarray

    def __len__(self) -> int:
        return len(self.selected)


def merit_from_sums(k: int, sum_fc: float, sum_ff: float) -> float:
    """Hall merit of a ``k``-feature subset from its running SU sums.

    ``sum_fc`` is the subset's summed feature-class SU and ``sum_ff``
    its summed feature-feature SU over unordered pairs.
    """
    if k == 0:
        return 0.0
    rcf = sum_fc / k
    if k == 1:
        return rcf
    rff = sum_ff / (k * (k - 1) / 2.0)
    denom = np.sqrt(k + k * (k - 1) * rff)
    return float(rcf * k / denom)


DEFAULT_MAX_FEATURES = 64


def _searchable_indices(su_fc: np.ndarray, max_features: int | None) -> list[int]:
    """The columns entering the best-first search (top-SU cap)."""
    d = su_fc.size
    if max_features is not None and d > max_features:
        return [int(j) for j in np.argsort(su_fc)[::-1][:max_features]]
    return list(range(d))


def _best_first_search(
    su_fc: np.ndarray,
    ff_matrix: np.ndarray,
    searchable: list[int],
    max_stale: int,
) -> tuple[frozenset[int], float]:
    """Best-first subset search over the searchable SU matrix.

    ``ff_matrix[p, q]`` is the SU of columns ``searchable[p]`` and
    ``searchable[q]``. A search node carries the running sums ``Σ su_fc``
    and ``Σ su_ff`` of its subset. Expanding a node reads what each child
    adds to ``Σ su_ff`` from one ``np.cumsum`` over the matrix rows of the
    subset's members, taken in the frozenset's iteration order: it adds
    left to right, as ``sum(su_ff(i, j) for i in subset)`` does on
    Python 3.11 (3.12's float ``sum`` compensates, so it can differ in
    the last bit). The traversal — heap order, visited set, tie-breaks —
    depends only on the SU values.
    """
    position = {j: p for p, j in enumerate(searchable)}
    start: frozenset[int] = frozenset()
    best_subset = start
    best_merit = 0.0
    # Max-heap of (-merit, order, subset, sum_fc, sum_ff).
    counter = 0
    open_heap: list[tuple[float, int, frozenset[int], float, float]] = [
        (-0.0, counter, start, 0.0, 0.0)
    ]
    visited: set[frozenset[int]] = {start}
    stale = 0

    while open_heap and stale < max_stale:
        _, _, subset, sum_fc, sum_ff = heapq.heappop(open_heap)
        if subset:
            rows = [position[i] for i in subset]
            added = np.cumsum(ff_matrix[rows], axis=0)[-1].tolist()
        else:
            added = [0.0] * len(searchable)
        improved = False
        for p, j in enumerate(searchable):
            if j in subset:
                continue
            child = subset | {j}
            if child in visited:
                continue
            visited.add(child)
            child_fc = sum_fc + float(su_fc[j])
            child_ff = sum_ff + added[p]
            merit = merit_from_sums(len(child), child_fc, child_ff)
            counter += 1
            heapq.heappush(open_heap, (-merit, counter, child, child_fc, child_ff))
            if merit > best_merit + 1e-12:
                best_merit = merit
                best_subset = child
                improved = True
        stale = 0 if improved else stale + 1
    return best_subset, best_merit


def cfs_select(
    X: np.ndarray,
    y: np.ndarray,
    *,
    bins: int = DEFAULT_BINS,
    max_stale: int = DEFAULT_MAX_STALE,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> CfsResult:
    """Select a feature subset maximizing Hall's CFS merit.

    Parameters
    ----------
    X:
        (n, d) numeric feature matrix.
    y:
        (n,) class labels (any hashable dtype).
    bins:
        Equal-frequency bins used to discretize numeric features.
    max_stale:
        Best-first search stops after this many consecutive expansions
        that fail to improve the best merit.
    max_features:
        Only the ``max_features`` columns with the highest feature-class
        SU enter the search (an engineering cap for very wide candidate
        pools; CFS would never pick a feature uncorrelated with the
        class anyway). Pass ``None`` to disable.

    Returns
    -------
    CfsResult
        The selected feature indices (sorted; never empty — falls back
        to the single best feature when the search degenerates), the
        merit of that subset, and the per-feature SU with the class.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(y)
    if X.shape[0] != labels.shape[0]:
        raise ValueError("X and y disagree on the number of instances")
    if X.shape[1] == 0:
        raise ValueError("no features to select from")
    _, y_codes = np.unique(labels, return_inverse=True)

    codes = discretize_features(X, bins=bins)
    h_cols = column_entropies(codes)
    su_fc = feature_class_su(codes, y_codes, entropies=h_cols)
    searchable = _searchable_indices(su_fc, max_features)
    ff_matrix = feature_feature_su_matrix(
        codes, searchable, entropies=h_cols[searchable]
    )
    best_subset, best_merit = _best_first_search(su_fc, ff_matrix, searchable, max_stale)

    if not best_subset:
        best_subset = frozenset({int(np.argmax(su_fc))})
        members = sorted(best_subset)
        best_merit = merit_from_sums(len(members), float(np.sum(su_fc[members])), 0.0)
    return CfsResult(
        selected=sorted(best_subset),
        merit=float(best_merit),
        feature_class_su=su_fc,
    )
