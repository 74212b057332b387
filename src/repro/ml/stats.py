"""Statistical tests used in the evaluation: Wilcoxon signed-rank.

The paper compares classifiers over the dataset suite with the Wilcoxon
signed-rank test (Table 1 and Figure 7 report p-values for RPM vs. each
rival). Implemented from first principles with the normal
approximation, tie correction and continuity correction — the same
recipe as the standard statistical packages (validated against
``scipy.stats.wilcoxon`` in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["WilcoxonResult", "wilcoxon_signed_rank", "rankdata_average"]


@dataclass(frozen=True)
class WilcoxonResult:
    """Statistic ``W`` (smaller signed-rank sum), z-score, two-sided p."""

    statistic: float
    z: float
    p_value: float
    n_nonzero: int


def rankdata_average(values: np.ndarray) -> np.ndarray:
    """Ranks with ties sharing the average rank (1-based)."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        avg_rank = (i + j) / 2.0 + 1.0
        ranks[order[i : j + 1]] = avg_rank
        i = j + 1
    return ranks


def wilcoxon_signed_rank(x: np.ndarray, y: np.ndarray) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are discarded (Wilcoxon's original treatment,
    scipy's ``zero_method='wilcox'``). Requires at least one non-zero
    difference. Uses the normal approximation with tie and continuity
    corrections, which is what matters at the paper's suite size
    (~40 datasets).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    diff = x - y
    diff = diff[diff != 0.0]
    n = diff.size
    if n == 0:
        raise ValueError("all paired differences are zero; test undefined")
    ranks = rankdata_average(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    w_minus = float(ranks[diff < 0].sum())
    statistic = min(w_plus, w_minus)

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # Tie correction over groups of equal |diff|.
    _, counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(counts**3 - counts)) / 48.0
    var -= tie_term
    if var <= 0:
        raise ValueError("zero variance (all differences tie); test undefined")
    # Continuity correction toward the mean.
    z = (statistic - mean + 0.5) / np.sqrt(var)
    # Two-sided p = 2·Φ(z), with Φ(z) = erfc(−z/√2)/2.
    p = min(1.0, math.erfc(-z / math.sqrt(2.0)))
    return WilcoxonResult(statistic=statistic, z=float(z), p_value=p, n_nonzero=n)
