"""Dynamic Time Warping with a Sakoe-Chiba band and the LB_Keogh bound.

Implements the distance behind the paper's strongest global baseline,
1-NN DTW with the *best warping window* (NN-DTWB): constrained DTW plus
the LB_Keogh lower bound that makes the nearest-neighbour search
tractable (Ratanamahatana & Keogh 2004).

The DP is vectorized row-by-row. The awkward in-row dependency
``cur[j] = cost[j] + min(b[j], cur[j-1])`` (with ``b[j] =
min(prev[j], prev[j-1])``) is solved in closed form: writing
``C[j] = Σ_{i≤j} cost[i]`` gives ``cur[j] − C[j] =
min_{k≤j}(b[k] − C[k−1])``, i.e. a running minimum — one
``np.minimum.accumulate`` per row instead of a Python inner loop.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dtw_distance", "lb_keogh", "envelope"]


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("dtw expects 1-D arrays")
    if a.size == 0 or b.size == 0:
        raise ValueError("dtw requires non-empty series")
    return a, b


def _resolve_band(n: int, m: int, window: int | None) -> int:
    if window is None:
        return max(n, m)
    return max(int(window), abs(n - m))


def dtw_distance(
    a: np.ndarray,
    b: np.ndarray,
    window: int | None = None,
    *,
    cutoff: float | None = None,
) -> float:
    """DTW distance between two 1-D series (vectorized DP).

    Parameters
    ----------
    a, b:
        The series; lengths may differ.
    window:
        Sakoe-Chiba band half-width in samples. ``None`` means
        unconstrained; the band is widened to ``|len(a) − len(b)|`` so a
        path always exists.
    cutoff:
        Early-abandon threshold: when every cell of a DP row exceeds
        ``cutoff²`` the function returns ``inf`` immediately.

    Returns
    -------
    float
        ``sqrt`` of the accumulated squared point costs along the
        optimal warping path.
    """
    a, b = _check_pair(a, b)
    n, m = a.size, b.size
    band = _resolve_band(n, m, window)
    limit = cutoff * cutoff if cutoff is not None else None
    inf = np.inf

    prev = np.full(m + 1, inf)
    prev[0] = 0.0
    cur = np.empty(m + 1)
    js = np.arange(1, m + 1)
    for i in range(1, n + 1):
        lo = max(1, i - band)
        hi = min(m, i + band)
        cost = (a[i - 1] - b) ** 2  # cost[j-1] for column j
        # b_best[j] = min(prev[j], prev[j-1]) restricted to the band.
        b_best = np.minimum(prev[1:], prev[:-1])
        in_band = (js >= lo) & (js <= hi)
        b_best = np.where(in_band, b_best, inf)
        csum = np.cumsum(np.where(in_band, cost, 0.0))
        csum_prev = np.concatenate(([0.0], csum[:-1]))
        running = np.minimum.accumulate(b_best - csum_prev)
        cur[1:] = running + csum
        cur[0] = inf
        cur[~np.concatenate(([True], in_band))] = inf
        if limit is not None:
            row_min = cur[lo : hi + 1].min()
            if row_min > limit:
                return float(inf)
        prev, cur = cur, prev
    return float(np.sqrt(prev[m]))


def envelope(series: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper/lower running-extremum envelope used by LB_Keogh.

    ``upper[i] = max(series[i−w : i+w+1])`` and symmetrically for
    ``lower``.
    """
    values = np.asarray(series, dtype=float)
    n = values.size
    w = int(window)
    if w < 0:
        raise ValueError("window must be >= 0")
    if w == 0:
        return values.copy(), values.copy()
    if w >= n:
        upper = np.full(n, values.max())
        lower = np.full(n, values.min())
        return upper, lower
    # Stack shifted copies; 2w+1 rows is small for realistic windows.
    padded_max = np.pad(values, w, mode="constant", constant_values=-np.inf)
    padded_min = np.pad(values, w, mode="constant", constant_values=np.inf)
    windows_max = np.lib.stride_tricks.sliding_window_view(padded_max, 2 * w + 1)
    windows_min = np.lib.stride_tricks.sliding_window_view(padded_min, 2 * w + 1)
    return windows_max.max(axis=1), windows_min.min(axis=1)


def lb_keogh(
    candidate: np.ndarray,
    upper: np.ndarray,
    lower: np.ndarray,
) -> float:
    """LB_Keogh lower bound of DTW(candidate, query) given the query's envelope.

    Any DTW alignment maps each candidate point inside the query's
    envelope tube; summing squared overshoot lower-bounds the DTW cost.
    Series must share the same length (the UCR setting).
    """
    c = np.asarray(candidate, dtype=float)
    if c.shape != upper.shape or c.shape != lower.shape:
        raise ValueError("candidate and envelope must have identical shapes")
    over = np.where(c > upper, c - upper, 0.0)
    under = np.where(c < lower, lower - c, 0.0)
    return float(np.sqrt(np.sum(over * over + under * under)))
