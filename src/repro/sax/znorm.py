"""Z-normalization of time series and subsequences.

SAX (and virtually every subsequence-distance computation in this
library) operates on z-normalized data: each window is rescaled to zero
mean and unit standard deviation before discretization or comparison.
Following the SAX literature (Lin et al. 2007), windows whose standard
deviation falls below a small threshold are treated as flat and mapped
to an all-zero vector instead of being blown up by a near-zero divisor.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["is_flat", "znorm", "znorm_rows", "NORM_THRESHOLD"]

#: Standard deviation below which a sequence is considered constant.
#: The value matches the default used by GrammarViz / SAX-VSM (0.01).
NORM_THRESHOLD = 1e-2


def is_flat(sd, threshold: float = NORM_THRESHOLD):
    """The flatness predicate: strict ``sd < threshold``.

    One definition shared by :func:`znorm`, :func:`znorm_rows` and the
    sliding-window kernel so the scalar and vectorized paths can never
    disagree on whether a borderline window is flat. A standard
    deviation exactly equal to the threshold is *not* flat. Works
    element-wise on arrays.
    """
    return sd < threshold


def znorm(series: np.ndarray, threshold: float = NORM_THRESHOLD) -> np.ndarray:
    """Z-normalize a 1-D series.

    Parameters
    ----------
    series:
        One-dimensional array of observations.
    threshold:
        If the standard deviation of *series* is strictly below this
        value (see :func:`is_flat`) the series is considered flat and
        an exact zero vector of the same length is returned — the mean
        is *not* subtracted first; the output is ``np.zeros_like``, by
        construction free of numerical noise.

    Returns
    -------
    numpy.ndarray
        A new float array with mean 0 and standard deviation 1 (or
        exact zeros for flat input).
    """
    values = np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"znorm expects a 1-D array, got shape {values.shape}")
    if values.size == 0:
        return values.copy()
    # The mean and sd by the two reductions znorm_rows makes: the sums
    # np.mean and np.std make, in the same order, so the result is
    # bitwise theirs.
    centered = values - np.add.reduce(values) / values.size
    sd = math.sqrt(np.add.reduce(centered * centered) / values.size)
    if is_flat(sd, threshold):
        return np.zeros_like(values)
    return centered / sd


def znorm_rows(matrix: np.ndarray, threshold: float = NORM_THRESHOLD) -> np.ndarray:
    """Z-normalize every row of a 2-D array independently.

    Vectorized companion of :func:`znorm` used on batches of sliding
    windows. Rows flagged by :func:`is_flat` (the same strict-``<``
    predicate :func:`znorm` uses) become exact zero rows.
    """
    values = np.asarray(matrix, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"znorm_rows expects a 2-D array, got shape {values.shape}")
    if values.size == 0:
        return values.copy()
    # values.mean / values.std by their own reductions: the same sums in
    # the same order, without std recomputing the mean, so every row
    # stays bitwise equal to znorm.
    length = values.shape[1]
    centered = values - np.add.reduce(values, axis=1, keepdims=True) / length
    sds = np.sqrt(np.add.reduce(centered * centered, axis=1, keepdims=True) / length)
    flat = is_flat(sds, threshold).ravel()
    if not flat.any():
        return centered / sds
    # Avoid division warnings for flat rows; they are overwritten below.
    sds[flat] = 1.0
    out = centered / sds
    out[flat] = 0.0
    return out
