"""Closest-match subsequence search.

The paper's feature transform maps a series ``T`` to the vector of
*closest match distances* between ``T`` and every representative
pattern: the minimum, over all alignments, of the Euclidean distance
between the z-normalized pattern and the z-normalized window of ``T``.

``distance_profile`` computes all alignment distances at once using the
rolling-statistics identity (the MASS/UCR-suite trick):

    dist²(ẑ(w), q) = 2·n − 2·⟨w, q⟩ / σ_w          with  q = ẑ(pattern),

which follows from ``Σ q = 0``, ``Σ q² = n`` and ``Σ ẑ(w)² = n``. This
makes the transform a dense mat-vec instead of a Python loop. Every
function here runs the one sliding-window kernel
(:class:`~repro.runtime.kernel.SlidingWindowStats`); the explicit
early-abandoning scalar search the paper describes lives in
``tests/oracles.py`` as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..runtime.kernel import (
    SlidingWindowStats,
    resample_pattern,
    sliding_best_distances,
    tie_break_argmin,
)

__all__ = [
    "Match",
    "batch_best_distances",
    "batch_distance_profiles",
    "best_match",
    "distance_profile",
]


@dataclass(frozen=True)
class Match:
    """A closest-match result: where the pattern aligned and how far it was."""

    distance: float
    position: int
    length: int


def distance_profile(pattern: np.ndarray, series: np.ndarray) -> np.ndarray:
    """Z-normalized Euclidean distance of *pattern* to every window of *series*.

    Returns an array of length ``len(series) - len(pattern) + 1``. If the
    pattern is longer than the series, the pattern is linearly resampled
    to the series length and a single-element profile is returned. The
    profile is the kernel's one-row profile, bit for bit.
    """
    pattern = np.asarray(pattern, dtype=float)
    series = np.asarray(series, dtype=float)
    if pattern.ndim != 1 or series.ndim != 1:
        raise ValueError("distance_profile expects 1-D arrays")
    if pattern.size < 2:
        raise ValueError("pattern must have at least 2 points")
    if pattern.size > series.size:
        pattern = resample_pattern(pattern, series.size)
    return SlidingWindowStats(series[np.newaxis, :], pattern.size).profiles(pattern)[0]


def batch_distance_profiles(pattern: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Distance profiles of one pattern against every row of ``X``.

    Vectorized across series: one (n, J) result instead of n separate
    :func:`distance_profile` calls. Rows must be at least as long as
    the pattern (the transform resamples otherwise — see
    :func:`batch_best_distances`). Delegates to the runtime kernel
    (:class:`~repro.runtime.kernel.SlidingWindowStats`), which the
    feature transform additionally caches per (series, length).
    """
    pattern = np.asarray(pattern, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("batch_distance_profiles expects a 2-D series matrix")
    if pattern.size > X.shape[1]:
        pattern = resample_pattern(pattern, X.shape[1])
    return SlidingWindowStats(X, pattern.size).profiles(pattern)


def batch_best_distances(pattern: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Closest-match distance of one pattern to every row of ``X``.

    The row minima of :func:`batch_distance_profiles`, bit for bit,
    from the kernel's closest-match reduction, which builds no profiles
    (:meth:`~repro.runtime.kernel.SlidingWindowStats.best_distances`).
    """
    return sliding_best_distances(pattern, X, backend="matvec")


def best_match(pattern: np.ndarray, series: np.ndarray) -> Match:
    """The paper's *closest match*: best alignment of pattern in series.

    Positions tie-break low: every alignment within the shared
    :func:`~repro.runtime.kernel.tie_break_argmin` tolerance of the
    minimum counts as tied and the smallest index wins, so the reported
    position is stable across the mat-vec and FFT kernel backends.
    """
    profile = distance_profile(pattern, series)
    position = tie_break_argmin(profile)
    length = min(np.asarray(pattern).size, np.asarray(series).size)
    return Match(distance=float(profile[position]), position=position, length=length)
