"""The pattern-distance feature transform.

A time series ``T`` becomes the vector of closest-match distances
between ``T`` and each representative pattern (paper §2.1 "Time Series
Transformation" and §3.1). The rotation-invariant variant additionally
matches against the series cut at its midpoint with halves swapped and
keeps the minimum (§6.1), so a pattern broken by a rotation is still
found whole in one of the two copies.

Runtime: each pattern's feature column is one call into the sliding-
window kernel, whose per-(series, length) statistics come from a
:class:`~repro.runtime.cache.WindowStatsCache` — every pattern of a
given length reuses one cumulative-sum precomputation. Columns are
independent, so a :class:`~repro.runtime.executor.ParallelExecutor`
can fan them out across threads or processes; scheduling never changes
the floating-point expressions, keeping results bitwise identical to
the serial loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..obs.tracer import NOOP
from ..runtime.cache import WindowStatsCache, default_cache, fingerprint
from ..runtime.kernel import sliding_best_distances

__all__ = ["pattern_features", "pattern_feature_row", "pattern_values", "rotate_halves"]


def pattern_values(pattern) -> np.ndarray:
    """Raw values of a pattern-like object.

    Accepts raw arrays, :class:`~repro.core.patterns.PatternCandidate`
    and :class:`~repro.core.patterns.RepresentativePattern` — anything
    with a ``values`` attribute or convertible to a float array.
    """
    values = getattr(pattern, "values", pattern)
    return np.asarray(values, dtype=float)


def rotate_halves(X: np.ndarray) -> np.ndarray:
    """Each row cut at its midpoint with the halves swapped (§6.1).

    The rotation-invariant transform matches patterns against both the
    original matrix and this copy and keeps the minimum; the serving
    engine shares this exact expression so batched and in-process
    transforms stay bitwise identical.
    """
    return np.column_stack([X[:, X.shape[1] // 2 :], X[:, : X.shape[1] // 2]])


def pattern_feature_row(
    series: np.ndarray,
    patterns: Sequence,
    *,
    rotation_invariant: bool = False,
    cache: WindowStatsCache | None = None,
    kernel_backend: str = "auto",
) -> np.ndarray:
    """Closest-match distances of one series to every pattern.

    Delegates to :func:`pattern_features` on the series viewed as a
    one-row matrix, so the single-series path runs the exact same
    sliding-window kernel as the batch transform — flat-window
    handling, pattern-longer-than-series resampling and the rotation
    copy are bitwise identical between the two (asserted by the parity
    test suite). An earlier implementation recomputed the profile
    through ``distance_profile`` per pattern, leaving the two code
    paths free to drift.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError(f"pattern_feature_row expects a 1-D series, got shape {series.shape}")
    if not len(patterns):
        return np.empty(0)
    return pattern_features(
        series[np.newaxis, :],
        patterns,
        rotation_invariant=rotation_invariant,
        cache=cache,
        kernel_backend=kernel_backend,
    )[0]


def _feature_block(args) -> np.ndarray:
    """Feature columns for one chunk of patterns (picklable worker).

    ``cache=None`` means "build a fresh local cache" — the process
    backend ships this worker to other interpreters where the shared
    cache does not exist.
    """
    values_list, X, X_rot, cache, token, token_rot, backend = args
    if cache is None:
        cache = WindowStatsCache(max(4, 2 * len(values_list)))
        token = token_rot = None
    out = np.empty((X.shape[0], len(values_list)))
    for k, values in enumerate(values_list):
        dist = sliding_best_distances(values, X, cache=cache, token=token, backend=backend)
        if X_rot is not None:
            dist = np.minimum(
                dist,
                sliding_best_distances(
                    values, X_rot, cache=cache, token=token_rot, backend=backend
                ),
            )
        out[:, k] = dist
    return out


def pattern_features(
    X: np.ndarray,
    patterns: Sequence,
    *,
    rotation_invariant: bool = False,
    executor=None,
    cache: WindowStatsCache | None = None,
    tracer=NOOP,
    kernel_backend: str = "auto",
) -> np.ndarray:
    """Transform ``(n, m)`` series into ``(n, K)`` pattern distances.

    Computed one pattern column at a time with the cached sliding-
    window kernel — the dominant cost of both training (Algorithm 2's
    transform) and classification. ``executor`` (a
    :class:`~repro.runtime.executor.ParallelExecutor`) fans the columns
    out across workers; ``cache`` overrides the process-wide default
    statistics cache. ``tracer`` records the whole call as one
    ``transform`` span. ``kernel_backend`` selects the distance-kernel
    cross-correlation implementation (``auto``/``fft``/``matvec`` —
    see :func:`~repro.runtime.kernel.resolve_backend`); ``auto`` keeps
    the exact mat-vec path below the FFT crossover, so output is
    independent of executor and cache choices and, below the crossover,
    of the backend as well.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if not patterns:
        raise ValueError("patterns must be non-empty")
    with tracer.span("transform") as span:
        span.add("transform.series", X.shape[0])
        span.add("transform.patterns", len(patterns))
        X_rot = rotate_halves(X) if rotation_invariant else None

        values_list = [pattern_values(p) for p in patterns]
        serial = executor is None or executor.backend == "serial"
        if serial or executor.backend == "thread":
            shared_cache = cache if cache is not None else default_cache()
            token = fingerprint(X)
            token_rot = fingerprint(X_rot) if X_rot is not None else None
        else:
            # Process workers rebuild statistics locally; chunking by
            # contiguous blocks keeps each (length, chunk) rebuilt once.
            shared_cache = token = token_rot = None

        if serial:
            return _feature_block(
                (values_list, X, X_rot, shared_cache, token, token_rot, kernel_backend)
            )

        n_chunks = min(len(values_list), executor.n_jobs * 4)
        bounds = np.linspace(0, len(values_list), n_chunks + 1).astype(int)
        jobs = [
            (values_list[lo:hi], X, X_rot, shared_cache, token, token_rot, kernel_backend)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        blocks = executor.map(_feature_block, jobs)
        return np.concatenate(blocks, axis=1)
