"""Parallel/caching runtime for the RPM pipeline.

The pipeline's two dominant costs are embarrassingly parallel — the
per-class candidate mining of Algorithm 1 and the per-pattern
closest-match columns of the feature transform — and both recompute
sliding-window statistics that depend only on the series matrix and a
window length. This package factors that out:

``executor``
    :class:`ParallelExecutor` — one ``map`` abstraction over serial,
    thread and process backends with ordered, chunked work submission.
``kernel``
    :class:`SeriesPrefix` — per-series-matrix centred rows, cumulative
    sums and one lazily built series spectrum — and its per-length
    :class:`SlidingWindowStats` views, which turn each pattern's
    distance profile into a single mat-vec, or — through the batched
    MASS-style FFT backend — O(n log n) per pattern against the shared
    spectrum (``resolve_backend`` picks per workload).
``cache``
    One generic LRU and one content fingerprint behind the two caches:
    :class:`WindowStatsCache` holds kernel statistics keyed on (series
    fingerprint, window length), so every pattern of a given length
    reuses one precomputation; :class:`DiscretizationCache` holds
    discretization pre-work (z-normalized window matrix +
    per-``paa_size`` PAA reductions) keyed on (series fingerprint,
    window size), so parameter-search evaluations sharing a window skip
    straight to the breakpoint lookup. Both have fixed sizes.

Determinism guarantee: parallelism only changes *scheduling*, never the
floating-point expressions, so results are bitwise identical across
backends and ``n_jobs`` values (see ``docs/runtime.md``).
"""

from .cache import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_DISCRETIZE_CACHE_SIZE,
    DiscretizationCache,
    DiscretizationEntry,
    WindowStatsCache,
    default_cache,
)
from .executor import ParallelExecutor, resolve_n_jobs
from .kernel import (
    KERNEL_BACKENDS,
    PrenormalizedPattern,
    SeriesPrefix,
    SlidingWindowStats,
    prenormalize_pattern,
    resample_pattern,
    resolve_backend,
    sliding_best_distances,
    tie_break_argmin,
    tie_break_argmin_rows,
)

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_DISCRETIZE_CACHE_SIZE",
    "DiscretizationCache",
    "DiscretizationEntry",
    "KERNEL_BACKENDS",
    "ParallelExecutor",
    "PrenormalizedPattern",
    "SeriesPrefix",
    "SlidingWindowStats",
    "WindowStatsCache",
    "default_cache",
    "prenormalize_pattern",
    "resample_pattern",
    "resolve_backend",
    "resolve_n_jobs",
    "sliding_best_distances",
    "tie_break_argmin",
    "tie_break_argmin_rows",
]
