"""Parallel/caching runtime for the RPM pipeline.

The fit's search re-mines and re-transforms the same series under many
SAX triples, and every transform recomputes sliding-window statistics
that depend only on the series matrix and a window length. This
package factors that out:

``executor``
    :class:`ParallelExecutor` — one ordered, chunked ``map`` over a
    plain loop or a thread pool; it fans out the pattern bank's length
    buckets at inference time.
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

Determinism guarantee: the fit is one serial path, and the bank's
threads only change *scheduling*, never the floating-point expressions,
so ``transform``, ``predict`` and serving are bitwise identical for
every ``n_jobs`` value (see ``docs/runtime.md``).
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
