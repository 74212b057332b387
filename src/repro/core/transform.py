"""The pattern-distance feature transform.

A time series ``T`` becomes the vector of closest-match distances
between ``T`` and each representative pattern (paper §2.1 "Time Series
Transformation" and §3.1). The rotation-invariant variant additionally
matches against the series cut at its midpoint with halves swapped and
keeps the minimum (§6.1), so a pattern broken by a rotation is still
found whole in one of the two copies.

Two paths compute it, both through the sliding-window kernel:

* **Per pattern** (a sequence of patterns; the fit's path). Each
  feature column is one kernel call, whose per-(series, length)
  statistics come from a :class:`~repro.runtime.cache.WindowStatsCache`
  — every pattern of a given length reuses one cumulative-sum
  precomputation. The training features and validation transforms run
  here, and their numbers are what a fit's fingerprint pins.
* **Pattern bank** (a :class:`PatternBank`; the inference path of
  ``RPMClassifier.transform``/``predict`` and of the serving
  ``CompiledModel``). Patterns are z-normalized once and grouped into
  length buckets; per batch the bank builds one
  :class:`~repro.runtime.kernel.SeriesPrefix` (and one for the rotated
  copy) and makes one batched kernel call per bucket. No fingerprint
  hashing, no cache, one series spectrum per matrix.

The two agree bitwise wherever a bucket resolves to the mat-vec
backend; where ``auto`` sends a bucket to the FFT they differ by FFT
rounding (see ``docs/runtime.md``). The per-pattern path is one serial
loop. Buckets are independent, so a
:class:`~repro.runtime.executor.ParallelExecutor` can fan them out
across threads; scheduling never changes the floating-point
expressions, keeping results bitwise identical to the serial loop.
"""

from __future__ import annotations

import numpy as np

from ..obs.tracer import span
from ..runtime.cache import WindowStatsCache, default_cache, fingerprint
from ..runtime.kernel import (
    PrenormalizedPattern,
    SeriesPrefix,
    SlidingWindowStats,
    prenormalize_pattern,
    resample_pattern,
    sliding_best_distances,
)

__all__ = [
    "LengthBucket",
    "PatternBank",
    "pattern_features",
    "pattern_values",
    "rotate_halves",
]


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
    original matrix and this copy and keeps the minimum; both transform
    paths share this exact expression.
    """
    return np.column_stack([X[:, X.shape[1] // 2 :], X[:, : X.shape[1] // 2]])


class LengthBucket:
    """The pre-normalized patterns that share one effective length.

    ``cols`` are their feature columns, in bank order.
    """

    __slots__ = ("length", "cols", "pres")

    def __init__(self, length: int, cols: list[int], pres: list[PrenormalizedPattern]):
        self.length = length
        self.cols = cols
        self.pres = pres


def _compile_plan(values: list[np.ndarray], m: int) -> list[LengthBucket]:
    """Length buckets of pre-z-normalized patterns for inputs of length ``m``.

    A pattern longer than ``m`` is resampled to ``m`` points first, as
    the per-pattern path does.
    """
    grouped: dict[int, LengthBucket] = {}
    for col, raw in enumerate(values):
        effective = resample_pattern(raw, m) if raw.size > m else raw
        bucket = grouped.get(effective.size)
        if bucket is None:
            bucket = grouped[effective.size] = LengthBucket(effective.size, [], [])
        bucket.cols.append(col)
        bucket.pres.append(prenormalize_pattern(effective))
    return [grouped[length] for length in sorted(grouped)]


def _bucket_block(args) -> tuple[list[int], np.ndarray]:
    """Feature columns of one bucket.

    One view of the batch prefix (and of the rotated copy's) and one
    batched kernel call for the whole bucket; the backend resolves per
    (series length × bucket size) workload.
    """
    bucket, prefix, prefix_rot = args
    dists = SlidingWindowStats(prefix, bucket.length).batch_best_distances_prenormalized(
        bucket.pres
    )
    if prefix_rot is not None:
        dists = np.minimum(
            dists,
            SlidingWindowStats(prefix_rot, bucket.length).batch_best_distances_prenormalized(
                bucket.pres
            ),
        )
    return bucket.cols, dists.T


class PatternBank:
    """A fixed pattern set compiled for repeated transforms.

    Parameters
    ----------
    values:
        Raw pattern values, in feature order. Adopted as-is.
    native_plan:
        The already-compiled plan for inputs at least as long as the
        longest pattern (for example one built over shared-memory
        views); compiled from ``values`` when omitted.

    Plans are per input length ``m``, because a pattern longer than
    ``m`` is resampled to ``m`` points. The native plan, in which no
    pattern is resampled, is compiled eagerly; plans for shorter inputs
    are compiled on first use.
    """

    def __init__(self, values: list[np.ndarray], native_plan: list[LengthBucket] | None = None):
        if not values:
            raise ValueError("a pattern bank needs at least one pattern")
        self.values = list(values)
        self.max_pattern_length = max(v.size for v in self.values)
        if native_plan is None:
            native_plan = _compile_plan(self.values, self.max_pattern_length)
        self.native_plan = list(native_plan)
        self._plans: dict[int, list[LengthBucket]] = {}

    def __len__(self) -> int:
        return len(self.values)

    def plan(self, m: int) -> list[LengthBucket]:
        """The length buckets for inputs of ``m`` points."""
        if m >= self.max_pattern_length:
            return self.native_plan
        plan = self._plans.get(m)
        if plan is None:
            plan = self._plans[m] = _compile_plan(self.values, m)
        return plan

    def transform(
        self,
        X: np.ndarray,
        *,
        rotation_invariant: bool = False,
        executor=None,
    ) -> np.ndarray:
        """Pattern-distance features ``(n, K)`` of a batch.

        One :class:`~repro.runtime.kernel.SeriesPrefix` for ``X`` (and
        one for its rotated copy), one view and one batched kernel call
        per bucket. ``executor`` fans the buckets out; results are
        bitwise identical for every executor configuration.
        """
        X = np.asarray(X, dtype=float)
        prefix = SeriesPrefix(X)
        prefix_rot = SeriesPrefix(rotate_halves(X)) if rotation_invariant else None
        jobs = [(bucket, prefix, prefix_rot) for bucket in self.plan(X.shape[1])]
        if executor is None or executor.backend == "serial" or len(jobs) == 1:
            blocks = [_bucket_block(job) for job in jobs]
        else:
            blocks = executor.map(_bucket_block, jobs)
        out = np.empty((X.shape[0], len(self)))
        for cols, block in blocks:
            out[:, cols] = block
        return out


def pattern_features(
    X: np.ndarray,
    patterns,
    *,
    rotation_invariant: bool = False,
    executor=None,
    cache: WindowStatsCache | None = None,
) -> np.ndarray:
    """Transform ``(n, m)`` series into ``(n, K)`` pattern distances.

    ``patterns`` is either a sequence of patterns, computed one column
    at a time in one serial loop with the cached sliding-window kernel
    (the fit's path; ``cache`` overrides the process-wide default
    statistics cache), or a :class:`PatternBank`, computed one batched
    kernel call per length bucket over one window-statistics prefix per
    batch (the inference path; ``cache`` is not used, and ``executor``,
    a :class:`~repro.runtime.executor.ParallelExecutor`, fans the
    buckets out across threads). The active tracer records the whole
    call as one ``transform`` span. Each kernel call picks its
    cross-correlation backend from its workload (see
    :func:`~repro.runtime.kernel.resolve_backend`); output is
    independent of executor and cache choices and, wherever the
    backend resolves to the mat-vec, of the path as well.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if not patterns:
        raise ValueError("patterns must be non-empty")
    with span("transform") as transform_span:
        transform_span.add("transform.series", X.shape[0])
        transform_span.add("transform.patterns", len(patterns))
        if isinstance(patterns, PatternBank):
            return patterns.transform(
                X,
                rotation_invariant=rotation_invariant,
                executor=executor,
            )
        X_rot = rotate_halves(X) if rotation_invariant else None
        cache = cache if cache is not None else default_cache()
        token = fingerprint(X)
        token_rot = fingerprint(X_rot) if X_rot is not None else None
        out = np.empty((X.shape[0], len(patterns)))
        for k, pattern in enumerate(patterns):
            values = pattern_values(pattern)
            dist = sliding_best_distances(
                values, X, cache=cache, token=token
            )
            if X_rot is not None:
                dist = np.minimum(
                    dist,
                    sliding_best_distances(
                        values, X_rot, cache=cache, token=token_rot
                    ),
                )
            out[:, k] = dist
        return out
