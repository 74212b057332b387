"""Process-wide metrics: counters, gauges and compact histograms.

The pipeline's hot loops (cache lookups, executor chunks, candidate
filtering) publish into a :class:`MetricsRegistry` — a thread-safe bag
of named instruments that costs a dict lookup plus an integer add per
update, cheap enough to leave permanently on. One process-wide registry
(:func:`registry`) is shared by the runtime cache, the executor and the
pipeline stages; tests and embedded uses can pass their own instance.

Metric names are dotted strings (``cache.hits``,
``candidates.dropped_support``, ``executor.chunk_seconds``); the full
catalogue lives in ``docs/observability.md``.
"""

from __future__ import annotations

import bisect
import contextlib
import threading

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "scoped_registry",
]

#: Shared log-spaced histogram bucket upper bounds (1-2-5 per decade,
#: 1µs … 5000). Sized for the quantities the pipeline observes —
#: seconds-scale stage timings and small counts like batch sizes —
#: while keeping every histogram a fixed 31-int array.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    m * 10.0**e for e in range(-6, 4) for m in (1.0, 2.0, 5.0)
)


def estimate_quantile(
    buckets, count: float, q: float, lo_clamp: float, hi_clamp: float
) -> float:
    """Quantile ``q`` estimated from log-bucket counts.

    Linear interpolation inside the bucket where the cumulative count
    crosses ``q * count``, with the bucket edges clamped to the observed
    ``[lo_clamp, hi_clamp]`` range — so a histogram holding one distinct
    value reports that value exactly for every quantile.
    """
    if count <= 0:
        return 0.0
    target = q * count
    cum = 0.0
    for i, n in enumerate(buckets):
        if n == 0:
            continue
        prev = cum
        cum += n
        if cum >= target:
            lo = BUCKET_BOUNDS[i - 1] if i > 0 else 0.0
            hi = BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else hi_clamp
            lo = max(lo, lo_clamp)
            hi = min(hi, hi_clamp)
            if hi < lo:
                hi = lo
            frac = (target - prev) / n
            return lo + frac * (hi - lo)
    return hi_clamp


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def as_record(self) -> dict:
        return {"type": "counter", "name": self.name, "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def as_record(self) -> dict:
        return {"type": "gauge", "name": self.name, "value": self.value}


class Histogram:
    """Streaming summary of observed values with log-bucket quantiles.

    Tracks count/total/min/max plus a fixed array of :data:`BUCKET_BOUNDS`
    counts, so p50/p95/p99 (any quantile, via :meth:`quantile`) can be
    read at any time without storing observations. The observe path
    stays allocation-free: four scalar updates plus one ``bisect`` into
    a shared bounds tuple and an integer add.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    #: The quantiles surfaced in records, snapshots and exporters.
    QUANTILES = (0.5, 0.95, 0.99)

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``) of all observations."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return estimate_quantile(self.buckets, self.count, q, self.min, self.max)

    def as_record(self) -> dict:
        empty = self.count == 0
        record = {
            "type": "histogram",
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "min": self.min if not empty else 0.0,
            "max": self.max if not empty else 0.0,
            "mean": self.mean,
        }
        for q in self.QUANTILES:
            record[f"p{int(q * 100)}"] = self.quantile(q)
        return record


class MetricsRegistry:
    """Thread-safe collection of named counters, gauges and histograms.

    All updates take the registry lock, so concurrent increments from
    thread-backend workers are never lost (asserted by the thread-
    safety test). Instruments are created on first use; reading with
    :meth:`counter_value` / :meth:`snapshot` never creates anything.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- writers ---------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            counter.value += amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name)
            gauge.value = value

    def add_gauge(self, name: str, delta: float) -> None:
        """Adjust gauge ``name`` by ``delta`` atomically.

        The read-modify-write happens under the registry lock, so
        paired increments/decrements from different threads (e.g. the
        serve queue-depth gauge: +1 on enqueue, -1 on dequeue) can
        never lose an update.
        """
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name)
            gauge.value += delta

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(name)
            hist.count += 1
            hist.total += value
            if value < hist.min:
                hist.min = value
            if value > hist.max:
                hist.max = value
            hist.buckets[bisect.bisect_left(BUCKET_BOUNDS, value)] += 1

    # -- readers ---------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        with self._lock:
            counter = self._counters.get(name)
            return counter.value if counter else 0

    def gauge_value(self, name: str) -> float:
        with self._lock:
            gauge = self._gauges.get(name)
            return gauge.value if gauge else 0.0

    def histogram(self, name: str) -> Histogram | None:
        with self._lock:
            return self._histograms.get(name)

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument (JSON-serializable).

        Histogram entries carry their raw bucket counts alongside the
        derived quantiles, so two snapshots can be diffed with
        :meth:`delta` — benchmarks and tests measure *their* interval
        instead of depending on whatever process-global state
        accumulated before them.
        """
        with self._lock:
            histograms = {}
            for n, h in self._histograms.items():
                record = h.as_record()
                record["buckets"] = list(h.buckets)
                histograms[n] = record
            return {
                "counters": {n: c.value for n, c in self._counters.items()},
                "gauges": {n: g.value for n, g in self._gauges.items()},
                "histograms": histograms,
            }

    def delta(self, baseline: dict) -> dict:
        """Snapshot of everything that happened *since* ``baseline``.

        ``baseline`` is an earlier :meth:`snapshot` of this registry (or
        an empty/partial dict — missing instruments diff against zero).
        Counters and histogram counts/totals/buckets subtract; quantiles
        are re-estimated from the diffed buckets; gauges are
        point-in-time and pass through unchanged. Histogram ``min`` /
        ``max`` are lifetime extrema (extrema are not diffable) and are
        only used to clamp the interval quantile estimates.
        """
        current = self.snapshot()
        base_counters = baseline.get("counters", {})
        base_hists = baseline.get("histograms", {})
        counters = {
            name: value - base_counters.get(name, 0)
            for name, value in current["counters"].items()
        }
        histograms = {}
        for name, record in current["histograms"].items():
            base = base_hists.get(name, {})
            count = record["count"] - base.get("count", 0)
            total = record["total"] - base.get("total", 0.0)
            base_buckets = base.get("buckets") or [0] * len(record["buckets"])
            buckets = [c - b for c, b in zip(record["buckets"], base_buckets)]
            diffed = {
                "type": "histogram",
                "name": name,
                "count": count,
                "total": total,
                "min": record["min"],
                "max": record["max"],
                "mean": total / count if count else 0.0,
                "buckets": buckets,
            }
            for q in Histogram.QUANTILES:
                diffed[f"p{int(q * 100)}"] = estimate_quantile(
                    buckets, count, q, record["min"], record["max"]
                )
            histograms[name] = diffed
        return {
            "counters": counters,
            "gauges": dict(current["gauges"]),
            "histograms": histograms,
        }

    def records(self) -> list[dict]:
        """One flat record per instrument (the JSON-lines payload)."""
        with self._lock:
            instruments = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        return [inst.as_record() for inst in instruments]

    def reset(self) -> None:
        """Drop every instrument (counters restart at zero)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_global_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide shared registry.

    Shard worker processes each see their own copy: metrics published
    in a worker process stay there.
    """
    return _global_registry


@contextlib.contextmanager
def scoped_registry(reg: MetricsRegistry | None = None):
    """Swap the process-wide registry for the duration of a block.

    Everything that publishes through :func:`registry` inside the block
    lands in a fresh (or caller-supplied) :class:`MetricsRegistry`; on
    exit the previous registry is restored untouched. This is the fix
    for global-state leakage across runs and tests — assert on the
    scoped registry's absolute values instead of diffing whatever the
    process accumulated earlier::

        with scoped_registry() as reg:
            service.predict(X)          # default-metrics path
            assert reg.counter_value("serve.requests") == len(X)

    The swap is process-global, not thread-scoped: concurrent threads
    resolving :func:`registry` inside the block publish into the scoped
    instance too (that is what the serving tests want — the worker
    thread's metrics land in the scope). Avoid overlapping scopes from
    unrelated threads.
    """
    global _global_registry
    previous = _global_registry
    _global_registry = reg if reg is not None else MetricsRegistry()
    try:
        yield _global_registry
    finally:
        _global_registry = previous
