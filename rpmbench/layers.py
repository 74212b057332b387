"""The layer table: which public functions the traced pass wraps, and
the per-layer metrics computed from the recorded spans.

Fit-side layers are summed over the ``fit`` and ``predict`` roots, the
in-process serving layers over the ``serve`` roots and the sharded tier
and its drift monitor over the ``shard`` roots; ``validate`` sums both
tiers. Counts and ratios come from the per-root deltas of
``repro.obs.registry()`` or from work counts recorded on the spans.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import Boundary, Recorder, self_times

BOUNDARIES = (
    Boundary("params", "repro.core.params", "ParamSelector.select_direct"),
    Boundary("params", "repro.core.params", "ParamSelector.evaluate_batch"),
    Boundary("mine", "repro.core.candidates", "find_candidates",
             ("repro.core.params", "repro.core.rpm")),
    Boundary("select", "repro.core.selection", "find_distinct",
             ("repro.core.params", "repro.core.rpm")),
    Boundary("sax", "repro.grammar.inference", "discretize_class",
             ("repro.core.candidates",)),
    Boundary("grammar", "repro.grammar.inference", "induce_motifs",
             ("repro.core.candidates",)),
    Boundary("cluster", "repro.cluster.refine", "bisect_refine",
             ("repro.core.candidates",),
             count=lambda args, kwargs, result: len(args[0])),
    Boundary("dedup", "repro.core.selection", "remove_similar",
             count=lambda args, kwargs, result: (len(args[0]), len(result))),
    Boundary("cfs", "repro.ml.cfs", "cfs_select", ("repro.core.selection",)),
    Boundary("svm", "repro.ml.svm", "SVC.fit"),
    Boundary("svm", "repro.ml.svm", "SVC.predict"),
    Boundary("svm", "repro.ml.crossval", "kfold_predictions", ("repro.core.params",)),
    Boundary("transform", "repro.core.transform", "pattern_features",
             ("repro.core.selection", "repro.core.params", "repro.core.rpm"),
             count=lambda args, kwargs, result: int(result.size)),
    Boundary("kernel", "repro.runtime.kernel", "sliding_best_distances",
             ("repro.core.transform",)),
    Boundary("kernel", "repro.runtime.kernel", "SlidingWindowStats.profiles_prenormalized"),
    Boundary("kernel", "repro.runtime.kernel",
             "SlidingWindowStats.batch_profiles_prenormalized"),
    Boundary("kernel", "repro.runtime.kernel",
             "SlidingWindowStats.batch_best_distances_prenormalized"),
    Boundary("executor", "repro.runtime.executor", "ParallelExecutor.map", kind="map"),
    Boundary("compiled", "repro.serve.compiled", "CompiledModel.transform",
             count=lambda args, kwargs, result: len(result)),
    Boundary("validate", "repro.serve.types", "validate_series",
             ("repro.serve.service", "repro.serve.shard")),
    Boundary("service", "repro.serve.service", "PredictionService.submit"),
    Boundary("shard", "repro.serve.shard", "ShardedPredictionService.submit"),
    Boundary("shard", "repro.serve.shard", "ShardedPredictionService.start"),
    Boundary("monitor", "repro.serve.monitor", "DriftMonitor.observe"),
    # The drift thread's folds and evaluations: every sketch call under a
    # ``shard`` root (the reference is built outside the roots).
    Boundary("monitor", "repro.obs.sketch", "DistributionSketch.extend"),
    Boundary("monitor", "repro.obs.sketch", "DistributionSketch.scale"),
    Boundary("monitor", "repro.obs.sketch", "DistributionSketch.merge"),
    Boundary("monitor", "repro.obs.sketch", "psi", ("repro.serve.monitor",)),
)

FIT_SIDE = ("fit", "predict")
SERVE = ("serve",)
SHARD = ("shard",)

#: Every per-layer metric with its unit, in report order.
UNITS = {
    "params.evaluations": "count",
    "params.self_s": "s",
    "mine.calls": "count",
    "mine.self_s": "s",
    "mine.support_ratio": "ratio",
    "select.calls": "count",
    "select.self_s": "s",
    "sax.calls": "count",
    "sax.self_s": "s",
    "sax.cache_hit_ratio": "ratio",
    "grammar.calls": "count",
    "grammar.self_s": "s",
    "grammar.rules": "count",
    "cluster.calls": "count",
    "cluster.self_s": "s",
    "cluster.members": "count",
    "dedup.calls": "count",
    "dedup.self_s": "s",
    "dedup.kept_ratio": "ratio",
    "cfs.calls": "count",
    "cfs.self_s": "s",
    "cfs.su_pairs": "count",
    "cfs.cache_hit_ratio": "ratio",
    "svm.calls": "count",
    "svm.self_s": "s",
    "svm.serve_s": "s",
    "transform.calls": "count",
    "transform.self_s": "s",
    "transform.cells": "count",
    "transform.cache_hit_ratio": "ratio",
    "kernel.calls": "count",
    "kernel.self_s": "s",
    "kernel.fft_share": "ratio",
    "kernel.serve_s": "s",
    "executor.calls": "count",
    "executor.items": "count",
    "executor.wait_s": "s",
    "compiled.calls": "count",
    "compiled.rows_per_call": "rows",
    "compiled.self_s": "s",
    "validate.calls": "count",
    "validate.self_s": "s",
    "service.submit_s": "s",
    "service.batch_size": "rows",
    "service.queue_wait_p50_ms": "ms",
    "service.latency_p99_ms": "ms",
    "service.latency_samples": "count",
    "shard.submit_s": "s",
    "shard.batch_size": "rows",
    "shard.queue_wait_p50_ms": "ms",
    "shard.return_p50_ms": "ms",
    "shard.latency_p99_ms": "ms",
    "shard.latency_samples": "count",
    "shard.start_s": "s",
    "shard.redispatched": "count",
    "shard.worker_rss_mb": "MB",
    "monitor.observe_s": "s",
    "monitor.fold_s": "s",
    "monitor.rows": "count",
    "monitor.dropped_ratio": "ratio",
    "monitor.alerts": "count",
    "setup.import_s": "s",
    "setup.compile_s": "s",
    "setup.start_s": "s",
    "setup.inputs_s": "s",
    "serve.p99_ms": "ms",
    "serve.samples": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.fit_overhead_ratio": "ratio",
    "trace.predict_overhead_ratio": "ratio",
    "trace.serve_overhead_ratio": "ratio",
    "fit.uncovered_share": "ratio",
}

#: Counts that repeat exactly at a fixed seed: the fit and predict work
#: is fixed by the workload and the seed.
EXACT = (
    "params.evaluations", "mine.calls", "select.calls", "sax.calls", "grammar.calls",
    "grammar.rules", "cluster.calls", "cluster.members", "dedup.calls",
    "dedup.kept_ratio", "cfs.calls", "svm.calls", "transform.calls",
    "transform.cells", "kernel.calls", "kernel.fft_share", "executor.calls",
    "executor.items", "mine.support_ratio",
)
#: Cache counts are exact only when one thread fits: concurrent misses on
#: one key may both compute it.
EXACT_IF_SERIAL = (
    "sax.cache_hit_ratio", "cfs.su_pairs", "cfs.cache_hit_ratio",
    "transform.cache_hit_ratio",
)

#: Which layers the table says fire (non-zero) or idle (zero) per
#: workload, checked by the self-test. Layers not named are unchecked.
ACTIVE = {
    "direct-ucr": {
        "params.evaluations", "mine.calls", "sax.calls", "sax.cache_hit_ratio",
        "grammar.calls", "cluster.calls", "dedup.calls", "cfs.calls",
        "cfs.su_pairs", "svm.calls", "transform.calls", "transform.cache_hit_ratio",
        "kernel.calls", "compiled.calls", "validate.calls", "service.submit_s",
        "service.latency_samples", "svm.serve_s", "shard.submit_s", "shard.batch_size",
        "shard.return_p50_ms", "shard.latency_p99_ms", "shard.start_s",
        "shard.worker_rss_mb", "monitor.observe_s", "monitor.fold_s", "monitor.rows",
    },
    "fixed-long": {
        "mine.calls", "sax.calls", "grammar.calls", "cluster.calls", "transform.calls",
        "kernel.calls", "kernel.fft_share", "executor.calls", "executor.items",
        "compiled.calls", "validate.calls", "service.submit_s", "service.latency_samples",
        "kernel.serve_s", "svm.serve_s",
    },
}
IDLE = {
    "direct-ucr": {"executor.calls", "executor.items", "shard.redispatched"},
    "fixed-long": {"params.evaluations", "sax.cache_hit_ratio", "shard.submit_s",
                   "shard.start_s", "monitor.observe_s", "monitor.rows"},
}


class _Totals:
    """Span and registry totals of one traced pass, grouped by root kind."""

    def __init__(self, recorder: Recorder) -> None:
        self.self_s = self_times(recorder.spans)
        self.kind_of_root = {span.id: kind for span, kind, _ in recorder.roots}
        self.roots = recorder.roots
        by_id = {span.id: span for span in recorder.spans}
        self.outermost = {
            span.id
            for span in recorder.spans
            if getattr(by_id.get(span.parent), "layer", None) != span.layer
        }
        self.by_layer = defaultdict(list)
        for span in recorder.spans:
            self.by_layer[span.layer].append(span)

    def _in(self, layer: str, kinds, name: str | None = None):
        for span in self.by_layer[layer]:
            if self.kind_of_root.get(span.root) in kinds and name in (None, span.name):
                yield span

    def calls(self, layer, kinds, name=None) -> int:
        return sum(1 for span in self._in(layer, kinds, name) if span.id in self.outermost)

    def self_time(self, layer, kinds, name=None) -> float:
        return sum(self.self_s[span.id] for span in self._in(layer, kinds, name))

    def counts(self, layer, kinds, name=None) -> list:
        return [span.count for span in self._in(layer, kinds, name) if span.count is not None]

    def counter(self, name: str, kinds) -> int:
        return sum(
            delta["counters"].get(name, 0) for _, kind, delta in self.roots if kind in kinds
        )

    def histogram(self, name: str, kinds) -> dict:
        """Bucket-wise sum of one histogram's deltas over the roots."""
        merged = None
        for _, kind, delta in self.roots:
            record = delta["histograms"].get(name)
            if kind not in kinds or record is None or record["count"] <= 0:
                continue
            if merged is None:
                merged = dict(record, buckets=list(record["buckets"]))
            else:
                merged["count"] += record["count"]
                merged["total"] += record["total"]
                merged["buckets"] = [a + b for a, b in zip(merged["buckets"], record["buckets"])]
                merged["min"] = min(merged["min"], record["min"])
                merged["max"] = max(merged["max"], record["max"])
        return merged or {"count": 0, "total": 0.0, "buckets": [], "min": 0.0, "max": 0.0}

    def quantile(self, name: str, kinds, q: float) -> float:
        from repro.obs.metrics import estimate_quantile

        hist = self.histogram(name, kinds)
        if hist["count"] <= 0:
            return 0.0
        return estimate_quantile(hist["buckets"], hist["count"], q, hist["min"], hist["max"])

    def uncovered(self, kind: str) -> float:
        """Share of the ``kind`` roots' time no same-thread span covers."""
        total = sum(span.end - span.start for span, k, _ in self.roots if k == kind)
        bare = sum(self.self_s[span.id] for span, k, _ in self.roots if k == kind)
        return bare / total if total else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder, extra: dict) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``extra`` supplies what the benchmark measured itself: the ``setup.*``
    medians, the client-side latencies and the traced/untraced phase
    ratios.
    """
    t = _Totals(recorder)
    m: dict[str, float] = {}

    m["params.evaluations"] = t.counter("direct.evaluations", FIT_SIDE)
    m["params.self_s"] = t.self_time("params", FIT_SIDE)

    m["mine.calls"] = t.calls("mine", FIT_SIDE)
    m["mine.self_s"] = t.self_time("mine", FIT_SIDE)
    generated = t.counter("candidates.generated", FIT_SIDE)
    m["mine.support_ratio"] = _ratio(
        generated, generated + t.counter("candidates.dropped_support", FIT_SIDE)
    )

    m["select.calls"] = t.calls("select", FIT_SIDE)
    m["select.self_s"] = t.self_time("select", FIT_SIDE)

    m["sax.calls"] = t.calls("sax", FIT_SIDE)
    m["sax.self_s"] = t.self_time("sax", FIT_SIDE)
    hits = t.counter("discretize.cache.hits", FIT_SIDE)
    m["sax.cache_hit_ratio"] = _ratio(hits, hits + t.counter("discretize.cache.misses", FIT_SIDE))

    m["grammar.calls"] = t.calls("grammar", FIT_SIDE)
    m["grammar.self_s"] = t.self_time("grammar", FIT_SIDE)
    m["grammar.rules"] = t.counter("grammar.rules", FIT_SIDE)

    m["cluster.calls"] = t.calls("cluster", FIT_SIDE)
    m["cluster.self_s"] = t.self_time("cluster", FIT_SIDE)
    m["cluster.members"] = sum(t.counts("cluster", FIT_SIDE))

    m["dedup.calls"] = t.calls("dedup", FIT_SIDE)
    m["dedup.self_s"] = t.self_time("dedup", FIT_SIDE)
    pairs = t.counts("dedup", FIT_SIDE)
    m["dedup.kept_ratio"] = _ratio(sum(k for _, k in pairs), sum(n for n, _ in pairs))

    m["cfs.calls"] = t.calls("cfs", FIT_SIDE)
    m["cfs.self_s"] = t.self_time("cfs", FIT_SIDE)
    m["cfs.su_pairs"] = t.counter("cfs.su_pairs", FIT_SIDE)
    hits = t.counter("select.cache.hits", FIT_SIDE)
    m["cfs.cache_hit_ratio"] = _ratio(hits, hits + t.counter("select.cache.misses", FIT_SIDE))

    m["svm.calls"] = t.calls("svm", FIT_SIDE)
    m["svm.self_s"] = t.self_time("svm", FIT_SIDE)
    m["svm.serve_s"] = t.self_time("svm", SERVE)

    m["transform.calls"] = t.calls("transform", FIT_SIDE)
    m["transform.self_s"] = t.self_time("transform", FIT_SIDE)
    m["transform.cells"] = sum(t.counts("transform", FIT_SIDE))
    hits = t.counter("cache.hits", FIT_SIDE)
    m["transform.cache_hit_ratio"] = _ratio(hits, hits + t.counter("cache.misses", FIT_SIDE))

    matvec = t.counter("kernel.backend.matvec", FIT_SIDE)
    fft = t.counter("kernel.backend.fft", FIT_SIDE)
    m["kernel.calls"] = matvec + fft
    m["kernel.self_s"] = t.self_time("kernel", FIT_SIDE)
    m["kernel.fft_share"] = _ratio(fft, matvec + fft)
    m["kernel.serve_s"] = t.self_time("kernel", SERVE)

    m["executor.calls"] = t.calls("executor", FIT_SIDE)
    m["executor.items"] = sum(t.counts("executor", FIT_SIDE))
    m["executor.wait_s"] = t.self_time("executor", FIT_SIDE)

    m["compiled.calls"] = t.calls("compiled", SERVE)
    m["compiled.rows_per_call"] = _ratio(sum(t.counts("compiled", SERVE)), m["compiled.calls"])
    m["compiled.self_s"] = t.self_time("compiled", SERVE)

    m["validate.calls"] = t.calls("validate", SERVE + SHARD)
    m["validate.self_s"] = t.self_time("validate", SERVE + SHARD)

    m["service.submit_s"] = t.self_time("service", SERVE)
    batch = t.histogram("serve.batch_size", SERVE)
    m["service.batch_size"] = _ratio(batch["total"], batch["count"])
    m["service.queue_wait_p50_ms"] = 1000.0 * t.quantile("serve.queue_wait_seconds", SERVE, 0.5)
    m["service.latency_p99_ms"] = 1000.0 * t.quantile("serve.latency_seconds", SERVE, 0.99)
    m["service.latency_samples"] = t.histogram("serve.latency_seconds", SERVE)["count"]

    m["shard.submit_s"] = t.self_time("shard", SHARD, "ShardedPredictionService.submit")
    batch = t.histogram("serve.batch_size", SHARD)
    m["shard.batch_size"] = _ratio(batch["total"], batch["count"])
    m["shard.queue_wait_p50_ms"] = 1000.0 * t.quantile("serve.queue_wait_seconds", SHARD, 0.5)
    m["shard.latency_p99_ms"] = 1000.0 * t.quantile("serve.latency_seconds", SHARD, 0.99)
    m["shard.latency_samples"] = t.histogram("serve.latency_seconds", SHARD)["count"]
    m["shard.start_s"] = t.self_time("shard", SHARD, "ShardedPredictionService.start")
    m["shard.redispatched"] = t.counter("serve.redispatched", SHARD)

    observe_s = t.self_time("monitor", SHARD, "DriftMonitor.observe")
    m["monitor.observe_s"] = observe_s
    m["monitor.fold_s"] = t.self_time("monitor", SHARD) - observe_s
    rows = m["monitor.rows"] = t.counter("serve.drift.rows", SHARD)
    dropped = t.counter("serve.drift.dropped", SHARD)
    m["monitor.dropped_ratio"] = _ratio(dropped, rows + dropped)
    m["monitor.alerts"] = t.counter("serve.drift.alerts", SHARD)

    m["fit.uncovered_share"] = t.uncovered("fit")
    for name in UNITS:
        if name in extra:
            m[name] = extra[name]
    missing = [name for name in UNITS if name not in m]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return {name: float(m[name]) for name in UNITS}


def exact_metrics(serial_fit: bool) -> list[str]:
    return list(EXACT) + (list(EXACT_IF_SERIAL) if serial_fit else [])


def table_violations(workload: str, metrics: dict) -> list[str]:
    """Layers that read zero where the table says they fire, or the reverse."""
    bad = [f"{name} is 0 but should fire" for name in sorted(ACTIVE.get(workload, ()))
           if not metrics.get(name)]
    bad += [f"{name} is {metrics.get(name)} but should be idle"
            for name in sorted(IDLE.get(workload, ())) if metrics.get(name)]
    return bad
