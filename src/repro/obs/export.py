"""Export a :class:`MetricsRegistry` for live scraping.

Two wire formats over the same snapshot:

* :func:`to_prometheus` — Prometheus text exposition (format 0.0.4).
  Dotted metric names become underscore names (``serve.requests`` →
  ``serve_requests_total``), counters gain the conventional ``_total``
  suffix, and histograms are rendered as *summaries*: one
  ``{quantile="…"}`` sample per surfaced quantile plus ``_sum`` and
  ``_count``. This is what ``GET /metrics`` on the serve admin
  endpoint returns.
* :func:`to_json` — the registry snapshot as one JSON document
  (quantiles included), for dashboards and the ``rpm metrics``
  subcommand. ``GET /metrics.json`` returns this.

Both accept either a live registry or a plain snapshot dict (from
:meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.delta`), so
diffs export exactly like live state. Empty registries still produce
valid documents: a comment-only Prometheus page and a JSON object with
empty sections.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .metrics import Histogram, MetricsRegistry

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "snapshot_from_jsonl",
    "to_json",
    "to_prometheus",
]

#: The Content-Type a Prometheus scraper expects from /metrics.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_START = re.compile(r"^[^a-zA-Z_:]")

#: Help text for the catalogued metrics (docs/observability.md).
_HELP = {
    "cache.hits": "Sliding-window statistics cache hits.",
    "cache.misses": "Sliding-window statistics cache misses.",
    "cache.evictions": "Sliding-window statistics cache LRU evictions.",
    "executor.chunks": "Chunks mapped by the parallel executor.",
    "executor.items": "Items mapped by the parallel executor.",
    "executor.chunk_seconds": "Per-chunk wall time, measured on the mapping thread.",
    "serve.requests": "Prediction requests submitted (including invalid).",
    "serve.invalid": "Requests rejected by input validation.",
    "serve.batches": "Micro-batches run through the compiled model.",
    "serve.deadline_misses": "Requests timed out or delivered late.",
    "serve.errors": "Requests failed by a mid-batch model error.",
    "serve.batch_size": "Requests coalesced per model call.",
    "serve.queue_wait_seconds": "Submit-to-batch-pickup wait.",
    "serve.latency_seconds": "Submit-to-result latency per request.",
    "serve.queue_depth": "Requests currently queued.",
    "serve.overload": "Requests shed by admission control.",
    "serve.worker_recycles": "Graceful shard worker recycles.",
    "serve.worker_deaths": "Shard workers found dead and respawned.",
    "serve.redispatched": "Accepted requests re-dispatched after a worker loss.",
    "serve.drift.score": "Aggregate drift score: max per-column PSI of the "
    "recent window vs. the training reference.",
    "serve.drift.score_mean": "Mean per-column PSI of the recent window vs. "
    "the training reference (breadth of the shift).",
    "serve.drift.psi": "Per-feature-column PSI vs. the training reference.",
    "serve.drift.input_psi": "Input-statistic PSI (mean/std/length) vs. the "
    "training reference.",
    "serve.drift.best_match_rate": "Recent-window fraction of rows whose "
    "closest pattern is this one.",
    "serve.drift.alert": "1 while the drift score exceeds the alert threshold.",
    "serve.drift.rows": "Feature rows folded into the live drift sketches.",
    "serve.drift.dropped": "Rows dropped by the drift monitor (full backlog "
    "or a feature width that no longer matches the reference).",
    "serve.drift.fold_errors": "Drift fold batches dropped by an unexpected "
    "error (the fold thread survives and keeps folding).",
    "serve.drift.evaluations": "Drift evaluations run (PSI + gauge export).",
    "serve.drift.alerts": "Drift alert rising edges (flight-recorded).",
}

_LABELED = re.compile(r"^(?P<base>[^\[\]]+)\[(?P<labels>[^\[\]]+)\]$")


def _split_labels(name: str) -> tuple[str, str]:
    """Split ``serve.requests[shard=0]`` into base name and label pairs.

    Registries are flat string→value maps, so dimensional series encode
    their labels in the name with a bracket suffix
    (``name[key=value,key2=value2]`` — see
    :func:`repro.serve.shard.shard_metric`). The exporter turns the
    suffix back into Prometheus labels (``{shard="0"}``); unlabeled
    names pass through with an empty label string.
    """
    match = _LABELED.match(name)
    if match is None:
        return name, ""
    pairs = []
    for part in match.group("labels").split(","):
        key, _, value = part.partition("=")
        pairs.append(f'{_metric_name(key.strip())}="{value.strip()}"')
    return match.group("base"), ",".join(pairs)


def _metric_name(name: str) -> str:
    """A dotted registry name as a valid Prometheus metric name."""
    sanitized = _INVALID_CHARS.sub("_", name)
    if _INVALID_START.match(sanitized):
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _as_snapshot(source) -> dict:
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    if isinstance(source, dict):
        return source
    raise TypeError(
        f"expected a MetricsRegistry or a snapshot dict, got {type(source).__name__}"
    )


def _header(lines: list[str], source_name: str, metric: str, kind: str) -> None:
    help_text = _HELP.get(source_name)
    if help_text:
        lines.append(f"# HELP {metric} {help_text}")
    lines.append(f"# TYPE {metric} {kind}")


def to_prometheus(source) -> str:
    """Prometheus text exposition of a registry or snapshot dict.

    Bracket-labeled registry names (``serve.requests[shard=0]``) are
    exported as labeled samples of one base metric
    (``serve_requests_total{shard="0"}``); HELP/TYPE headers are
    emitted once per base metric, before its first sample.
    """
    snap = _as_snapshot(source)
    lines: list[str] = []
    seen: set[str] = set()

    def header_once(base: str, metric: str, kind: str) -> None:
        if metric not in seen:
            seen.add(metric)
            _header(lines, base, metric, kind)

    for name in sorted(snap.get("counters", {})):
        base, labels = _split_labels(name)
        metric = _metric_name(base)
        if not metric.endswith("_total"):
            metric += "_total"
        header_once(base, metric, "counter")
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(f"{metric}{suffix} {_format_value(snap['counters'][name])}")
    for name in sorted(snap.get("gauges", {})):
        base, labels = _split_labels(name)
        metric = _metric_name(base)
        header_once(base, metric, "gauge")
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(f"{metric}{suffix} {_format_value(snap['gauges'][name])}")
    for name in sorted(snap.get("histograms", {})):
        record = snap["histograms"][name]
        base, labels = _split_labels(name)
        metric = _metric_name(base)
        header_once(base, metric, "summary")
        prefix = f"{labels}," if labels else ""
        for q in Histogram.QUANTILES:
            value = record.get(f"p{int(q * 100)}", 0.0)
            lines.append(f'{metric}{{{prefix}quantile="{q}"}} {_format_value(value)}')
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(f"{metric}_sum{suffix} {_format_value(record.get('total', 0.0))}")
        lines.append(f"{metric}_count{suffix} {_format_value(record.get('count', 0))}")
    if not lines:
        lines.append("# (no metrics recorded)")
    return "\n".join(lines) + "\n"


def to_json(source, *, meta: dict | None = None, indent: int | None = None) -> str:
    """The registry snapshot as one JSON document.

    Histogram bucket arrays are dropped (they are a diffing detail);
    the derived quantiles stay. ``meta`` keys are merged at the top
    level under ``"meta"``.
    """
    snap = _as_snapshot(source)
    histograms = {}
    for name, record in snap.get("histograms", {}).items():
        histograms[name] = {k: v for k, v in record.items() if k != "buckets"}
    document = {
        "counters": dict(snap.get("counters", {})),
        "gauges": dict(snap.get("gauges", {})),
        "histograms": histograms,
    }
    if meta:
        document["meta"] = meta
    return json.dumps(document, indent=indent, sort_keys=True)


def snapshot_from_jsonl(path: str | Path) -> dict:
    """Rebuild a snapshot-shaped dict from a ``write_jsonl`` dump.

    Only instrument records contribute; span and meta lines are
    ignored. The result feeds straight into :func:`to_prometheus` /
    :func:`to_json`, so an offline dump renders exactly like a live
    scrape.
    """
    snap: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        kind = record.get("type")
        if kind == "counter":
            snap["counters"][record["name"]] = record["value"]
        elif kind == "gauge":
            snap["gauges"][record["name"]] = record["value"]
        elif kind == "histogram":
            snap["histograms"][record["name"]] = record
    return snap
