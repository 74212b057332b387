"""repro.obs — pipeline observability: spans, metrics, emitters.

Three small pieces, wired through every expensive stage of the RPM
pipeline (see ``docs/observability.md`` for the span and metric
catalogue):

* :class:`Tracer` / :data:`NOOP` / :func:`tracing` — nestable
  wall-time spans on the active tracer, zero-cost when disabled;
* :class:`MetricsRegistry` / :func:`registry` — process-wide counters,
  gauges and quantile-capable histograms (cache hits, dropped
  candidates, executor chunk timings, …), with snapshot/delta diffing
  and :func:`scoped_registry` isolation;
* :func:`format_tree` / :func:`write_jsonl` — human tree and
  JSON-lines emitters;
* :func:`to_prometheus` / :func:`to_json` — live export formats (the
  serve admin endpoint's ``/metrics`` and ``/metrics.json``);
* :func:`configure_logging` / :class:`JsonLogFormatter` — structured
  JSON log lines with request-ID correlation.

Typical use::

    from repro import RPMClassifier
    from repro.obs import Tracer, format_tree, registry, write_jsonl

    tracer = Tracer()
    clf = RPMClassifier(seed=0, trace=tracer).fit(X, y)
    print(format_tree(tracer))
    write_jsonl("metrics.jsonl", tracer=tracer, metrics=registry())
"""

from .emitters import format_tree, span_records, span_subtree, write_jsonl
from .export import (
    PROMETHEUS_CONTENT_TYPE,
    snapshot_from_jsonl,
    to_json,
    to_prometheus,
)
from .logging import JsonLogFormatter, configure_logging
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
    scoped_registry,
)
from .sketch import (
    DecayingSketch,
    DistributionSketch,
    ReferenceDistribution,
    ks_distance,
    psi,
)
from .tracer import NOOP, NullTracer, Span, Tracer, tracing

__all__ = [
    "NOOP",
    "PROMETHEUS_CONTENT_TYPE",
    "Counter",
    "DecayingSketch",
    "DistributionSketch",
    "Gauge",
    "Histogram",
    "JsonLogFormatter",
    "MetricsRegistry",
    "NullTracer",
    "ReferenceDistribution",
    "Span",
    "Tracer",
    "configure_logging",
    "format_tree",
    "ks_distance",
    "psi",
    "registry",
    "resolve_tracer",
    "scoped_registry",
    "snapshot_from_jsonl",
    "span_records",
    "span_subtree",
    "to_json",
    "to_prometheus",
    "tracing",
    "write_jsonl",
]


def resolve_tracer(trace) -> "Tracer | NullTracer":
    """Normalize the public ``trace=`` knob to a tracer instance.

    ``None``/``False`` → the shared no-op, ``True`` → a fresh
    :class:`Tracer`, an existing tracer → itself.
    """
    if trace is None or trace is False:
        return NOOP
    if trace is True:
        return Tracer()
    if isinstance(trace, (Tracer, NullTracer)):
        return trace
    raise TypeError(f"trace must be a bool, None or a Tracer, got {type(trace).__name__}")
