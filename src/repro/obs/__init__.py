"""repro.obs — pipeline observability: spans, metrics, emitters.

Wired through every expensive stage of the RPM pipeline and the
serving tiers (see ``docs/observability.md`` for the span and metric
catalogue):

* :class:`Tracer` / :data:`NOOP` / :func:`tracing` — nestable
  wall-time spans, recorded on the tracer that :func:`tracing` makes
  active; zero-cost when none is;
* :class:`MetricsRegistry` / :func:`registry` — process-wide counters,
  gauges and quantile-capable histograms (cache hits, dropped
  candidates, executor chunk timings, …), with snapshot/delta diffing
  and :func:`scoped_registry` isolation;
* :func:`format_tree` / :func:`write_jsonl` — human tree and
  JSON-lines emitters;
* :func:`to_prometheus` / :func:`to_json` — live export formats (the
  serve admin endpoint's ``/metrics`` and ``/metrics.json``);
* :func:`configure_logging` / :class:`JsonLogFormatter` — structured
  JSON log lines with request-ID correlation;
* the streaming sketches behind drift monitoring
  (:class:`DistributionSketch`, :func:`psi`, …).

Typical use::

    from repro import RPMClassifier
    from repro.obs import Tracer, format_tree, registry, tracing, write_jsonl

    tracer = Tracer()
    with tracing(tracer):
        clf = RPMClassifier(seed=0).fit(X, y)
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
    "scoped_registry",
    "snapshot_from_jsonl",
    "span_records",
    "span_subtree",
    "to_json",
    "to_prometheus",
    "tracing",
    "write_jsonl",
]
