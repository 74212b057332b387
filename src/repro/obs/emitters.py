"""Render collected spans and metrics for humans and machines.

Two formats:

* :func:`format_tree` — an indented wall-time tree for terminals.
  Same-named siblings are aggregated into one ``name ×N`` line (a
  DIRECT search opens the same ``evaluate`` span dozens of times;
  per-occurrence lines would drown the signal).
* :func:`write_jsonl` / :func:`span_records` — JSON-lines, one object
  per span (pre-order, with ``depth``/``parent``) and one per metric
  instrument, for per-commit CI artifacts and offline analysis.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from .metrics import MetricsRegistry
from .tracer import Span, Tracer

__all__ = ["format_tree", "span_records", "span_subtree", "write_jsonl"]


class _Aggregate:
    """Same-named sibling spans folded into one display row."""

    __slots__ = ("name", "count", "total", "counters", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.counters: dict[str, float] = {}
        self.children: list[Span] = []


def _aggregate_siblings(spans: Sequence[Span]) -> list[_Aggregate]:
    groups: dict[str, _Aggregate] = {}
    for span in spans:
        agg = groups.get(span.name)
        if agg is None:
            agg = groups[span.name] = _Aggregate(span.name)
        agg.count += 1
        agg.total += span.duration
        for key, value in span.counters.items():
            agg.counters[key] = agg.counters.get(key, 0) + value
        agg.children.extend(span.children)
    return list(groups.values())


def _format_counters(counters: dict) -> str:
    if not counters:
        return ""
    parts = []
    for key in sorted(counters):
        value = counters[key]
        text = f"{value:g}" if isinstance(value, float) else str(value)
        parts.append(f"{key}={text}")
    return "  [" + " ".join(parts) + "]"


def _tree_lines(spans: Sequence[Span], indent: int, lines: list[str]) -> None:
    for agg in _aggregate_siblings(spans):
        label = agg.name if agg.count == 1 else f"{agg.name} ×{agg.count}"
        pad = "  " * indent
        lines.append(
            f"{pad}{label:<{max(1, 36 - len(pad))}} {agg.total:9.3f}s"
            + _format_counters(agg.counters)
        )
        _tree_lines(agg.children, indent + 1, lines)


def format_tree(tracer: Tracer) -> str:
    """Human-readable span tree with per-stage wall times."""
    if not tracer.roots:
        return "(no spans recorded)"
    lines: list[str] = []
    _tree_lines(list(tracer.roots), 0, lines)
    return "\n".join(lines)


def span_records(tracer: Tracer) -> Iterable[dict]:
    """Flat pre-order span records (``depth``/``parent`` keep the tree)."""
    for root in tracer.roots:
        yield from span_subtree(root)


def span_subtree(root: Span) -> list[dict]:
    """Pre-order records for one span and its descendants.

    Same shape as :func:`span_records` but rooted at a single span —
    the serve flight recorder uses this to attach a request's
    ``serve.batch`` subtree to its flight entry.
    """
    records = []
    path: list[str] = []  # names from the root down to the parent
    for span, depth in root.walk():
        del path[depth:]
        record = {
            "type": "span",
            "name": span.name,
            "start": span.start,
            "duration": span.duration,
            "depth": depth,
            "parent": path[-1] if path else None,
        }
        path.append(span.name)
        if span.counters:
            record["counters"] = dict(span.counters)
        if span.meta:
            record["meta"] = {k: _jsonable(v) for k, v in span.meta.items()}
        records.append(record)
    return records


def _jsonable(value):
    try:
        json.dumps(value)
        return value
    except TypeError:
        return repr(value)


def write_jsonl(
    path: str | Path,
    *,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    meta: dict | None = None,
) -> Path:
    """Write spans and metric instruments to ``path`` as JSON lines.

    The first line is always a ``meta`` record carrying the span and
    instrument counts (plus any caller ``meta``), so even a run that
    recorded nothing — disabled tracer, empty registry — produces a
    valid, self-describing document instead of an empty file.
    """
    path = Path(path)
    spans: list[dict] = []
    if tracer is not None and tracer.enabled:
        spans = list(span_records(tracer))
    instruments = metrics.records() if metrics is not None else []
    header = {"type": "meta", "spans": len(spans), "instruments": len(instruments)}
    if meta:
        header.update(meta)
    with path.open("w", encoding="utf-8") as handle:
        for record in [header, *spans, *instruments]:
            handle.write(json.dumps(record) + "\n")
    return path
