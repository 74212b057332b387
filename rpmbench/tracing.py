"""Outside-in span recording for the benchmark's traced pass.

The program's own tracer (``repro.obs``) stays off. Instead, for the
traced pass only, each layer's public functions are replaced by thin
wrappers that record one :class:`Span` per call, installed wherever
callers look the name up (a function imported by name into another
module is patched there too). :func:`install` returns the patches and
:func:`uninstall` puts every original back and checks it by identity,
so the untraced pass that precedes it ran the unmodified program.

Spans live in memory and are written out as JSON lines at the end.
Each span records its id, parent, name, layer, start, end, thread and
root; a *root* is one benchmark phase (``fit``, ``predict``, ``setup``,
``serve``, ``shard``) opened with :meth:`Recorder.root`, which also takes the
``repro.obs.registry()`` delta over the phase. Spans opened on a thread
with nothing open (the serving batcher, for one) take the
current root as their parent; spans on executor worker threads take the
``map`` span that dispatched them as their parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class Span:
    """One recorded call (or one benchmark phase, for roots)."""

    __slots__ = ("id", "parent", "name", "layer", "start", "end", "thread", "root", "count")

    def as_record(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Recorder:
    """In-memory span store with per-thread open-span stacks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``(root span, kind, registry delta)`` per finished phase.
        self.roots: list[tuple[Span, str, dict]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.thread = threading.current_thread().name
        return stack

    def open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        span = Span()
        span.id = next(self._ids)
        span.layer = layer
        span.name = name
        span.thread = self._local.thread
        span.count = None
        if stack:
            span.parent = stack[-1].id
            span.root = stack[-1].root
        else:
            root = self._root
            span.parent = span.root = None if root is None else root.id
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def adopt(self, span: Span):
        """Make ``span`` the parent of spans opened on this thread."""
        stack = self._stack()
        stack.append(span)
        try:
            yield
        finally:
            stack.pop()

    @contextlib.contextmanager
    def root(self, kind: str, label: str):
        """One benchmark phase: a root span plus its registry delta."""
        from repro.obs.metrics import registry

        span = self.open("root", label)
        span.parent = None
        span.root = span.id
        self._root = span
        baseline = registry().snapshot()
        try:
            yield span
        finally:
            delta = registry().delta(baseline)
            self._root = None
            self.close(span)
            self.roots.append((span, kind, delta))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps(span.as_record()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its same-thread children.

    Spans on one thread nest strictly, so a span's direct same-thread
    children are disjoint and their union is their sum.
    """
    by_id = {span.id: span for span in spans}
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.thread == span.thread and parent is not span:
            covered[parent.id] += span.end - span.start
    return {span.id: (span.end - span.start) - covered[span.id] for span in spans}


# -- wrappers ------------------------------------------------------------------


@dataclass(frozen=True)
class Boundary:
    """One wrapped public function or method of a program layer.

    ``target`` is ``"func"`` or ``"Class.method"`` in ``module``; the
    wrapper is also installed in every module of ``importers`` (for
    functions imported there by name). ``count(args, kwargs, result)``
    records a work count on the span.
    """

    layer: str
    module: str
    target: str
    importers: tuple[str, ...] = ()
    count: Callable | None = None
    kind: str = "call"  # "call", or "map" for executor fan-out


def _call_wrapper(recorder: Recorder, boundary: Boundary, fn):
    layer, name, count = boundary.layer, boundary.target, boundary.count

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if count is not None:
            span.count = count(args, kwargs, result)
        return result

    return traced


def _map_wrapper(recorder: Recorder, boundary: Boundary, fn):
    """``ParallelExecutor.map``: pooled maps only; workers adopt the span."""
    layer, name = boundary.layer, boundary.target

    @functools.wraps(fn)
    def traced(self, func, items):
        if self.backend == "serial":
            return fn(self, func, items)
        items = list(items)
        span = recorder.open(layer, name)
        if self.backend == "thread":

            def adopted(item, _func=func, _span=span):
                with recorder.adopt(_span):
                    return _func(item)

            mapped = adopted
        else:
            mapped = func
        try:
            return fn(self, mapped, items)
        finally:
            recorder.close(span)
            span.count = len(items)

    return traced


def _sites(boundary: Boundary) -> tuple[list, str]:
    """Every object whose attribute ``attr`` callers look the target up in."""
    module = importlib.import_module(boundary.module)
    if "." in boundary.target:
        cls_name, attr = boundary.target.split(".", 1)
        return [getattr(module, cls_name)], attr
    return [module] + [importlib.import_module(m) for m in boundary.importers], boundary.target


def site_label(place, attr: str) -> str:
    if isinstance(place, type):
        return f"{place.__module__}.{place.__qualname__}.{attr}"
    return f"{place.__name__}.{attr}"


def install(recorder: Recorder, boundaries) -> list:
    """Replace every boundary with a recording wrapper.

    Returns the patches, ``(place, attribute, original)``, for
    :func:`uninstall`.
    """
    patches: list = []
    try:
        for boundary in boundaries:
            places, attr = _sites(boundary)
            original = vars(places[0])[attr]
            make = _map_wrapper if boundary.kind == "map" else _call_wrapper
            for place in places:
                if vars(place)[attr] is not original:
                    raise RuntimeError(
                        f"{site_label(place, attr)} is not the function defined in "
                        f"{boundary.module}; refusing to wrap it"
                    )
                setattr(place, attr, make(recorder, boundary, original))
                patches.append((place, attr, original))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: list) -> None:
    """Restore every original and check each by identity."""
    for place, attr, original in reversed(patches):
        setattr(place, attr, original)
    survivors = [
        site_label(place, attr)
        for place, attr, original in patches
        if vars(place)[attr] is not original
    ]
    patches.clear()
    if survivors:
        raise RuntimeError(f"wrappers survived uninstall: {survivors}")


def snapshot_sites(boundaries) -> dict[str, object]:
    """``site label -> current object`` for every patch site."""
    return {
        site_label(place, attr): vars(place)[attr]
        for boundary in boundaries
        for places, attr in [_sites(boundary)]
        for place in places
    }
