"""Nestable wall-time spans over the RPM pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects — one per
pipeline stage (``fit`` → ``params`` / ``mine`` / ``select`` →
``discretize`` / ``grammar`` / ``refine`` / ``transform`` …). Spans
carry the stage name, wall time, free-form metadata and a small counter
dict, and nest through a per-thread stack: a span opened while another
is active on the same thread becomes its child, and a span opened on a
thread with nothing open (a serving batcher, say) becomes a root.

Nothing takes a tracer: :func:`span` opens a span on the *active*
tracer, a context variable that :func:`tracing` sets for a ``with``
block. Its default, also in every new thread, is :data:`NOOP`, a
stateless singleton whose ``span()`` returns one shared no-op context
manager — no allocation. The serving tiers start their batcher and
backlog threads in a copy of the starting context, so they record into
the tracer that was active at ``start()``. Tracing never touches the
numeric pipeline: spans wrap computations, they do not reorder or alter
them, so traced runs stay bitwise identical to untraced ones.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = ["NOOP", "NullTracer", "Span", "Tracer", "active_tracer", "span", "tracing"]


class Span:
    """One timed stage: name, wall time, counters and children."""

    # No parent pointer: a span tree holds no reference cycle, so a
    # served batch's spans are freed by reference counting, not by the
    # cyclic garbage collector. Walks track the parent themselves.
    __slots__ = ("name", "meta", "start", "duration", "children", "counters")

    def __init__(self, name: str, meta: dict | None = None):
        self.name = name
        self.meta = meta or {}
        self.start = 0.0
        self.duration = 0.0
        self.children: list[Span] = []
        self.counters: dict[str, float] = {}

    def add(self, counter: str, amount: float = 1) -> None:
        """Bump a span-local counter (shown next to the span's time)."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def annotate(self, **meta) -> None:
        """Attach free-form metadata to the span."""
        self.meta.update(meta)

    def walk(self, depth: int = 0):
        """Yield ``(span, depth)`` over the subtree, pre-order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration:.3f}s, {len(self.children)} children)"


class _SpanHandle:
    """Context manager tying one span's lifetime to a ``with`` block."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._open(self._span)
        self._span.start = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.duration = time.perf_counter() - self._span.start
        if exc_type is not None:
            self._span.meta.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects a forest of spans; safe to use from multiple threads.

    Structure mutations (attaching a span to its parent or to the root
    list) take a lock, because serving threads open root spans on a
    shared tracer concurrently. The per-thread open-span stack itself
    is ``threading.local`` and needs no locking.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- structure ------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, span: Span) -> None:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
        stack.append(span)

    def _close(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- public API -----------------------------------------------------------

    def span(self, name: str, **meta) -> _SpanHandle:
        """Open a named child span for the duration of a ``with`` block."""
        return _SpanHandle(self, Span(name, meta or None))


class _NullSpan:
    """Inert span returned by the disabled tracer."""

    __slots__ = ()
    name = "<null>"
    meta: dict = {}
    start = 0.0
    duration = 0.0
    children: tuple = ()
    counters: dict = {}

    def add(self, counter: str, amount: float = 1) -> None:
        pass

    def annotate(self, **meta) -> None:
        pass

    def walk(self, depth: int = 0):
        return iter(())


class _NullHandle:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_HANDLE = _NullHandle()


class NullTracer:
    """Disabled tracer: every operation returns a shared no-op object.

    Stateless and allocation-free on the ``span()`` path — the
    zero-cost default.
    """

    enabled = False
    roots: tuple = ()

    def span(self, name: str, **meta) -> _NullHandle:
        return _NULL_HANDLE


#: The shared disabled tracer, active wherever :func:`tracing` set none.
NOOP = NullTracer()

_ACTIVE: ContextVar["Tracer | NullTracer"] = ContextVar("repro_active_tracer", default=NOOP)


def active_tracer() -> "Tracer | NullTracer":
    """The tracer :func:`span` records into in the current context."""
    return _ACTIVE.get()


def span(name: str, **meta):
    """Open a named span on the active tracer for a ``with`` block."""
    return _ACTIVE.get().span(name, **meta)


@contextmanager
def tracing(tracer: "Tracer | NullTracer"):
    """Make ``tracer`` the active tracer inside the ``with`` block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)
