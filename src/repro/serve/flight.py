"""What runs after a request resolved: the flight recorder and the
off-path backlog thread.

Counters and quantiles answer *"how is the service doing?"*; the flight
recorder answers *"what happened to this request?"*. It keeps the last
``capacity`` slow, timed-out, invalid or errored requests — each with
its request ID, batch ID, queue wait, deadline slack and the
``serve.batch`` span subtree it rode in — in a thread-safe
:class:`collections.deque` ring, so a long-running service retains
recent evidence at fixed memory cost while the steady stream of healthy
requests passes through unrecorded.

``GET /debug/requests`` on the admin endpoint serves this buffer;
``?id=req-N`` looks one entry up by the request ID that came back in
the :class:`~repro.serve.types.PredictionResult`.

:class:`BacklogThread` is the one bounded backlog + drain thread under
the shadow scorer and the drift monitor: the serving tier hands them
answered requests, and they do their work on their own thread.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry, registry

__all__ = ["BacklogThread", "FlightRecord", "FlightRecorder"]


@dataclass
class FlightRecord:
    """One captured request: correlation IDs, timings and its spans."""

    request_id: str
    status: str
    reason: str
    batch_id: int | None = None
    #: Shard that carried the request (``None`` on single-process tiers
    #: and for requests rejected before routing).
    shard: int | None = None
    queue_wait_ms: float = 0.0
    latency_ms: float = 0.0
    #: Milliseconds of deadline left at completion (negative = missed);
    #: ``None`` when the request carried no deadline.
    deadline_slack_ms: float | None = None
    error_code: str | None = None
    error_message: str | None = None
    #: Wall-clock capture time (``time.time()``), for operators.
    recorded_at: float = field(default_factory=time.time)
    #: The ``serve.batch`` span subtree, as emitter records.
    spans: list = field(default_factory=list)

    def as_record(self) -> dict:
        record = {
            "request_id": self.request_id,
            "status": self.status,
            "reason": self.reason,
            "batch_id": self.batch_id,
            "shard": self.shard,
            "queue_wait_ms": round(self.queue_wait_ms, 3),
            "latency_ms": round(self.latency_ms, 3),
            "deadline_slack_ms": (
                None
                if self.deadline_slack_ms is None
                else round(self.deadline_slack_ms, 3)
            ),
            "recorded_at": self.recorded_at,
        }
        if self.error_code:
            record["error_code"] = self.error_code
        if self.error_message:
            record["error_message"] = self.error_message
        if self.spans:
            record["spans"] = self.spans
        return record


class FlightRecorder:
    """Thread-safe bounded ring buffer of :class:`FlightRecord` entries.

    ``capacity`` bounds memory: when full, recording the next entry
    evicts the oldest (FIFO). ``capacity=0`` disables recording
    entirely — :meth:`record` becomes a no-op, which is how a service
    opts out of the (small) per-batch capture cost.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._entries: deque[FlightRecord] = deque(maxlen=self.capacity or None)
        self._lock = threading.Lock()
        self._recorded = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def record(self, entry: FlightRecord) -> None:
        """Append one entry, evicting the oldest when full."""
        if not self.enabled:
            return
        with self._lock:
            self._entries.append(entry)
            self._recorded += 1

    def records(
        self, *, limit: int | None = None, reason: str | None = None
    ) -> list[dict]:
        """Entries as plain dicts, newest first.

        ``reason`` keeps only entries captured for that reason
        (``slow``/``timeout``/``error``/``late``/``invalid``/
        ``overload``/``shadow-disagree``/``drift``); the limit applies
        after filtering, so ``limit=5, reason="drift"`` is the five
        newest drift entries, not five entries that may contain none.
        """
        with self._lock:
            entries = list(self._entries)
        entries.reverse()
        if reason is not None:
            entries = [entry for entry in entries if entry.reason == reason]
        if limit is not None:
            entries = entries[: max(0, limit)]
        return [entry.as_record() for entry in entries]

    def find(self, request_id: str) -> FlightRecord | None:
        """The retained entry for ``request_id``, or ``None``."""
        with self._lock:
            for entry in reversed(self._entries):
                if entry.request_id == request_id:
                    return entry
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_recorded(self) -> int:
        """Entries ever recorded, including those since evicted."""
        with self._lock:
            return self._recorded

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class BacklogThread:
    """A bounded backlog drained off the request path by one daemon thread.

    The serving tier hands work over *after* the request's future
    resolved: :meth:`_enqueue` is an O(1) append, and a full backlog
    drops the item and counts it in :attr:`dropped_metric` — the hook
    never applies backpressure to serving. The thread takes up to
    ``batch`` items at a time and passes them to :meth:`_consume`,
    which subclasses implement (:class:`~repro.serve.lifecycle.ShadowScorer`,
    :class:`~repro.serve.monitor.DriftMonitor`). The thread runs in a
    copy of the context that called :meth:`start`, so its spans go to
    the tracer active there. ``_lock`` guards the backlog; subclasses
    may guard their own counters with it too.
    """

    #: Name of the drain thread (set by each subclass).
    thread_name: str
    #: Counter bumped once per item dropped on a full backlog (set by
    #: each subclass).
    dropped_metric: str

    def __init__(
        self, *, max_backlog: int, batch: int, metrics: MetricsRegistry | None
    ) -> None:
        if max_backlog < 1:
            raise ValueError(f"max_backlog must be >= 1, got {max_backlog}")
        self.metrics = metrics if metrics is not None else registry()
        self._batch = int(batch)
        self._backlog: deque = deque(maxlen=max_backlog)
        self._dropped = 0
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self):
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=contextvars.copy_context().run,
            args=(self._loop,),
            name=self.thread_name,
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop the drain thread (draining the backlog by default)."""
        if self._thread is None:
            return
        if drain:
            deadline = time.monotonic() + 10.0
            while self._backlog and time.monotonic() < deadline:
                self._wake.set()
                time.sleep(0.005)
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=10.0)
        self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _enqueue(self, item) -> None:
        """Append one item, or drop and count it when the backlog is full."""
        with self._lock:
            if len(self._backlog) == self._backlog.maxlen:
                self._dropped += 1
                self.metrics.inc(self.dropped_metric)
                return
            self._backlog.append(item)
        self._wake.set()

    def _loop(self) -> None:
        while not self._stop.is_set():
            batch = self._take()
            if not batch:
                self._wake.wait(0.01)
                self._wake.clear()
                continue
            self._consume(batch)
        # Final sweep so a stop() right after an offer loses nothing.
        batch = self._take()
        if batch:
            self._consume(batch)

    def _take(self) -> list:
        with self._lock:
            take = min(len(self._backlog), self._batch)
            return [self._backlog.popleft() for _ in range(take)]

    def _consume(self, batch: list) -> None:
        raise NotImplementedError
