"""A small, deterministic parallel-map abstraction.

:class:`ParallelExecutor` runs one ordered ``map`` either as a plain
loop or on the calling thread plus a thread pool. Work is split into
contiguous chunks and results are always returned in input order, so
callers are bitwise-indistinguishable from the serial loop. The
pattern bank's length buckets are its only fan-out: NumPy's mat-vec,
FFT and cumsum kernels release the GIL, and nothing is pickled.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ThreadPoolExecutor

from ..obs.metrics import MetricsRegistry

__all__ = ["ParallelExecutor", "resolve_n_jobs"]


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request to a concrete worker count.

    ``None``, ``0`` and ``1`` mean serial; ``-1`` means one worker per
    available CPU; any other negative value is rejected.
    """
    if n_jobs is None or n_jobs == 0:
        return 1
    if n_jobs == -1:
        return max(1, os.cpu_count() or 1)
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= -1, got {n_jobs}")
    return int(n_jobs)


def _apply_chunk(fn, chunk):
    return [fn(item) for item in chunk]


def _timed_apply_chunk(fn, chunk):
    """Chunk runner that also reports its own wall time, measured on
    the thread that ran the chunk."""
    t0 = time.perf_counter()
    out = [fn(item) for item in chunk]
    return time.perf_counter() - t0, out


def _run_here(run, fn, chunk) -> Future:
    """``run(fn, chunk)`` on the calling thread, as a finished future."""
    future: Future = Future()
    try:
        future.set_result(run(fn, chunk))
    except Exception as exc:
        future.set_exception(exc)
    return future


class ParallelExecutor:
    """Ordered, chunked ``map`` over a plain loop or the caller and a pool.

    Parameters
    ----------
    n_jobs:
        Threads that run a map, the calling thread included: the pool
        holds ``n_jobs − 1``. ``-1`` uses every CPU, ``None``/``0``/``1``
        run serially. :attr:`backend` reads ``'serial'`` or ``'thread'``
        accordingly.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`. When set,
        every mapped chunk reports its wall time (measured on the
        thread that ran it) into the ``executor.chunk_seconds``
        histogram — exported with p50/p95/p99 quantiles, so chunk-size
        skew shows up directly in ``rpm metrics`` / Prometheus scrapes
        — plus ``executor.chunks`` / ``executor.items`` counters.
        ``None`` (default) keeps the map path free of any
        instrumentation.

    Work is spread into roughly four chunks per thread, which balances
    load without drowning the pool in tiny tasks. The caller runs the
    first chunk and every chunk no pool thread has started, so it works
    instead of waiting. The pool is created lazily by the first map of
    more than one chunk and torn down by :meth:`close` (or the
    context-manager exit).
    """

    def __init__(
        self, n_jobs: int | None = 1, *, metrics: MetricsRegistry | None = None
    ) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.backend = "serial" if self.n_jobs == 1 else "thread"
        self.metrics = metrics
        self._pool: ThreadPoolExecutor | None = None

    # -- lifecycle ------------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.n_jobs - 1)
        return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- mapping --------------------------------------------------------------

    def _chunks(self, items: list) -> list[list]:
        if self.n_jobs == 1:
            return [items]
        size = max(1, -(-len(items) // (self.n_jobs * 4)))
        return [items[i : i + size] for i in range(0, len(items), size)]

    def map(self, fn, items) -> list:
        """Apply ``fn`` to every item; results in input order.

        The calling thread runs the first chunk itself while the pool's
        ``n_jobs − 1`` threads start on the rest; then it runs every
        chunk no pool thread has started yet. A map of one chunk opens
        no pool. Exceptions raised by ``fn`` propagate to the caller,
        exactly as in the serial loop: the first failing chunk in input
        order raises.
        """
        items = list(items)
        if not items:
            return []
        run = _apply_chunk if self.metrics is None else _timed_apply_chunk
        chunks = self._chunks(items)
        futures = [self._ensure_pool().submit(run, fn, chunk) for chunk in chunks[1:]]
        first = run(fn, chunks[0])
        # A chunk whose future cancels has not started: run it here.
        futures = [
            _run_here(run, fn, chunk) if future.cancel() else future
            for chunk, future in zip(chunks[1:], futures)
        ]
        done = [first] + [future.result() for future in futures]
        if self.metrics is None:
            return [result for results in done for result in results]
        out: list = []
        for chunk, (elapsed, results) in zip(chunks, done):
            self._record_chunk(elapsed, len(chunk))
            out.extend(results)
        return out

    def _record_chunk(self, elapsed: float, n_items: int) -> None:
        self.metrics.observe("executor.chunk_seconds", elapsed)
        self.metrics.inc("executor.chunks")
        self.metrics.inc("executor.items", n_items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(n_jobs={self.n_jobs}, backend={self.backend!r})"
