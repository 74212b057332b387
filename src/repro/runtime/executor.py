"""A small, deterministic parallel-map abstraction.

:class:`ParallelExecutor` runs one ordered ``map`` either as a plain
loop or over a thread pool. Work is submitted in contiguous chunks and
results are always returned in input order, so callers are
bitwise-indistinguishable from the serial loop. The pattern bank's
length buckets are its only fan-out: NumPy's mat-vec, FFT and cumsum
kernels release the GIL, and nothing is pickled.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

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


class ParallelExecutor:
    """Ordered, chunked ``map`` over a plain loop or a thread pool.

    Parameters
    ----------
    n_jobs:
        Worker threads; ``-1`` uses every CPU, ``None``/``0``/``1`` run
        serially. :attr:`backend` reads ``'serial'`` or ``'thread'``
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

    Work is spread into roughly four chunks per worker, which balances
    load without drowning the pool in tiny tasks. The pool is created
    lazily on first use and torn down by :meth:`close` (or the
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
            self._pool = ThreadPoolExecutor(max_workers=self.n_jobs)
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
        size = max(1, -(-len(items) // (self.n_jobs * 4)))
        return [items[i : i + size] for i in range(0, len(items), size)]

    def map(self, fn, items) -> list:
        """Apply ``fn`` to every item; results in input order.

        Exceptions raised by ``fn`` propagate to the caller, exactly as
        in the serial loop.

        Single-item fast path: without metrics, a thread executor still
        runs one lone item inline (no scheduling round-trip for work
        that cannot be parallelized anyway). With metrics enabled the
        item goes through the pool, so every ``executor.chunk_seconds``
        observation of a thread executor is measured on a pool thread.
        """
        items = list(items)
        if not items:
            return []
        if self.backend == "serial" or (len(items) <= 1 and self.metrics is None):
            if self.metrics is None:
                return [fn(item) for item in items]
            elapsed, out = _timed_apply_chunk(fn, items)
            self._record_chunk(elapsed, len(items))
            return out
        pool = self._ensure_pool()
        chunks = self._chunks(items)
        if self.metrics is None:
            futures = [pool.submit(_apply_chunk, fn, chunk) for chunk in chunks]
            return [result for future in futures for result in future.result()]
        futures = [pool.submit(_timed_apply_chunk, fn, chunk) for chunk in chunks]
        out: list = []
        for future, chunk in zip(futures, chunks):
            elapsed, results = future.result()
            self._record_chunk(elapsed, len(chunk))
            out.extend(results)
        return out

    def _record_chunk(self, elapsed: float, n_items: int) -> None:
        self.metrics.observe("executor.chunk_seconds", elapsed)
        self.metrics.inc("executor.chunks")
        self.metrics.inc("executor.items", n_items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(n_jobs={self.n_jobs}, backend={self.backend!r})"
