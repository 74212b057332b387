"""LRU caches of the pipeline's repeated pre-work.

One generic :class:`LRUCache` and one content :func:`fingerprint` back
the two caches the pipeline keeps:

* :class:`WindowStatsCache` — sliding-window statistics keyed on
  ``(series-matrix fingerprint, window length)``. Repeated transforms of
  the same data (the training transform, every validation transform of
  the parameter search, every predict call on a held-out set) hit the
  cache for each distinct pattern length. Entries are whole
  :class:`~repro.runtime.kernel.SlidingWindowStats` objects, the O(n·m)
  precomputation.
* :class:`DiscretizationCache` — discretization pre-work for the SAX
  parameter search keyed on ``(series fingerprint, window_size)``.
  Algorithm 3 evaluates hundreds of SAX triples over the same
  concatenated class series, and the expensive stages depend on only a
  prefix of the triple: the z-normalized window matrix on the window
  size, the PAA reduction additionally on the PAA size. Only the
  breakpoint lookup, which is nearly free, depends on the alphabet
  size. DIRECT revisits the same window axis constantly, so caching the
  first two stages turns most of an evaluation's preprocessing into a
  hit.

Keys hold content hashes, so a mutated or different array can never
alias an entry. Both caches are thread-safe. Their sizes are fixed
module constants; ``max_entries=0`` (every call builds afresh) remains
for the equivalence tests.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from ..obs.metrics import registry
from ..sax.discretize import sliding_windows
from ..sax.paa import paa_rows
from ..sax.znorm import znorm_rows
from .kernel import SlidingWindowStats

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_DISCRETIZE_CACHE_SIZE",
    "DiscretizationCache",
    "DiscretizationEntry",
    "LRUCache",
    "WindowStatsCache",
    "default_cache",
    "fingerprint",
]

#: Window-statistics entries. Pattern lengths cluster around the
#: per-class SAX windows, so a handful of entries covers a full
#: transform.
DEFAULT_CACHE_SIZE = 16

#: Discretization entries. A parameter search touches (classes ×
#: splits) concatenated series and DIRECT keeps a short working set of
#: window sizes per series, so a few dozen entries covers a full
#: Algorithm 3 run.
DEFAULT_DISCRETIZE_CACHE_SIZE = 32


def fingerprint(values: np.ndarray) -> str:
    """Content fingerprint of an array: its float bytes and its shape.

    Hashing runs at memory bandwidth — negligible next to the work a
    cache entry saves — and makes stale hits impossible (mutated data
    hashes to a new key).
    """
    values = np.ascontiguousarray(np.asarray(values, dtype=float))
    digest = hashlib.blake2b(values.tobytes(), digest_size=16)
    digest.update(repr(values.shape).encode())
    return digest.hexdigest()


class LRUCache:
    """Thread-safe least-recently-used map from keys to built values.

    :meth:`get` returns the cached value for a key, or calls ``build()``
    and inserts the result, evicting the least recently used entry once
    more than ``max_entries`` are held (by default the cache's fixed
    ``size``). ``0`` disables caching: every call builds afresh while
    the interface stays the same.

    Counters ``hits`` / ``misses`` / ``evictions`` are kept as instance
    attributes for tests and mirrored to the process-wide
    :func:`~repro.obs.metrics.registry` of the cache's construction as
    ``<prefix>.hits`` / ``<prefix>.misses`` / ``<prefix>.evictions``, so
    cache behaviour shows up in ``--metrics-out`` dumps alongside the
    rest of the pipeline.
    """

    #: Metric-name prefix and default entry cap; each cache sets its own.
    prefix: str
    size: int

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is None:
            max_entries = self.size
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._metrics = registry()
        self._names = tuple(
            f"{self.prefix}.{name}" for name in ("hits", "misses", "evictions")
        )
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, build: Callable):
        """The value cached under ``key``, built and inserted on a miss."""
        hits_name, misses_name, evictions_name = self._names
        if self.max_entries == 0:
            with self._lock:
                self.misses += 1
            self._metrics.inc(misses_name)
            return build()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        if entry is not None:
            self._metrics.inc(hits_name)
            return entry
        self._metrics.inc(misses_name)
        # Build outside the lock: concurrent misses on the same key may
        # duplicate work but never corrupt state (last writer wins).
        entry = build()
        evicted = 0
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            self._metrics.inc(evictions_name, evicted)
        return entry

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()


class WindowStatsCache(LRUCache):
    """:class:`SlidingWindowStats` per ``(series matrix, window length)``."""

    prefix = "cache"
    size = DEFAULT_CACHE_SIZE

    def stats(
        self, X: np.ndarray, length: int, *, token: str | None = None
    ) -> SlidingWindowStats:
        """Fetch (or build and insert) the statistics for ``(X, length)``.

        ``token`` is ``X``'s :func:`fingerprint` when the caller already
        has it.
        """
        key = (token if token is not None else fingerprint(X), int(length))
        return self.get(key, lambda: SlidingWindowStats(X, length))


class DiscretizationEntry:
    """The cached pre-work for one ``(series, window_size)`` pair.

    ``normalized`` is the z-normalized sliding-window matrix — treat it
    as immutable; it is shared by every cache consumer. ``paa(size)``
    returns (building and memoizing on first use) the row-wise PAA
    reduction for one segment count, so evicting an entry drops its
    PAA reductions with it.
    """

    __slots__ = ("normalized", "_paa", "_lock")

    def __init__(self, normalized: np.ndarray) -> None:
        self.normalized = normalized
        self._paa: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    def paa(self, paa_size: int) -> np.ndarray:
        """The ``(n_windows, paa_size)`` segment means (memoized)."""
        paa_size = int(paa_size)
        with self._lock:
            cached = self._paa.get(paa_size)
        if cached is not None:
            return cached
        # Build outside the lock: concurrent misses on the same size may
        # duplicate work but the results are bitwise identical.
        reduced = paa_rows(self.normalized, paa_size)
        with self._lock:
            return self._paa.setdefault(paa_size, reduced)

    @property
    def n_paa_sizes(self) -> int:
        """Number of PAA reductions currently memoized."""
        return len(self._paa)


class DiscretizationCache(LRUCache):
    """:class:`DiscretizationEntry` per ``(series, window_size)``."""

    prefix = "discretize.cache"
    size = DEFAULT_DISCRETIZE_CACHE_SIZE

    def windows(
        self, series: np.ndarray, window_size: int, *, token: str | None = None
    ) -> DiscretizationEntry:
        """Fetch (or build and insert) the entry for ``(series, window_size)``."""
        key = (token if token is not None else fingerprint(series), int(window_size))
        return self.get(
            key,
            lambda: DiscretizationEntry(
                znorm_rows(sliding_windows(series, window_size))
            ),
        )


_default_cache: WindowStatsCache | None = None
_default_lock = threading.Lock()


def default_cache() -> WindowStatsCache:
    """The process-wide shared window-statistics cache (lazily created)."""
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = WindowStatsCache()
        return _default_cache
