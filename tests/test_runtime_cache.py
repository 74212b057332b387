"""The one LRU behind both runtime caches.

:class:`WindowStatsCache` and :class:`DiscretizationCache` are thin
key-and-build wrappers over :class:`repro.runtime.cache.LRUCache`, keyed
on a content :func:`~repro.runtime.cache.fingerprint`. Every LRU
guarantee is pinned here once, over both caches: hits and misses,
eviction order, the ``max_entries=0`` bypass, size validation, the
metrics mirrored to the registry and concurrent misses.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, scoped_registry
from repro.runtime.cache import DiscretizationCache, WindowStatsCache, fingerprint

#: name → (cache class, metric prefix, data factory, fetch(cache, data, size))
CACHES = {
    "WindowStatsCache": (
        WindowStatsCache,
        "cache",
        lambda rng: rng.standard_normal((3, 40)),
        WindowStatsCache.stats,
    ),
    "DiscretizationCache": (
        DiscretizationCache,
        "discretize.cache",
        lambda rng: rng.standard_normal(60),
        DiscretizationCache.windows,
    ),
}


@pytest.fixture(params=sorted(CACHES))
def kind(request):
    return CACHES[request.param]


@pytest.fixture()
def rng() -> np.random.Generator:
    # Module-local: never shifts the session stream other modules use.
    return np.random.default_rng(20240806)


class TestLRU:
    def test_hit_and_miss_counters(self, kind, rng):
        cls, _, make, fetch = kind
        data = make(rng)
        cache = cls(max_entries=4, metrics=MetricsRegistry())
        first = fetch(cache, data, 8)
        assert (cache.hits, cache.misses) == (0, 1)
        assert fetch(cache, data, 8) is first
        assert (cache.hits, cache.misses) == (1, 1)
        fetch(cache, data, 12)
        assert (cache.hits, cache.misses) == (1, 2)

    def test_lru_eviction(self, kind, rng):
        cls, _, make, fetch = kind
        data = make(rng)
        cache = cls(max_entries=2, metrics=MetricsRegistry())
        a = fetch(cache, data, 4)
        fetch(cache, data, 5)
        fetch(cache, data, 6)  # evicts the size-4 entry (least recent)
        assert cache.evictions == 1
        assert len(cache) == 2
        fetch(cache, data, 5)  # still cached
        assert cache.hits == 1
        assert fetch(cache, data, 4) is not a  # rebuilt, not the old object

    def test_recency_updates_on_hit(self, kind, rng):
        cls, _, make, fetch = kind
        data = make(rng)
        cache = cls(max_entries=2, metrics=MetricsRegistry())
        a = fetch(cache, data, 4)
        fetch(cache, data, 5)
        assert fetch(cache, data, 4) is a  # touch 4 → 5 is now least recent
        fetch(cache, data, 6)
        assert fetch(cache, data, 4) is a  # survived the eviction
        assert cache.evictions == 1

    def test_different_data_never_aliases(self, kind, rng):
        cls, _, make, fetch = kind
        data = make(rng)
        other = data.copy()
        other.flat[0] += 1.0
        cache = cls(max_entries=8, metrics=MetricsRegistry())
        fetch(cache, data, 8)
        fetch(cache, other, 8)
        assert (cache.hits, cache.misses) == (0, 2)
        assert fingerprint(data) != fingerprint(other)
        assert fingerprint(data) == fingerprint(data.copy())

    def test_zero_size_disables_caching(self, kind, rng):
        cls, _, make, fetch = kind
        data = make(rng)
        cache = cls(max_entries=0, metrics=MetricsRegistry())
        assert fetch(cache, data, 5) is not fetch(cache, data, 5)
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 2)

    def test_negative_size_rejected(self, kind):
        cls = kind[0]
        with pytest.raises(ValueError, match="max_entries"):
            cls(max_entries=-1)

    def test_clear_keeps_counters(self, kind, rng):
        cls, _, make, fetch = kind
        cache = cls(max_entries=4, metrics=MetricsRegistry())
        fetch(cache, make(rng), 5)
        cache.clear()
        assert len(cache) == 0 and cache.misses == 1

    def test_metrics_mirrored(self, kind, rng):
        cls, prefix, make, fetch = kind
        data = make(rng)
        metrics = MetricsRegistry()
        cache = cls(max_entries=1, metrics=metrics)
        fetch(cache, data, 8)
        fetch(cache, data, 8)
        fetch(cache, data, 9)  # evicts size 8
        assert metrics.counter_value(f"{prefix}.hits") == cache.hits == 1
        assert metrics.counter_value(f"{prefix}.misses") == cache.misses == 2
        assert metrics.counter_value(f"{prefix}.evictions") == cache.evictions == 1

    def test_defaults_to_process_registry(self, kind, rng):
        cls, prefix, make, fetch = kind
        metrics = MetricsRegistry()
        with scoped_registry(metrics):
            cache = cls()
            fetch(cache, make(rng), 5)
        assert metrics.counter_value(f"{prefix}.misses") == cache.misses == 1

    def test_concurrent_misses(self, kind, rng):
        # More threads than cores, a short switch interval and a cache
        # too small for the working set, so misses, builds and evictions
        # interleave; a lost counter update would break the sums.
        cls, prefix, make, fetch = kind
        data = make(rng)
        metrics = MetricsRegistry()
        cache = cls(max_entries=2, metrics=metrics)
        n_threads, rounds, sizes = 8, 100, (5, 6, 7)
        barrier = threading.Barrier(n_threads)
        errors: list = []

        def worker() -> None:
            try:
                barrier.wait(timeout=10)
                for i in range(rounds):
                    assert fetch(cache, data, sizes[i % len(sizes)]) is not None
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert cache.hits + cache.misses == n_threads * rounds
        assert metrics.counter_value(f"{prefix}.hits") == cache.hits
        assert metrics.counter_value(f"{prefix}.misses") == cache.misses
        assert metrics.counter_value(f"{prefix}.evictions") == cache.evictions
        assert len(cache) <= 2
