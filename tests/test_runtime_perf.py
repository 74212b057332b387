"""Timing-regression smoke test for the cached transform path.

Guards the perf work from silently rotting: the cached kernel path
(one sliding-window precomputation per pattern length, reused across
patterns) must never fall behind the naive path (statistics recomputed
for every pattern) by more than a generous 1.5× margin. Marked
``slow`` — run with ``pytest -m slow`` (the default fast lane skips it).

The allocator test is not timed: after the first kernel call of a
process, a megabyte-sized temporary reuses heap pages instead of
faulting in a fresh mapping, whatever the process freed before.
"""

from __future__ import annotations

import platform
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.transform import pattern_features
from repro.distance.best_match import batch_best_distances
from repro.runtime import WindowStatsCache


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.slow
def test_cached_transform_not_slower_than_naive():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((80, 256))
    # Many patterns, few distinct lengths — the shape of a real RPM
    # transform, and the case the (series, length) cache exists for.
    patterns = [rng.standard_normal(L) for L in (24, 32, 48) for _ in range(8)]

    def naive():
        return np.column_stack([batch_best_distances(p, X) for p in patterns])

    def cached():
        return pattern_features(X, patterns, cache=WindowStatsCache(8))

    # Same numbers first — a fast wrong answer is no optimization.
    assert np.array_equal(naive(), cached())

    naive_time = _best_of(naive)
    cached_time = _best_of(cached)
    assert cached_time <= 1.5 * naive_time, (
        f"cached transform regressed: {cached_time:.4f}s vs naive "
        f"{naive_time:.4f}s ({cached_time / naive_time:.2f}x)"
    )


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's mallopt")
def test_kernel_temporaries_come_from_the_heap():
    # A fresh process, so no earlier free has raised glibc's mmap
    # threshold: ten 1 MB temporaries after the first kernel call reuse
    # heap pages. Under glibc's own thresholds they fault in a fresh
    # mapping or a re-grown heap top (hundreds of faults).
    code = """
import resource
import numpy as np
from repro.runtime.kernel import SlidingWindowStats
SlidingWindowStats(np.random.default_rng(0).standard_normal((300, 128)), 40)
np.ones(2**17).sum()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    np.ones(2**17).sum()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert int(out.stdout) < 100, out.stdout
