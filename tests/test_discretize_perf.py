"""Timing and memory smoke tests for the vectorized discretization path.

Guards the integer-coded pipeline from silently rotting: the
vectorized path (segment values from prefix sums, one breakpoint
lookup, row-wise numerosity reduction on code arrays) must never fall
behind the per-window string reference in ``tests/oracles.py``. The
margin is deliberately generous — this is a tripwire against
accidental de-vectorization, not a benchmark
(``benchmarks/bench_discretize.py`` measures the real speedup). The
timing test is marked ``slow`` — run with ``pytest -m slow``.

Memory is pinned without timing: discretizing one class of the
benchmark's fixed-long fit must not build the z-normalized window
matrix (26 MB for that class).
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.data.synthetic import two_patterns
from repro.grammar.inference import discretize_class
from repro.sax.discretize import SaxParams, discretize
from tests.oracles import legacy_discretize


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.slow
@pytest.mark.parametrize("reduction", ["exact", "mindist", "none"])
def test_vectorized_discretize_not_slower_than_legacy(reduction):
    rng = np.random.default_rng(42)
    series = rng.standard_normal(4000)
    params = SaxParams(48, 6, 5)

    def legacy():
        return legacy_discretize(series, params, numerosity_reduction=reduction)

    def vectorized():
        return discretize(series, params, numerosity_reduction=reduction)

    # Same answer first — a fast wrong answer is no optimization.
    a, b = legacy(), vectorized()
    assert a.words == b.words
    np.testing.assert_array_equal(a.offsets, b.offsets)

    legacy_time = _best_of(legacy)
    vectorized_time = _best_of(vectorized)
    assert vectorized_time <= 1.5 * legacy_time, (
        f"vectorized discretize regressed: {vectorized_time:.4f}s vs legacy "
        f"{legacy_time:.4f}s ({vectorized_time / legacy_time:.2f}x)"
    )


def test_fixed_long_class_discretizes_without_the_window_matrix():
    # The benchmark's fixed-long training set: one class is 25 series of
    # 1,024 points, discretized at SAX (128, 8, 5). Its z-normalized
    # window matrix alone is 25,473 x 128 floats (26 MB); the prefix-sum
    # path holds a few arrays of the series length and the (8, 25,473)
    # segment table.
    data = two_patterns(n_train_per_class=25, n_test_per_class=60, length=1024, seed=3)
    instances = list(data.X_train[data.y_train == data.y_train[0]])
    assert sum(map(len, instances)) == 25_600
    tracemalloc.start()
    try:
        discretize_class(instances, SaxParams(128, 8, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, f"discretize_class peaked at {peak / 2**20:.1f} MB"
