"""Timing-regression smoke test for the vectorized discretization path.

Guards the integer-coded pipeline from silently rotting: the
vectorized path (PAA + breakpoint lookup on the whole window matrix,
row-wise numerosity reduction on code arrays) must never fall behind
the per-window string reference in ``tests/oracles.py``. The margin is
deliberately generous — this is a tripwire against accidental
de-vectorization, not a benchmark (``benchmarks/bench_discretize.py``
measures the real speedup). Marked ``slow`` — run with ``pytest -m slow``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

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
