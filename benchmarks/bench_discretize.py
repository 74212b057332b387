"""Discretization micro-benchmark: string reference, window matrix, prefix sums.

Three implementations produce the same SAX codes:

* the string reference in ``tests/oracles.py`` (one Python string per
  window of the z-normalized matrix, a Python-loop reduction);
* the **matrix** reference: ``znorm_rows`` of the sliding-window
  matrix, ``paa_rows``, one ``searchsorted`` — O(n·w) memory;
* the **prefix** path that ``discretize`` runs: window moments and
  segment values from prefix sums (``DiscretizationEntry``), one count
  of the breakpoints below each value, a recompute of the rare
  borderline windows — O(n·p) memory.

Per workload this bench times ``legacy_discretize`` against
``discretize`` (uncached and on a warm ``DiscretizationCache``), the
codes stage of the matrix reference against the prefix path, cold and
warm (the old cache kept the matrix's PAA, so its hit was one
``searchsorted``; a prefix hit reads the memoized segment table), and
records the tracemalloc peak of each codes stage. The workloads are the
shapes Algorithm 3 sees (a concatenated class series of a few thousand
points, windows in the tens, every reduction mode), one class of the
benchmark's fixed-long fit (25,600 TwoPatterns points at SAX
(128, 8, 5)), a fractional-PAA class series of direct-ucr's CBF fit
shape, and one 128-point series (what SAX-VSM discretizes per call).
Equality is asserted on every workload: records against the string
reference, prefix codes against matrix codes.

Results go to ``benchmarks/results/BENCH_discretize.json`` — machine
readable, uploaded as a CI artifact — plus the usual text table.

Run stand-alone (CI fast lane) with ``python benchmarks/bench_discretize.py``
or through pytest-benchmark alongside the other benches.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parents[1]))  # for tests.oracles

import harness  # noqa: E402
from repro.data.synthetic import two_patterns  # noqa: E402
from repro.runtime import DiscretizationCache  # noqa: E402
from repro.sax.alphabet import breakpoints  # noqa: E402
from repro.sax.discretize import (  # noqa: E402
    DiscretizationEntry,
    SaxParams,
    discretize,
    sliding_windows,
)
from repro.sax.paa import paa_rows  # noqa: E402
from repro.sax.znorm import znorm_rows  # noqa: E402
from tests.oracles import legacy_discretize  # noqa: E402

JSON_NAME = "BENCH_discretize.json"


def _gaussian(length: int):
    return lambda rng: rng.standard_normal(length)


def _fixed_long_class(rng) -> np.ndarray:
    # Class 0 of rpmbench's fixed-long training set, concatenated.
    data = two_patterns(n_train_per_class=25, n_test_per_class=60, length=1024, seed=3)
    return np.concatenate(data.X_train[data.y_train == data.y_train[0]])


#: (name, series maker, SaxParams, reduction).
WORKLOADS = [
    ("n=2000", _gaussian(2000), SaxParams(24, 5, 4), "exact"),
    ("n=2000", _gaussian(2000), SaxParams(24, 5, 4), "mindist"),
    ("n=2000", _gaussian(2000), SaxParams(24, 5, 4), "none"),
    ("n=6000", _gaussian(6000), SaxParams(48, 6, 5), "exact"),
    ("n=6000", _gaussian(6000), SaxParams(96, 8, 6), "exact"),
    ("n=1280 fractional", _gaussian(1280), SaxParams(100, 7, 6), "exact"),
    ("fixed-long class", _fixed_long_class, SaxParams(128, 8, 5), "exact"),
    ("n=128 single call", _gaussian(128), SaxParams(30, 5, 4), "exact"),
]


def _best_of(fn, budget_s: float = 0.3):
    """Best wall seconds of repeated calls (at least 3, within ~budget)."""
    t0 = time.perf_counter()
    out = fn()
    best = time.perf_counter() - t0
    for _ in range(max(2, min(2000, int(budget_s / max(best, 1e-7))))):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def matrix_segments(series: np.ndarray, params: SaxParams) -> np.ndarray:
    """The z-normalized window matrix's PAA: the reference's values."""
    windows = sliding_windows(series, params.window_size)
    return paa_rows(znorm_rows(windows), params.paa_size)


def matrix_codes(series: np.ndarray, params: SaxParams) -> np.ndarray:
    cuts = breakpoints(params.alphabet_size)
    return np.searchsorted(cuts, matrix_segments(series, params)).astype(np.uint8)


def prefix_codes(series: np.ndarray, params: SaxParams) -> np.ndarray:
    entry = DiscretizationEntry(series, params.window_size)
    return entry.codes(params.paa_size, params.alphabet_size)


def run_bench() -> dict:
    rng = np.random.default_rng(42)
    results = {
        "bench": "discretize",
        "cpus": os.cpu_count(),
        "workloads": [],
    }
    for name, make, params, reduction in WORKLOADS:
        series = make(rng)

        legacy_t, legacy_record = _best_of(
            lambda: legacy_discretize(series, params, numerosity_reduction=reduction)
        )
        vector_t, vector_record = _best_of(
            lambda: discretize(series, params, numerosity_reduction=reduction)
        )
        cache = DiscretizationCache(max_entries=4)
        discretize(series, params, numerosity_reduction=reduction, cache=cache)  # warm
        cached_t, cached_record = _best_of(
            lambda: discretize(series, params, numerosity_reduction=reduction, cache=cache)
        )

        matrix_t, expected = _best_of(lambda: matrix_codes(series, params))
        prefix_t, codes = _best_of(lambda: prefix_codes(series, params))
        cuts = breakpoints(params.alphabet_size)
        segments = matrix_segments(series, params)
        matrix_hit_t, matrix_hit = _best_of(
            lambda: np.searchsorted(cuts, segments).astype(np.uint8)
        )
        entry = DiscretizationEntry(series, params.window_size)
        entry.codes(params.paa_size, params.alphabet_size)  # warm
        prefix_hit_t, prefix_hit = _best_of(
            lambda: entry.codes(params.paa_size, params.alphabet_size)
        )

        # Equivalence is the acceptance criterion, not an option.
        for record in (vector_record, cached_record):
            assert record.words == legacy_record.words
            np.testing.assert_array_equal(record.offsets, legacy_record.offsets)
            assert record.dropped == legacy_record.dropped
        for got in (codes, matrix_hit, prefix_hit):
            np.testing.assert_array_equal(got, expected)

        results["workloads"].append(
            {
                "name": name,
                "series_length": int(series.size),
                "window_size": params.window_size,
                "paa_size": params.paa_size,
                "alphabet_size": params.alphabet_size,
                "reduction": reduction,
                "n_words": len(vector_record),
                "legacy_seconds": legacy_t,
                "vectorized_seconds": vector_t,
                "cached_seconds": cached_t,
                "speedup": legacy_t / max(vector_t, 1e-12),
                "cached_speedup": legacy_t / max(cached_t, 1e-12),
                "codes": {
                    "matrix_seconds": matrix_t,
                    "prefix_seconds": prefix_t,
                    "matrix_hit_seconds": matrix_hit_t,
                    "prefix_hit_seconds": prefix_hit_t,
                    "matrix_peak_mb": _peak_mb(lambda: matrix_codes(series, params)),
                    "prefix_peak_mb": _peak_mb(lambda: prefix_codes(series, params)),
                },
            }
        )
    return results


def _report(results: dict) -> str:
    rows = []
    for w in results["workloads"]:
        codes = w["codes"]
        rows.append(
            [
                f"{w['name']} w={w['window_size']} p={w['paa_size']} a={w['alphabet_size']}",
                w["reduction"],
                w["n_words"],
                f"{w['legacy_seconds'] * 1e3:.2f}",
                f"{w['vectorized_seconds'] * 1e3:.2f}",
                f"{w['cached_seconds'] * 1e3:.2f}",
                f"{codes['matrix_seconds'] * 1e3:.2f}",
                f"{codes['prefix_seconds'] * 1e3:.2f}",
                f"{codes['matrix_hit_seconds'] * 1e6:.0f}",
                f"{codes['prefix_hit_seconds'] * 1e6:.0f}",
                f"{codes['matrix_peak_mb']:.2f}",
                f"{codes['prefix_peak_mb']:.2f}",
            ]
        )
    speedups = [w["speedup"] for w in results["workloads"]]
    codes_speedups = [
        w["codes"]["matrix_seconds"] / w["codes"]["prefix_seconds"]
        for w in results["workloads"]
    ]
    return "\n".join(
        [
            "Discretization: legacy strings, window matrix and prefix sums",
            "(best of repeated calls; discretize = the prefix path, 'cached' = on a",
            "warm DiscretizationCache; the codes columns time the codes stage alone:",
            "matrix = znorm_rows + paa_rows + searchsorted, prefix = DiscretizationEntry",
            "+ codes; 'hit' = with the matrix's PAA or the entry's segment table",
            "already built; peak = tracemalloc peak of the cold codes stage)",
            harness.format_table(
                ["workload", "reduction", "words", "legacy ms", "discretize ms",
                 "cached ms", "matrix ms", "prefix ms", "matrix hit us",
                 "prefix hit us", "matrix MB", "prefix MB"],
                rows,
            ),
            f"\ndiscretize vs legacy: mean {np.mean(speedups):.1f}x, "
            f"min {np.min(speedups):.1f}x; codes stage, prefix vs matrix: "
            f"{np.min(codes_speedups):.1f}x-{np.max(codes_speedups):.1f}x "
            "(equality asserted on every workload)",
        ]
    )


def write_json(results: dict) -> Path:
    harness.RESULTS_DIR.mkdir(exist_ok=True)
    path = harness.RESULTS_DIR / JSON_NAME
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def test_discretize_speedup(benchmark):
    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    write_json(results)
    harness.write_report("discretize", _report(results))
    # Tripwire, not a gate: the vectorized path must at least match the
    # string path on every workload (the 2x end-to-end mining gate
    # lives in bench_direct_evals.py).
    for w in results["workloads"]:
        assert w["speedup"] >= 1.0, f"vectorized slower than legacy: {w}"


def main() -> int:
    results = run_bench()
    path = write_json(results)
    harness.write_report("discretize", _report(results))
    print(f"json written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
