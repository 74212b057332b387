"""Discretization micro-benchmark: legacy string path vs integer codes.

The vectorized pipeline replaces per-window Python string assembly with
one PAA + breakpoint lookup over the whole window matrix and a row-wise
numerosity reduction on uint8 code arrays. This bench times the
vectorized path against the string reference in ``tests/oracles.py`` on
realistic workloads, decomposes the vectorized path per stage
(windows+z-norm, PAA, breakpoint lookup, reduction), and records the
warm-cache time of the :class:`DiscretizationCache` fast path.

Results go to ``benchmarks/results/BENCH_discretize.json`` — machine
readable, uploaded as a CI artifact — plus the usual text table. The
bitwise-equivalence assertion (words, offsets, dropped) is always on.

Run stand-alone (CI fast lane) with ``python benchmarks/bench_discretize.py``
or through pytest-benchmark alongside the other benches.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parents[1]))  # for tests.oracles

import harness  # noqa: E402
from repro.runtime import DiscretizationCache  # noqa: E402
from repro.sax.alphabet import breakpoints  # noqa: E402
from repro.sax.discretize import SaxParams, discretize, sliding_windows  # noqa: E402
from repro.sax.paa import paa_rows  # noqa: E402
from repro.sax.znorm import znorm_rows  # noqa: E402
from tests.oracles import legacy_discretize  # noqa: E402

JSON_NAME = "BENCH_discretize.json"

#: (series length, SaxParams, reduction) — the shapes Algorithm 3 sees:
#: a concatenated class series of a few thousand points, windows in the
#: tens, and every reduction mode.
WORKLOADS = [
    (2000, SaxParams(24, 5, 4), "exact"),
    (2000, SaxParams(24, 5, 4), "mindist"),
    (2000, SaxParams(24, 5, 4), "none"),
    (6000, SaxParams(48, 6, 5), "exact"),
    (6000, SaxParams(96, 8, 6), "exact"),
]


def _best_of(fn, repeats: int = 3):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _stage_times(series: np.ndarray, params: SaxParams) -> dict[str, float]:
    """Per-stage wall seconds of the vectorized pipeline (best of 3)."""
    windows_t, windows = _best_of(lambda: sliding_windows(series, params.window_size))
    znorm_t, normalized = _best_of(lambda: znorm_rows(windows))
    paa_t, segments = _best_of(lambda: paa_rows(normalized, params.paa_size))
    cuts = breakpoints(params.alphabet_size)
    lookup_t, _ = _best_of(
        lambda: np.searchsorted(cuts, segments, side="left").astype(np.uint8)
    )
    return {
        "windows_seconds": windows_t,
        "znorm_seconds": znorm_t,
        "paa_seconds": paa_t,
        "lookup_seconds": lookup_t,
    }


def run_bench() -> dict:
    rng = np.random.default_rng(42)
    results = {
        "bench": "discretize",
        "cpus": os.cpu_count(),
        "workloads": [],
    }
    for length, params, reduction in WORKLOADS:
        series = rng.standard_normal(length)

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

        # Equivalence is the acceptance criterion, not an option.
        for record in (vector_record, cached_record):
            assert record.words == legacy_record.words
            np.testing.assert_array_equal(record.offsets, legacy_record.offsets)
            assert record.dropped == legacy_record.dropped

        results["workloads"].append(
            {
                "series_length": length,
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
                "stages": _stage_times(series, params),
            }
        )
    return results


def _report(results: dict) -> str:
    rows = []
    for w in results["workloads"]:
        rows.append(
            [
                f"n={w['series_length']} w={w['window_size']} "
                f"p={w['paa_size']} a={w['alphabet_size']}",
                w["reduction"],
                w["n_words"],
                f"{w['legacy_seconds'] * 1e3:.2f}",
                f"{w['vectorized_seconds'] * 1e3:.2f}",
                f"{w['cached_seconds'] * 1e3:.2f}",
                f"{w['speedup']:.1f}x",
                f"{w['cached_speedup']:.1f}x",
            ]
        )
    speedups = [w["speedup"] for w in results["workloads"]]
    return "\n".join(
        [
            "Discretization: legacy string path vs vectorized integer codes",
            "(ms, best of 3; 'cached' = warm DiscretizationCache)",
            harness.format_table(
                ["workload", "reduction", "words", "legacy", "vector",
                 "cached", "speedup", "cached"],
                rows,
            ),
            f"\nmean speedup {np.mean(speedups):.1f}x, "
            f"min {np.min(speedups):.1f}x "
            "(equivalence asserted bitwise on every workload)",
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
