"""Batched transform benchmark: FFT vs mat-vec distance kernel.

The FFT backend's claim is that one shared series spectrum plus a
batched ``O(m log m)`` correlation per pattern beats the per-pattern
``O(J·L)`` mat-vec once patterns are long and buckets are non-trivial.
This bench measures exactly the workload ``auto`` was calibrated on:
one per-length bucket of ``k`` pre-normalized patterns pushed through
``SlidingWindowStats.batch_best_distances_prenormalized`` on both
backends, with a fresh statistics object per timed run so the FFT side
pays its spectrum build inside the measurement.

Equivalence is always asserted — distances within the shared tolerance
model (rtol 1e-9 / atol 1e-6, same numbers as ``tests/oracles.py``)
and *identical* tie-broken argmin positions. The ≥2× speedup gate on
the largest bucket only arms on hosts with at least 4 CPUs; tiny
shared runners make wall-clock ratios meaningless.

A second table times the closest-match reduction on the ``fixed-long``
predict shape (64 rows × 1,024 points, one bucket of 14 patterns of
129 points) against the profile-then-minimum reference in
``tests/oracles.py``, on both backends, and asserts that the two give
the same distances bit for bit.

Results go to ``benchmarks/results/BENCH_transform.json`` (machine-
readable) and ``benchmarks/results/transform.txt`` (table). Run
stand-alone with ``python benchmarks/bench_transform.py`` or through
pytest-benchmark.
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
from repro.runtime.kernel import (  # noqa: E402
    SlidingWindowStats,
    prenormalize_pattern,
    resolve_backend,
    tie_break_argmin_rows,
)
from tests.oracles import profile_min_best_distances  # noqa: E402

JSON_NAME = "BENCH_transform.json"

SPEEDUP_GATE_MIN_CPUS = 4
GATE_FACTOR = 2.0

#: The calibration workload: long series, long patterns — the regime
#: ``auto`` routes to FFT.
N_SERIES = 32
SERIES_LENGTH = 2048
PATTERN_LENGTH = 256
BUCKET_SIZES = (4, 16, 64)
REPEATS = 2

#: The ``fixed-long`` predict shape: one 64-row call against the bank's
#: largest bucket.
REDUCTION_SHAPE = {"n_series": 64, "series_length": 1024, "pattern_length": 129, "bucket": 14}
REDUCTION_REPEATS = 5


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, np.ndarray]:
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _assert_equivalent(X: np.ndarray, pres: list) -> None:
    """Distances close, argmin positions identical (never skipped)."""
    stats = SlidingWindowStats(X, PATTERN_LENGTH)
    mat = stats.batch_profiles_prenormalized(pres, backend="matvec")
    fft = stats.batch_profiles_prenormalized(pres, backend="fft")
    np.testing.assert_allclose(fft, mat, rtol=1e-9, atol=1e-6)
    np.testing.assert_array_equal(
        tie_break_argmin_rows(fft), tie_break_argmin_rows(mat)
    )


def run_bench() -> dict:
    rng = np.random.default_rng(42)
    X = rng.standard_normal((N_SERIES, SERIES_LENGTH))
    patterns = [rng.standard_normal(PATTERN_LENGTH) for _ in range(max(BUCKET_SIZES))]
    all_pres = [prenormalize_pattern(p) for p in patterns]

    results = {
        "n_series": N_SERIES,
        "series_length": SERIES_LENGTH,
        "pattern_length": PATTERN_LENGTH,
        "cpus": os.cpu_count() or 1,
        "gate_armed": (os.cpu_count() or 1) >= SPEEDUP_GATE_MIN_CPUS,
        "gate_factor": GATE_FACTOR,
        "workloads": [],
    }
    for k in BUCKET_SIZES:
        pres = all_pres[:k]
        # Fresh stats per timed run: both sides pay their full
        # per-(batch, length) setup — cumulative sums for both, plus
        # the series spectrum on the FFT side.
        mat_s, mat_out = _best_of(
            lambda: SlidingWindowStats(X, PATTERN_LENGTH)
            .batch_best_distances_prenormalized(pres, backend="matvec")
        )
        fft_s, fft_out = _best_of(
            lambda: SlidingWindowStats(X, PATTERN_LENGTH)
            .batch_best_distances_prenormalized(pres, backend="fft")
        )
        np.testing.assert_allclose(fft_out, mat_out, rtol=1e-9, atol=1e-6)
        _assert_equivalent(X, pres)
        results["workloads"].append(
            {
                "bucket": k,
                "matvec_ms": mat_s * 1000.0,
                "fft_ms": fft_s * 1000.0,
                "speedup": mat_s / fft_s,
                "max_abs_diff": float(np.abs(fft_out - mat_out).max()),
                "auto_resolves": resolve_backend(
                    "auto",
                    length=PATTERN_LENGTH,
                    series_length=SERIES_LENGTH,
                    batch_size=k,
                ),
            }
        )
    return results


def run_reduction_bench() -> dict:
    """The closest-match reduction vs the profile-then-minimum reference.

    Fresh window statistics per timed run on both sides; the distances
    must be equal bit for bit on each backend.
    """
    shape = REDUCTION_SHAPE
    rng = np.random.default_rng(7)
    X = np.cumsum(rng.standard_normal((shape["n_series"], shape["series_length"])), axis=1)
    L = shape["pattern_length"]
    walk = np.cumsum(rng.standard_normal(shape["bucket"] * L))
    pres = [prenormalize_pattern(p) for p in walk.reshape(shape["bucket"], L)]
    rows = []
    for backend in ("matvec", "fft"):
        new_s, new_out = _best_of(
            lambda: SlidingWindowStats(X, L).batch_best_distances_prenormalized(
                pres, backend=backend
            ),
            REDUCTION_REPEATS,
        )
        ref_s, ref_out = _best_of(
            lambda: profile_min_best_distances(SlidingWindowStats(X, L), pres, backend),
            REDUCTION_REPEATS,
        )
        assert new_out.tobytes() == ref_out.tobytes(), (
            f"{backend}: the reduction differs from the profile minima"
        )
        rows.append(
            {
                "backend": backend,
                "reduction_ms": new_s * 1000.0,
                "profile_min_ms": ref_s * 1000.0,
                "speedup": ref_s / new_s,
            }
        )
    return {**shape, "repeats": REDUCTION_REPEATS, "rows": rows}


def _report(results: dict) -> str:
    rows = [
        [
            f"k={w['bucket']}",
            f"{w['matvec_ms']:.1f}",
            f"{w['fft_ms']:.1f}",
            f"{w['speedup']:.2f}x",
            w["auto_resolves"],
            f"{w['max_abs_diff']:.1e}",
        ]
        for w in results["workloads"]
    ]
    gate = "armed" if results["gate_armed"] else f"off — <{SPEEDUP_GATE_MIN_CPUS} CPUs"
    red = results["reduction"]
    red_rows = [
        [
            r["backend"],
            f"{r['profile_min_ms']:.2f}",
            f"{r['reduction_ms']:.2f}",
            f"{r['speedup']:.2f}x",
        ]
        for r in red["rows"]
    ]
    return "\n".join(
        [
            "Batched transform: FFT vs mat-vec distance kernel "
            f"({results['n_series']}×{results['series_length']} series, "
            f"L={results['pattern_length']}, {results['cpus']} CPUs)",
            "(ms, best of 2; fresh window statistics per run)",
            harness.format_table(
                ["bucket", "matvec", "fft", "speedup", "auto", "max |Δ|"], rows
            ),
            f"\nspeedup gate ≥{GATE_FACTOR}x on largest bucket: {gate}",
            "equivalence: distances rtol 1e-9 / atol 1e-6, "
            "tie-broken argmin positions identical (asserted every run)",
            "",
            "Closest-match reduction vs profile-then-minimum reference "
            f"({red['n_series']}×{red['series_length']} series, "
            f"one bucket of {red['bucket']} patterns, L={red['pattern_length']})",
            f"(ms, best of {red['repeats']}; fresh window statistics per run)",
            harness.format_table(["backend", "profile min", "reduction", "speedup"], red_rows),
            "equivalence: distances bit for bit (asserted every run)",
        ]
    )


def write_json(results: dict) -> Path:
    harness.RESULTS_DIR.mkdir(exist_ok=True)
    path = harness.RESULTS_DIR / JSON_NAME
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def _check_gate(results: dict) -> None:
    if not results["gate_armed"]:
        return
    largest = results["workloads"][-1]
    assert largest["speedup"] >= GATE_FACTOR, (
        f"FFT backend only {largest['speedup']:.2f}x mat-vec on bucket "
        f"k={largest['bucket']} (gate requires >= {GATE_FACTOR}x)"
    )


def test_transform_speedup(benchmark):
    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    results["reduction"] = run_reduction_bench()
    write_json(results)
    harness.write_report("transform", _report(results))
    _check_gate(results)


def main() -> int:
    results = run_bench()
    results["reduction"] = run_reduction_bench()
    path = write_json(results)
    harness.write_report("transform", _report(results))
    print(f"json written to {path}")
    _check_gate(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
