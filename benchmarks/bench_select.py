"""Selection micro-benchmark: scalar SU loop vs blocked CFS kernel.

The blocked kernel replaces the per-pair ``np.unique`` symmetrical-
uncertainty loop with whole-block contingency tables (one ``np.bincount``
over fused joint codes per scratch-sized chunk). This bench times the
SU-matrix stage both ways on pattern-feature-shaped workloads, the full
``cfs_select`` end to end against the per-pair reference
(``tests/oracles.py``), and a ``find_distinct`` equivalence pass over a
synthetic candidate pool.

Results go to ``benchmarks/results/BENCH_select.json`` — machine
readable, uploaded as a CI artifact — plus the usual text table. The
bitwise-equivalence assertion (SU values, selected subsets, merits,
patterns, τ) is always on.

Run stand-alone (CI fast lane) with ``python benchmarks/bench_select.py``
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
from repro.core import selection  # noqa: E402
from repro.core.patterns import PatternCandidate  # noqa: E402
from repro.core.selection import find_distinct  # noqa: E402
from repro.ml.cfs import (  # noqa: E402
    _searchable_indices,
    cfs_select,
    column_entropies,
    discretize_features,
    feature_class_su,
    feature_feature_su_matrix,
    symmetrical_uncertainty,
)
from repro.sax.discretize import SaxParams  # noqa: E402
from tests.oracles import scalar_cfs_select  # noqa: E402

JSON_NAME = "BENCH_select.json"

#: (rows, feature columns, classes) — the shapes Algorithm 2's CFS stage
#: sees: one row per training series, one column per deduplicated
#: candidate. The widest workload exercises the max_features cap; the
#: last is the ≥3x calibration workload for the SU-matrix stage.
WORKLOADS = [
    (60, 40, 2),
    (120, 80, 3),
    (200, 120, 2),
]


def _best_of(fn, repeats: int = 3):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _feature_problem(rng, n, d, n_classes):
    """A pattern-distance-like feature matrix with informative columns."""
    X = rng.gamma(2.0, 2.0, size=(n, d))  # distances: positive, skewed
    y = np.arange(n) % n_classes
    for j in range(0, d, 5):  # every 5th column tracks the class
        X[:, j] += y * rng.uniform(0.5, 2.0)
    return X, y


def _scalar_su_stage(codes, y_codes, searchable):
    """The pre-vectorization SU stage: one np.unique pass per pair."""
    su_fc = np.array(
        [symmetrical_uncertainty(codes[:, j], y_codes) for j in range(codes.shape[1])]
    )
    k = len(searchable)
    ff = np.zeros((k, k))
    for p in range(k):
        for q in range(p + 1, k):
            lo, hi = sorted((searchable[p], searchable[q]))
            ff[p, q] = ff[q, p] = symmetrical_uncertainty(codes[:, lo], codes[:, hi])
    return su_fc, ff


def _blocked_su_stage(codes, y_codes, searchable):
    h = column_entropies(codes)
    su_fc = feature_class_su(codes, y_codes, entropies=h)
    ff = feature_feature_su_matrix(codes, searchable, entropies=h[searchable])
    return su_fc, ff


def run_bench() -> dict:
    rng = np.random.default_rng(42)
    results = {
        "bench": "select",
        "cpus": os.cpu_count(),
        "workloads": [],
    }
    for n, d, n_classes in WORKLOADS:
        X, y = _feature_problem(rng, n, d, n_classes)
        _, y_codes = np.unique(y, return_inverse=True)
        codes = discretize_features(X)
        searchable = _searchable_indices(
            feature_class_su(codes, y_codes), max_features=64
        )

        scalar_su_t, (scalar_fc, scalar_ff) = _best_of(
            lambda: _scalar_su_stage(codes, y_codes, searchable)
        )
        blocked_su_t, (blocked_fc, blocked_ff) = _best_of(
            lambda: _blocked_su_stage(codes, y_codes, searchable)
        )
        np.testing.assert_array_equal(blocked_fc, scalar_fc)
        np.testing.assert_array_equal(blocked_ff, scalar_ff)

        scalar_t, scalar_result = _best_of(lambda: scalar_cfs_select(X, y))
        blocked_t, blocked_result = _best_of(lambda: cfs_select(X, y))

        # Equivalence is the acceptance criterion, not an option.
        assert blocked_result.selected == scalar_result.selected
        assert blocked_result.merit == scalar_result.merit
        np.testing.assert_array_equal(
            blocked_result.feature_class_su, scalar_result.feature_class_su
        )

        results["workloads"].append(
            {
                "rows": n,
                "features": d,
                "classes": n_classes,
                "searchable": len(searchable),
                "n_selected": len(scalar_result.selected),
                "scalar_su_seconds": scalar_su_t,
                "blocked_su_seconds": blocked_su_t,
                "su_speedup": scalar_su_t / max(blocked_su_t, 1e-12),
                "scalar_select_seconds": scalar_t,
                "blocked_select_seconds": blocked_t,
                "select_speedup": scalar_t / max(blocked_t, 1e-12),
            }
        )
    results["find_distinct_equivalent"] = _check_find_distinct(rng)
    return results


def _candidates(rng, n_candidates=24, length=16):
    pool = []
    for i in range(n_candidates):
        base = np.hanning(length) * (1 + i % 3) * (1 if i % 2 else -1)
        pool.append(
            PatternCandidate(
                values=base + rng.standard_normal(length) * 0.2,
                label=i % 2,
                frequency=2 + i % 5,
                support=2,
                rule_id=i,
                words=("ab",),
                sax_params=SaxParams(8, 4, 4),
                within_distances=rng.uniform(0.2, 1.5, size=3),
            )
        )
    return pool


def _check_find_distinct(rng) -> bool:
    """``find_distinct`` must be invariant to the SU implementation."""
    X = rng.standard_normal((24, 80))
    y = np.arange(24) % 2
    X[y == 1, 20:36] += np.hanning(16) * 3
    candidates = _candidates(rng)
    after = find_distinct(X, y, candidates)
    # The same call with CFS scored by the per-pair reference.
    selection.cfs_select = scalar_cfs_select
    try:
        before = find_distinct(X, y, candidates)
    finally:
        selection.cfs_select = cfs_select
    assert after.tau == before.tau
    assert len(after.patterns) == len(before.patterns)
    for a, b in zip(after.patterns, before.patterns):
        assert a.label == b.label and a.feature_index == b.feature_index
        np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(after.train_features, before.train_features)
    return True


def _report(results: dict) -> str:
    rows = []
    for w in results["workloads"]:
        rows.append(
            [
                f"n={w['rows']} d={w['features']} c={w['classes']}",
                w["n_selected"],
                f"{w['scalar_su_seconds'] * 1e3:.2f}",
                f"{w['blocked_su_seconds'] * 1e3:.2f}",
                f"{w['su_speedup']:.1f}x",
                f"{w['scalar_select_seconds'] * 1e3:.2f}",
                f"{w['blocked_select_seconds'] * 1e3:.2f}",
                f"{w['select_speedup']:.1f}x",
            ]
        )
    speedups = [w["su_speedup"] for w in results["workloads"]]
    return "\n".join(
        [
            "CFS selection: scalar SU loop vs blocked contingency kernel",
            "(ms, best of 3)",
            harness.format_table(
                ["workload", "sel", "su-scalar", "su-block", "su-spd",
                 "select", "blocked", "spd"],
                rows,
            ),
            f"\nmean SU-stage speedup {np.mean(speedups):.1f}x, "
            f"min {np.min(speedups):.1f}x "
            "(equivalence asserted bitwise on every workload)",
        ]
    )


def write_json(results: dict) -> Path:
    harness.RESULTS_DIR.mkdir(exist_ok=True)
    path = harness.RESULTS_DIR / JSON_NAME
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def test_select_speedup(benchmark):
    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    write_json(results)
    harness.write_report("select", _report(results))
    assert results["find_distinct_equivalent"]
    # Tripwire everywhere: blocked must never lose to the scalar loop.
    for w in results["workloads"]:
        assert w["su_speedup"] >= 1.0, f"blocked SU slower than scalar: {w}"
    # Speedup gate only on real multi-core CI hosts; tiny containers
    # make wall-clock ratios too noisy to gate on.
    if (os.cpu_count() or 1) >= 4:
        calibration = results["workloads"][-1]
        assert calibration["su_speedup"] >= 2.0, calibration


def main() -> int:
    results = run_bench()
    path = write_json(results)
    harness.write_report("select", _report(results))
    print(f"json written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
