"""Mining micro-benchmark: the per-rule path vs one array program per class.

``repro.core.candidates.find_class_candidates`` mines a class as one
array program: one occurrence table for all grammar rules, one aligned
matrix per subsequence length, and cluster supports and centroids read
from those arrays; only the complete-linkage 2-cut runs per rule. The
per-rule path it replaced (a token-stream scan per rule, an
``Occurrence`` and a ``bisect_right`` per occurrence, an ``np.interp``
per member and a ``znorm_rows``, instance set and centroid per rule) is
the reference in ``tests/oracles.py``. This bench runs both on:

* every mining call of a tiny DIRECT fit: ``cbf(n_train_per_class=5,
  length=96, seed=1)`` with ``direct_budget=6, n_splits=2``;
* the four classes of ``two_patterns(n_train_per_class=25,
  length=1024, seed=3)`` at ``SaxParams(128, 8, 5)``, the mining calls
  of the benchmark's fixed-long fit.

Identical candidates (values bit for bit, frequency, support, rule id,
words and within-cluster distances) are asserted on every call. Both
sides discretize and induce the grammar the same way, so the times are
whole class calls. The table goes to ``benchmarks/results/mining.txt``.

Run stand-alone (CI fast lane) with ``python benchmarks/bench_mining.py``
or through pytest-benchmark alongside the other benches.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parents[1]))  # for tests.oracles

import harness  # noqa: E402
from repro import RPMClassifier  # noqa: E402
from repro.core import candidates  # noqa: E402
from repro.data.synthetic import cbf, two_patterns  # noqa: E402
from repro.sax.discretize import SaxParams  # noqa: E402
from tests.oracles import per_rule_class_candidates  # noqa: E402

REPEATS = 3


def direct_fit_calls() -> list[tuple]:
    """``(instances, label, params)`` of every mining call of a tiny DIRECT fit."""
    calls = []
    mine = candidates.find_class_candidates

    def recording(instances, label, params, **kwargs):
        calls.append((instances, label, params))
        return mine(instances, label, params, **kwargs)

    data = cbf(n_train_per_class=5, n_test_per_class=10, length=96, seed=1)
    candidates.find_class_candidates = recording
    try:
        RPMClassifier(direct_budget=6, n_splits=2, seed=0).fit(data.X_train, data.y_train)
    finally:
        candidates.find_class_candidates = mine
    return calls


def two_patterns_calls() -> list[tuple]:
    """The four TwoPatterns classes at the fixed SAX triple (128, 8, 5)."""
    data = two_patterns(n_train_per_class=25, n_test_per_class=60, length=1024, seed=3)
    params = SaxParams(128, 8, 5)
    return [
        (list(data.X_train[data.y_train == label]), label, params)
        for label in np.unique(data.y_train)
    ]


def _fields(candidate) -> tuple:
    return (
        candidate.values.tobytes(),
        candidate.frequency,
        candidate.support,
        candidate.rule_id,
        candidate.words,
        candidate.within_distances.tobytes(),
    )


def _best_of(mine, calls):
    best, results = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        results = [mine(instances, label, params) for instances, label, params in calls]
        best = min(best, time.perf_counter() - t0)
    return best, results


def run_bench() -> list[dict]:
    rows = []
    for name, calls in [
        ("tiny DIRECT fit (CBF)", direct_fit_calls()),
        ("TwoPatterns classes, (128, 8, 5)", two_patterns_calls()),
    ]:
        per_rule_s, reference = _best_of(per_rule_class_candidates, calls)
        array_s, mined = _best_of(candidates.find_class_candidates, calls)
        # Equivalence is the acceptance criterion, not an option.
        for got, want in zip(mined, reference):
            assert [_fields(c) for c in got] == [_fields(c) for c in want], name
        rows.append(
            {
                "workload": name,
                "calls": len(calls),
                "candidates": sum(map(len, mined)),
                "per_rule_seconds": per_rule_s,
                "array_seconds": array_s,
                "speedup": per_rule_s / max(array_s, 1e-12),
            }
        )
    return rows


def _report(rows: list[dict]) -> str:
    return "\n".join(
        [
            "Class mining: per-rule reference (tests/oracles.py) vs one array program",
            f"(ms over all class calls, best of {REPEATS})",
            harness.format_table(
                ["workload", "calls", "candidates", "per-rule", "array", "speedup"],
                [
                    [
                        r["workload"],
                        r["calls"],
                        r["candidates"],
                        f"{r['per_rule_seconds'] * 1e3:.1f}",
                        f"{r['array_seconds'] * 1e3:.1f}",
                        f"{r['speedup']:.2f}x",
                    ]
                    for r in rows
                ],
            ),
            "\n(identical candidates asserted on every call: values bit for bit, "
            "frequency, support, rule id, words, within-cluster distances)",
        ]
    )


def test_mining_speedup(benchmark):
    rows = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    harness.write_report("mining", _report(rows))


def main() -> int:
    harness.write_report("mining", _report(run_bench()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
