"""Grammar-induction micro-benchmark: object Sequitur vs integer arrays.

``repro.grammar.sequitur`` keeps every rule's right-hand side in three
parallel int lists and indexes digrams by packed value pairs. The object
implementation it replaced (one linked-list node object per symbol,
tuple digram keys) is the reference in ``tests/oracles.py``. This bench
feeds both the token streams Sequitur sees in two fits:

* every mining call of a tiny DIRECT fit: ``cbf(n_train_per_class=5,
  length=96, seed=1)`` with ``direct_budget=6, n_splits=2``;
* one class of ``two_patterns(n_train_per_class=25, length=1024,
  seed=3)`` discretized with ``SaxParams(128, 8, 5)``: 25 series of
  1,024 points, one long stream.

Identical grammars (rule ids, right-hand sides, refcounts, expansions)
are asserted on every run. The table goes to
``benchmarks/results/grammar.txt``.

Run stand-alone (CI fast lane) with ``python benchmarks/bench_grammar.py``
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
from repro.data.synthetic import cbf, two_patterns  # noqa: E402
from repro.grammar.inference import discretize_class  # noqa: E402
from repro.grammar.sequitur import Sequitur  # noqa: E402
from repro.sax.discretize import SaxParams  # noqa: E402
from tests.oracles import (  # noqa: E402
    ObjectSequitur,
    grammar_snapshot,
    recording_token_streams,
)

REPEATS = 3


def direct_fit_streams() -> list[list[int]]:
    """The token stream of every mining call of a tiny DIRECT fit."""
    data = cbf(n_train_per_class=5, n_test_per_class=10, length=96, seed=1)
    with recording_token_streams() as streams:
        RPMClassifier(direct_budget=6, n_splits=2, seed=0).fit(data.X_train, data.y_train)
    return streams


def two_patterns_stream() -> list[list[int]]:
    """One TwoPatterns class as the fixed SAX triple (128, 8, 5) sees it."""
    data = two_patterns(n_train_per_class=25, n_test_per_class=60, length=1024, seed=3)
    label = np.unique(data.y_train)[0]
    record, _, _ = discretize_class(list(data.X_train[data.y_train == label]),
                                    SaxParams(128, 8, 5))
    return [record.token_ids.tolist()]


def _best_of(induce, streams):
    best, grammars = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        grammars = [induce().feed_all(tokens) for tokens in streams]
        best = min(best, time.perf_counter() - t0)
    return best, grammars


def run_bench() -> list[dict]:
    rows = []
    for name, streams in [
        ("tiny DIRECT fit (CBF)", direct_fit_streams()),
        ("TwoPatterns class, (128, 8, 5)", two_patterns_stream()),
    ]:
        object_s, reference = _best_of(ObjectSequitur, streams)
        array_s, grammars = _best_of(Sequitur, streams)
        # Equivalence is the acceptance criterion, not an option.
        for tokens, got, want in zip(streams, grammars, reference):
            assert grammar_snapshot(got) == grammar_snapshot(want), name
            assert got.start.expansion() == tokens, name
        rows.append(
            {
                "workload": name,
                "streams": len(streams),
                "tokens": sum(map(len, streams)),
                "rules": sum(len(g.non_start_rules()) for g in grammars),
                "object_seconds": object_s,
                "array_seconds": array_s,
                "speedup": object_s / max(array_s, 1e-12),
            }
        )
    return rows


def _report(rows: list[dict]) -> str:
    return "\n".join(
        [
            "Sequitur: object reference (tests/oracles.py) vs integer arrays",
            f"(ms over all streams, best of {REPEATS})",
            harness.format_table(
                ["workload", "streams", "tokens", "rules", "object", "array", "speedup"],
                [
                    [
                        r["workload"],
                        r["streams"],
                        r["tokens"],
                        r["rules"],
                        f"{r['object_seconds'] * 1e3:.1f}",
                        f"{r['array_seconds'] * 1e3:.1f}",
                        f"{r['speedup']:.1f}x",
                    ]
                    for r in rows
                ],
            ),
            "\n(identical grammars asserted on every stream: rule ids, right-hand "
            "sides, refcounts, expansions)",
        ]
    )


def test_grammar_speedup(benchmark):
    rows = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    harness.write_report("grammar", _report(rows))
    # Tripwire, not a gate: the array port must at least match the
    # object reference on every workload.
    for row in rows:
        assert row["speedup"] >= 1.0, f"array Sequitur slower than the reference: {row}"


def main() -> int:
    harness.write_report("grammar", _report(run_bench()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
