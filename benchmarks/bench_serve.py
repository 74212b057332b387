"""Serving-path benchmark: single-request vs micro-batched throughput.

The serving claim is that micro-batching amortizes per-request costs —
sliding-window statistics per length bucket, one mat-vec per pattern,
one SVM call — across every request in the batch. This bench measures
that directly on a small trained model:

* **single** — ``max_batch=1`` / no coalescing window: every request is
  its own model call (the lower bound batching must beat);
* **batched** — requests submitted together and coalesced up to
  ``max_batch``;
* compiled transform on one thread vs its buckets on two.

Two bitwise-equivalence assertions are always on: batched labels ==
the in-process ``RPMClassifier.predict``, and ``CompiledModel.transform``
== ``RPMClassifier.transform`` on a 128-point CBF fit whose largest
length bucket goes to the FFT under ``auto`` (the ItalyPowerSim
requests are too short to leave the mat-vec). The ≥2× throughput gate
only arms on hosts with at least 4 CPUs — tiny shared runners make
wall-clock ratios meaningless.

Run stand-alone (CI fast lane) with ``python benchmarks/bench_serve.py``
or through pytest-benchmark alongside the other benches.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

import harness  # noqa: E402
from repro import RPMClassifier, SaxParams  # noqa: E402
from repro.data import cbf, load  # noqa: E402
from repro.obs import registry, scoped_registry  # noqa: E402
from repro.serve import CompiledModel, PredictionService, ServeConfig  # noqa: E402

THROUGHPUT_GATE_MIN_CPUS = 4
GATE_FACTOR = 2.0


def _requests(dataset, n: int = 96) -> np.ndarray:
    reps = int(np.ceil(n / dataset.X_test.shape[0]))
    return np.tile(dataset.X_test, (reps, 1))[:n]


def _throughput(service: PredictionService, X: np.ndarray, *, coalesce: bool) -> tuple[float, np.ndarray]:
    """Requests/second plus the labels (for the equivalence assert)."""
    start = time.perf_counter()
    if coalesce:
        futures = [service.submit(row) for row in X]
        results = [f.result() for f in futures]
    else:
        results = [service.predict_one(row) for row in X]
    elapsed = time.perf_counter() - start
    assert all(r.ok for r in results)
    return X.shape[0] / elapsed, np.array([r.label for r in results])


def _check_features_above_fft_crossover() -> str:
    """Served features == ``RPMClassifier.transform``, bitwise, with FFT buckets."""
    data = cbf(n_train_per_class=10, n_test_per_class=20, length=128, seed=1)
    clf = RPMClassifier(sax_params=SaxParams(45, 4, 6)).fit(data.X_train, data.y_train)
    with scoped_registry() as reg:
        expected = clf.transform(data.X_test)
        fft_calls = reg.counter_value("kernel.backend.fft")
    assert fft_calls > 0, "no length bucket went to the FFT; the check lost its point"
    with CompiledModel.from_classifier(clf) as model:
        np.testing.assert_array_equal(model.transform(data.X_test), expected)
    return (
        "equivalence: CompiledModel.transform bitwise-identical to "
        f"RPMClassifier.transform on 128-point CBF ({fft_calls} FFT bucket call(s))"
    )


def run_bench() -> str:
    dataset = load("ItalyPowerSim")
    clf = RPMClassifier(sax_params=SaxParams(12, 4, 4), seed=0)
    clf.fit(dataset.X_train, dataset.y_train)
    X = _requests(dataset)
    expected = clf.predict(X)

    rows = []
    throughputs = {}
    configs = [
        ("single", dict(max_batch=1, max_delay_ms=0.0), 1, False),
        ("batched-serial", dict(max_batch=64, max_delay_ms=2.0), 1, True),
        ("batched-threads", dict(max_batch=64, max_delay_ms=2.0), 2, True),
    ]
    for name, knobs, jobs, coalesce in configs:
        # Each config gets its own scoped registry so latency quantiles
        # measure this run only, with the warm-up excluded via a
        # post-start baseline snapshot + delta.
        with scoped_registry():
            with CompiledModel.from_classifier(clf, n_jobs=jobs) as model:
                with PredictionService(model, config=ServeConfig(**knobs)) as service:
                    baseline = registry().snapshot()
                    rate, labels = _throughput(service, X, coalesce=coalesce)
            lat = registry().delta(baseline)["histograms"].get(
                "serve.latency_seconds", {}
            )
        # The acceptance criterion: batching/parallelism never changes a bit.
        np.testing.assert_array_equal(labels, expected)
        throughputs[name] = rate
        rows.append(
            [name, f"{rate:.0f}", f"{1000.0 / rate:.2f}"]
            + [f"{lat.get(q, 0.0) * 1000.0:.2f}" for q in ("p50", "p95", "p99")]
        )

    speedup = throughputs["batched-serial"] / throughputs["single"]
    gated = (os.cpu_count() or 1) >= THROUGHPUT_GATE_MIN_CPUS
    report = "\n".join(
        [
            f"Serving throughput — {len(X)} requests, "
            f"{len(clf.patterns_)} patterns ({os.cpu_count()} CPUs)",
            harness.format_table(
                ["mode", "req/s", "ms/req", "p50 ms", "p95 ms", "p99 ms"], rows
            ),
            f"\nbatched/single speedup: {speedup:.2f}x "
            f"(gate {'armed' if gated else 'off — <4 CPUs'})",
            "equivalence: batched labels bitwise-identical to RPMClassifier.predict",
            _check_features_above_fft_crossover(),
        ]
    )
    if gated:
        assert speedup >= GATE_FACTOR, (
            f"batched throughput only {speedup:.2f}x single-request "
            f"(gate requires >= {GATE_FACTOR}x)"
        )
    return report


def test_serve_throughput(benchmark):
    report = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    harness.write_report("serve", report)


def main() -> int:
    harness.write_report("serve", run_bench())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
