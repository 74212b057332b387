"""Sharded serving tier under closed-loop load: RPS, p99, shedding.

Three questions, answered on a small trained model:

* **Throughput** — a closed loop that keeps :data:`IN_FLIGHT` requests
  in flight (each resolved request releases the next submit, as in
  ``rpmbench``'s closed loop) against the single-process service and
  the sharded tier at 1 and 2 shards: sustained requests/second and
  latency quantiles per configuration. A handful of blocking clients
  would cap every tier near clients / p50 and measure latency, not
  throughput.
* **Equivalence** — before any load runs, every tier's predictions are
  asserted bitwise identical to the in-process
  ``RPMClassifier.predict`` (always on, any host).
* **Saturation** — a burst far beyond a deliberately tiny shard queue
  must come back with typed ``OVERLOAD`` results for the excess while
  every accepted request still completes OK and the queue-depth gauge
  returns to zero: load shedding, not unbounded queueing.

The RPS gate (sharded-2 beating sharded-1) only arms on hosts with at
least :data:`RPS_GATE_MIN_CPUS` CPUs — on tiny shared runners two
worker processes time-slice one core and the ratio is noise.

Results go to ``benchmarks/results/BENCH_serve_load.json`` (machine
readable, kept as a CI artifact) and ``results/serve_load.txt`` (the
human table). Run stand-alone with
``python benchmarks/bench_serve_load.py`` or through pytest-benchmark.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

import harness  # noqa: E402
from repro import RPMClassifier, SaxParams  # noqa: E402
from repro.data import load  # noqa: E402
from repro.obs import registry, scoped_registry  # noqa: E402
from repro.serve import (  # noqa: E402
    CompiledModel,
    PredictionService,
    ResultStatus,
    ServeConfig,
    ShardedPredictionService,
)

JSON_NAME = "BENCH_serve_load.json"
RPS_GATE_MIN_CPUS = 4
RPS_GATE_FACTOR = 1.2
CLIENTS = 4
#: Requests kept in flight by the tier table's closed loop.
IN_FLIGHT = 64
DURATION_S = 1.5
SATURATION_BURST = 64
#: Shadow scoring must stay off the latency path: with a candidate
#: mirroring 100% of traffic, closed-loop p99 may not exceed the
#: shadow-off p99 by more than this factor (plus a small absolute
#: slack for timer noise on tiny latencies).
SHADOW_P99_FACTOR = 1.5
SHADOW_P99_SLACK_MS = 2.0


def _requests(dataset, n: int = 64) -> np.ndarray:
    reps = int(np.ceil(n / dataset.X_test.shape[0]))
    return np.tile(dataset.X_test, (reps, 1))[:n]


def _closed_loop(service, X: np.ndarray) -> tuple[float, int]:
    """Hammer the service with CLIENTS closed-loop threads.

    Each client submits one request, blocks for its result, and
    immediately submits the next — the classic closed-loop generator,
    so offered load tracks service capacity instead of running away
    from it. Returns (sustained requests/second, completed requests).
    """
    stop_at = time.perf_counter() + DURATION_S
    counts = [0] * CLIENTS
    failures: list = []

    def client(k: int) -> None:
        i = k
        while time.perf_counter() < stop_at:
            result = service.predict_one(X[i % len(X)], wait_s=60.0)
            if not result.ok:
                failures.append(result)
            counts[k] += 1
            i += CLIENTS

    threads = [
        threading.Thread(target=client, args=(k,), name=f"load-client-{k}")
        for k in range(CLIENTS)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    assert not failures, f"{len(failures)} non-OK results under closed-loop load"
    return sum(counts) / elapsed, sum(counts)


def _deep_closed_loop(service, X: np.ndarray) -> tuple[float, int]:
    """Keep IN_FLIGHT requests in flight for DURATION_S.

    One generator thread submits while a slot is free; each resolved
    future checks its result and frees its slot. Returns (sustained
    requests/second, completed requests).
    """
    slots = threading.BoundedSemaphore(IN_FLIGHT)
    done: list = []
    failures: list = []

    def resolved(future) -> None:
        result = future.result()
        if not result.ok:
            failures.append(result)
        done.append(result)
        slots.release()

    submitted = 0
    start = time.perf_counter()
    stop_at = start + DURATION_S
    while time.perf_counter() < stop_at:
        slots.acquire()
        service.submit(X[submitted % len(X)]).add_done_callback(resolved)
        submitted += 1
    for _ in range(IN_FLIGHT):  # every slot back: all submits resolved
        slots.acquire(timeout=60.0)
    elapsed = time.perf_counter() - start
    assert len(done) == submitted, f"{submitted - len(done)} requests never resolved"
    assert not failures, f"{len(failures)} non-OK results under closed-loop load"
    return len(done) / elapsed, len(done)


def _latency_quantiles(delta: dict) -> dict:
    lat = delta["histograms"].get("serve.latency_seconds", {})
    return {q: lat.get(q, 0.0) * 1000.0 for q in ("p50", "p95", "p99")}


def _service_for(clf, config: str):
    serve_config = ServeConfig(max_batch=32, max_delay_ms=2.0)
    if config == "single-process":
        model = CompiledModel.from_classifier(clf)
        return PredictionService(model, config=serve_config)
    n_shards = int(config.split("-")[1])
    model = CompiledModel.from_classifier(clf)
    return ShardedPredictionService(
        model, config=serve_config.replace(n_shards=n_shards)
    )


def _saturation(clf, X: np.ndarray) -> dict:
    """Burst far past a tiny queue; typed shedding, zero loss, recovery."""
    model = CompiledModel.from_classifier(clf)
    with scoped_registry():
        with ShardedPredictionService(
            model,
            config=ServeConfig(
                n_shards=1,
                max_batch=4,
                max_delay_ms=5.0,
                max_queue_per_shard=2,
                warmup=False,
            ),
        ) as service:
            futures = [
                service.submit(X[i % len(X)]) for i in range(SATURATION_BURST)
            ]
            results = [f.result(timeout=60.0) for f in futures]
            shed = [r for r in results if r.status is ResultStatus.OVERLOAD]
            ok = [r for r in results if r.ok]
            assert len(shed) + len(ok) == len(results), (
                "saturation burst produced statuses other than OK/OVERLOAD: "
                f"{set(r.status for r in results)}"
            )
            assert shed, "burst past max_queue_per_shard=2 shed nothing"
            assert ok, "admission control shed the entire burst"
            # Shedding is bounded-queue behavior, not an outage: the
            # service takes traffic again as soon as the burst drains.
            recovery = service.predict_one(X[0], wait_s=60.0)
            assert recovery.ok, f"no recovery after burst: {recovery.status}"
            depth = service.metrics.gauge_value("serve.queue_depth")
    assert depth == 0, f"queue_depth leaked after saturation: {depth}"
    return {
        "burst": SATURATION_BURST,
        "max_queue_per_shard": 2,
        "shed_overload": len(shed),
        "completed_ok": len(ok),
        "queue_depth_after": depth,
    }


def _shadow_overhead(clf, X: np.ndarray) -> dict:
    """Closed-loop p99 with a 100%-fraction shadow candidate attached
    vs shadow off: mirroring must not sit on the latency path."""
    quantiles = {}
    scored = dropped = 0
    for mode in ("shadow-off", "shadow-on"):
        model = CompiledModel.from_classifier(clf)
        candidate = CompiledModel.from_classifier(clf)
        with scoped_registry():
            with PredictionService(
                model, config=ServeConfig(max_batch=32, max_delay_ms=2.0)
            ) as service:
                if mode == "shadow-on":
                    service.attach_shadow(
                        candidate, version="bench-candidate", fraction=1.0
                    )
                baseline = registry().snapshot()
                _closed_loop(service, X)
                report = service.detach_shadow()
                if report is not None:
                    scored, dropped = report.n_scored, report.n_dropped
                    assert report.n_disagreements == 0, (
                        "identical shadow candidate disagreed with the primary"
                    )
            quantiles[mode] = _latency_quantiles(registry().delta(baseline))
        candidate.close()
    p99_off = quantiles["shadow-off"]["p99"]
    p99_on = quantiles["shadow-on"]["p99"]
    budget = p99_off * SHADOW_P99_FACTOR + SHADOW_P99_SLACK_MS
    assert p99_on <= budget, (
        f"shadow scoring leaked onto the latency path: p99 {p99_on:.2f}ms "
        f"with shadow on vs {p99_off:.2f}ms off (budget {budget:.2f}ms)"
    )
    return {
        "p99_off_ms": round(p99_off, 3),
        "p99_on_ms": round(p99_on, 3),
        "budget_ms": round(budget, 3),
        "fraction": 1.0,
        "n_scored": scored,
        "n_dropped": dropped,
    }


def run_bench() -> str:
    dataset = load("ItalyPowerSim")
    clf = RPMClassifier(sax_params=SaxParams(12, 4, 4), seed=0)
    clf.fit(dataset.X_train, dataset.y_train)
    X = _requests(dataset)
    expected = clf.predict(X)

    rows = []
    rps = {}
    results_json: dict = {"configs": {}}
    for config in ("single-process", "sharded-1", "sharded-2"):
        with scoped_registry():
            with _service_for(clf, config) as service:
                # Equivalence first, always on: the tier must reproduce
                # the in-process classifier bit for bit before its
                # throughput means anything.
                np.testing.assert_array_equal(service.predict(X), expected)
                baseline = registry().snapshot()
                rate, completed = _deep_closed_loop(service, X)
            quantiles = _latency_quantiles(registry().delta(baseline))
        rps[config] = rate
        results_json["configs"][config] = {
            "rps": round(rate, 1),
            "requests": completed,
            **{f"{q}_ms": round(v, 3) for q, v in quantiles.items()},
        }
        rows.append(
            [config, f"{rate:.0f}", f"{completed}"]
            + [f"{quantiles[q]:.2f}" for q in ("p50", "p95", "p99")]
        )

    saturation = _saturation(clf, X)
    shadow = _shadow_overhead(clf, X)
    cpus = os.cpu_count() or 1
    gated = cpus >= RPS_GATE_MIN_CPUS
    scaling = rps["sharded-2"] / rps["sharded-1"]
    results_json.update(
        {
            "in_flight": IN_FLIGHT,
            "shadow_clients": CLIENTS,
            "duration_s": DURATION_S,
            "cpus": cpus,
            "saturation": saturation,
            "shadow": shadow,
            "equivalence": "bitwise (all tiers == RPMClassifier.predict)",
            "gate": {
                "armed": gated,
                "min_cpus": RPS_GATE_MIN_CPUS,
                "factor": RPS_GATE_FACTOR,
                "sharded2_over_sharded1": round(scaling, 3),
            },
        }
    )
    path = harness.RESULTS_DIR / JSON_NAME
    harness.RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(results_json, indent=2) + "\n")

    report = "\n".join(
        [
            f"Serving load — closed loop, {IN_FLIGHT} requests in flight × "
            f"{DURATION_S}s ({cpus} CPUs)",
            harness.format_table(
                ["tier", "req/s", "done", "p50 ms", "p95 ms", "p99 ms"], rows
            ),
            f"\nsaturation: burst {saturation['burst']} vs queue cap "
            f"{saturation['max_queue_per_shard']} -> "
            f"{saturation['shed_overload']} shed (typed OVERLOAD), "
            f"{saturation['completed_ok']} completed, queue drained",
            f"shadow overhead ({CLIENTS} blocking clients): p99 "
            f"{shadow['p99_on_ms']:.2f}ms with a 100% "
            f"shadow vs {shadow['p99_off_ms']:.2f}ms off "
            f"({shadow['n_scored']} scored, {shadow['n_dropped']} dropped; "
            f"budget {shadow['budget_ms']:.2f}ms)",
            f"sharded-2 / sharded-1 scaling: {scaling:.2f}x "
            f"(gate {'armed' if gated else f'off — <{RPS_GATE_MIN_CPUS} CPUs'})",
            "equivalence: every tier bitwise-identical to RPMClassifier.predict",
            f"json written to {path}",
        ]
    )
    if gated:
        assert scaling >= RPS_GATE_FACTOR, (
            f"sharded-2 only {scaling:.2f}x sharded-1 "
            f"(gate requires >= {RPS_GATE_FACTOR}x on {cpus} CPUs)"
        )
    return report


def test_serve_load(benchmark):
    report = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    harness.write_report("serve_load", report)


def main() -> int:
    harness.write_report("serve_load", run_bench())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
