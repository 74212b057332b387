"""Sharded serving tier: equivalence, admission control, worker loss.

Contracts under test:

1. **Bitwise equivalence** — the sharded tier's predictions (and
   feature vectors) equal the single-process ``PredictionService`` and
   the in-process ``RPMClassifier`` bit for bit: shared-memory bank
   export, pickling, routing and process boundaries never change a
   float.
2. **Typed degradation** — invalid rows yield per-row ``INVALID``
   results through ``predict_many``; a burst past the shard queue cap
   yields typed ``OVERLOAD`` results (shed at submit, nothing queued)
   and the service takes traffic again immediately after.
3. **Zero request loss** — killing a worker mid-stream or gracefully
   recycling it never loses an accepted request: every future resolves,
   and resolved labels still match the classifier.
4. **Observability** — per-shard metrics surface under the
   ``name[shard=N]`` convention, export as Prometheus labels, and the
   admin ``/shards`` route reports worker state.

Worker processes start with the ``spawn`` context (~1s each on a small
host), so services are shared per module scope where the test only
reads.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import RPMClassifier, SaxParams
from repro.obs.export import to_prometheus
from repro.obs.metrics import scoped_registry
from repro.serve import (
    CompiledModel,
    PredictionService,
    ResultStatus,
    ServeConfig,
    SharedPatternBank,
    ShardedPredictionService,
)


@pytest.fixture(scope="module")
def fitted(tiny_gun):
    clf = RPMClassifier(sax_params=SaxParams(24, 4, 4), seed=0)
    clf.fit(tiny_gun.X_train, tiny_gun.y_train)
    return clf


@pytest.fixture(scope="module")
def compiled(fitted):
    with CompiledModel.from_classifier(fitted) as model:
        yield model


@pytest.fixture(scope="module")
def sharded(compiled):
    """A running two-shard service shared by the read-only tests,
    publishing to a registry of its own."""
    with scoped_registry():
        service = ShardedPredictionService(
            compiled, config=ServeConfig(n_shards=2, warmup=False)
        )
    with service:
        yield service


class TestSharedPatternBank:
    def test_attach_views_are_bitwise_equal_and_readonly(self, compiled):
        bank = SharedPatternBank.build(compiled)
        try:
            attached = SharedPatternBank.attach(bank.spec)
            try:
                assert len(attached.values) == len(compiled.bank.values)
                for view, original in zip(attached.values, compiled.bank.values):
                    np.testing.assert_array_equal(view, original)
                    with pytest.raises(ValueError):
                        view[0] = 0.0
                assert len(attached.native_plan) == len(compiled.bank.native_plan)
                for got, want in zip(attached.native_plan, compiled.bank.native_plan):
                    assert got.length == want.length
                    assert got.cols == want.cols
                    for pre_got, pre_want in zip(got.pres, want.pres):
                        np.testing.assert_array_equal(pre_got.q, pre_want.q)
                        assert pre_got.q_is_flat == pre_want.q_is_flat
                        # Exact equality: qq travels by pickle-able
                        # floats, never through a decimal text format.
                        assert pre_got.qq == pre_want.qq
            finally:
                attached.close()
        finally:
            bank.close()
            bank.unlink()

    def test_shared_bank_model_transforms_bitwise(self, compiled, tiny_gun):
        bank = SharedPatternBank.build(compiled)
        try:
            attached = SharedPatternBank.attach(bank.spec)
            try:
                model = CompiledModel.from_shared_bank(
                    attached.values,
                    attached.native_plan,
                    compiled.classifier,
                    rotation_invariant=compiled.rotation_invariant,
                    classes=compiled.classes,
                    series_length=compiled.series_length,
                )
                np.testing.assert_array_equal(
                    model.transform(tiny_gun.X_test),
                    compiled.transform(tiny_gun.X_test),
                )
            finally:
                attached.close()
        finally:
            bank.close()
            bank.unlink()

    def test_unlink_releases_the_segment(self, compiled):
        bank = SharedPatternBank.build(compiled)
        name = bank.spec["shm_name"]
        bank.close()
        bank.unlink()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestShardedEquivalence:
    def test_sharded_equals_single_process_and_classifier(
        self, sharded, fitted, compiled, tiny_gun
    ):
        expected = fitted.predict(tiny_gun.X_test)
        with PredictionService(compiled, config=ServeConfig(warmup=False)) as single:
            np.testing.assert_array_equal(single.predict(tiny_gun.X_test), expected)
        np.testing.assert_array_equal(sharded.predict(tiny_gun.X_test), expected)

    def test_features_are_bitwise_across_the_process_boundary(
        self, sharded, compiled, tiny_gun
    ):
        results = sharded.predict_many(tiny_gun.X_test)
        features = np.stack([r.features for r in results])
        np.testing.assert_array_equal(features, compiled.transform(tiny_gun.X_test))

    def test_results_carry_their_shard(self, sharded, tiny_gun):
        results = sharded.predict_many(tiny_gun.X_test)
        shards = {r.shard for r in results}
        assert shards <= {0, 1}
        # Round-robin routing touches every shard on a full test set.
        assert len(shards) == 2

    def test_ragged_predict_many_yields_typed_invalid_rows(self, sharded, tiny_gun):
        m = tiny_gun.X_test.shape[1]
        rows = [tiny_gun.X_test[0], np.zeros(m // 2), tiny_gun.X_test[1]]
        results = sharded.predict_many(rows)
        assert results[0].ok and results[2].ok
        assert results[1].status is ResultStatus.INVALID
        assert results[1].error_code == "bad-length"

    def test_submit_requires_running_service(self, compiled, tiny_gun):
        service = ShardedPredictionService(
            compiled,
            config=ServeConfig(n_shards=1, warmup=False),
        )
        with pytest.raises(RuntimeError, match="not running"):
            service.submit(tiny_gun.X_test[0])

    def test_rejects_bad_knobs(self, compiled):
        # Knob validation lives in ServeConfig now; the legacy per-knob
        # keywords route through it and reject identically.
        with pytest.raises(ValueError, match="n_shards"):
            ServeConfig(n_shards=-1)
        with pytest.raises(ValueError, match="max_queue_per_shard"):
            ShardedPredictionService(
                compiled,
                config=ServeConfig(max_queue_per_shard=0),
            )
        with pytest.raises(ValueError, match="admission_budget_ms"):
            ShardedPredictionService(
                compiled,
                config=ServeConfig(admission_budget_ms=0.0),
            )

    def test_n_shards_zero_means_tier_default(self, compiled):
        # In the redesigned API n_shards=0 is "use the tier default"
        # (the single-process service ignores it), not an error.
        service = ShardedPredictionService(compiled, config=ServeConfig())
        assert service.n_shards == 2


class TestAdmissionControl:
    def test_burst_past_queue_cap_sheds_typed_overload(self, compiled, tiny_gun):
        with scoped_registry() as metrics:
            service = ShardedPredictionService(
                compiled,
                config=ServeConfig(
                    n_shards=1, warmup=False, max_queue_per_shard=1, max_delay_ms=0.0
                ),
            )
        with service:
            futures = [service.submit(row) for row in tiny_gun.X_test]
            results = [f.result(timeout=60.0) for f in futures]
            statuses = {r.status for r in results}
            assert statuses <= {ResultStatus.OK, ResultStatus.OVERLOAD}
            shed = [r for r in results if r.status is ResultStatus.OVERLOAD]
            assert shed, "burst past max_queue_per_shard=1 shed nothing"
            assert any(r.ok for r in results)
            # Shed results are typed and explain themselves.
            assert shed[0].error_code == "over-capacity"
            assert "max_queue_per_shard" in shed[0].error_message
            assert metrics.counter_value("serve.overload") == len(shed)
            # Shedding is not an outage: the next request after the
            # burst drains goes straight through.
            assert service.predict_one(tiny_gun.X_test[0], wait_s=60.0).ok
            assert metrics.gauge_value("serve.queue_depth") == 0

    def test_overload_lands_in_the_flight_recorder(self, compiled, tiny_gun):
        with scoped_registry():
            service = ShardedPredictionService(
                compiled,
                config=ServeConfig(
                    n_shards=1, warmup=False, max_queue_per_shard=1, max_delay_ms=0.0
                ),
            )
        with service:
            futures = [service.submit(row) for row in tiny_gun.X_test[:8]]
            [f.result(timeout=60.0) for f in futures]
            reasons = {entry["reason"] for entry in service.flight.records()}
        assert "overload" in reasons


class TestWorkerLoss:
    def test_killed_worker_loses_no_accepted_requests(
        self, compiled, fitted, tiny_gun
    ):
        expected = fitted.predict(tiny_gun.X_test)
        with scoped_registry() as metrics:
            service = ShardedPredictionService(
                compiled, config=ServeConfig(n_shards=2, warmup=False, max_delay_ms=20.0)
            )
        with service:
            futures = [service.submit(row) for row in tiny_gun.X_test]
            service._shards[0].process.kill()
            results = [f.result(timeout=60.0) for f in futures]
            assert all(r.ok for r in results), sorted(
                {r.status.value for r in results if not r.ok}
            )
            np.testing.assert_array_equal(
                np.array([r.label for r in results]), expected
            )
            assert metrics.counter_value("serve.worker_deaths") >= 1
            assert metrics.gauge_value("serve.queue_depth") == 0

    def test_graceful_recycle_respawns_and_stays_bitwise(
        self, compiled, fitted, tiny_gun
    ):
        with scoped_registry() as metrics:
            service = ShardedPredictionService(
                compiled, config=ServeConfig(n_shards=2, warmup=False)
            )
        with service:
            before = [s["generation"] for s in service.shard_states()]
            service.recycle(1)
            after = {s["shard"]: s for s in service.shard_states()}
            assert after[1]["generation"] == before[1] + 1
            assert metrics.counter_value("serve.worker_recycles") == 1
            np.testing.assert_array_equal(
                service.predict(tiny_gun.X_test), fitted.predict(tiny_gun.X_test)
            )


class TestShardObservability:
    def test_per_shard_series_use_the_label_convention(self, sharded, tiny_gun):
        sharded.predict(tiny_gun.X_test)
        snap = sharded.metrics.snapshot()
        labeled = [k for k in snap["counters"] if k.startswith("serve.requests[")]
        assert "serve.requests[shard=0]" in labeled
        assert "serve.requests[shard=1]" in labeled
        assert snap["gauges"]["serve.queue_depth[shard=0]"] == 0
        assert snap["histograms"]["serve.latency_seconds[shard=0]"]["count"] >= 1

    def test_prometheus_export_renders_shard_labels(self, sharded):
        text = to_prometheus(sharded.metrics)
        assert 'serve_requests_total{shard="0"}' in text
        assert 'serve_requests_total{shard="1"}' in text
        # One TYPE header per base metric, not one per labeled series.
        assert text.count("# TYPE serve_requests_total counter") == 1
        assert 'serve_latency_seconds{shard="0",quantile="0.5"}' in text

    def test_admin_shards_route(self, compiled, tiny_gun):
        with scoped_registry():
            service = ShardedPredictionService(
                compiled, config=ServeConfig(n_shards=1, warmup=False, admin_port=0)
            )
        with service:
            with urllib.request.urlopen(service.admin.url("/shards")) as response:
                payload = json.load(response)
        assert [s["shard"] for s in payload["shards"]] == [0]
        assert payload["shards"][0]["state"] == "up"

    def test_single_process_service_has_no_shards_route(self, compiled):
        with scoped_registry():
            service = PredictionService(
                compiled, config=ServeConfig(warmup=False, admin_port=0)
            )
        with service:
            url = service.admin.url("/shards")
            try:
                urllib.request.urlopen(url)
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
            else:  # pragma: no cover
                pytest.fail("/shards should 404 on a single-process service")
