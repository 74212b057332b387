"""Serving-layer tests: compiled transform equivalence, micro-batching,
deadlines, validation and artifact format checks.

The load-bearing assertion is *bitwise* equality between the serving
path (CompiledModel / PredictionService) and the training-side
``RPMClassifier`` transform and predictions — for every executor
configuration, through artifact round-trips, and regardless of how
requests were batched.

``TierContract`` holds the client contract both serving tiers keep —
typed ``INVALID``/``TIMEOUT``/model-failure results, drain-on-stop, no
stranded future when submit races stop, the ``serve.*`` metrics — and
runs once per tier: in-process (``TestPredictionService``) and on a
one-shard sharded service (``TestShardedContract``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import RPMClassifier, SaxParams
from repro.core.io import FORMAT_VERSION, ModelFormatError, load_model, save_model
from repro.obs import Tracer, registry, scoped_registry, tracing
from repro.ml.svm import SVC
from repro.serve import (
    CompiledModel,
    PredictionService,
    ResultStatus,
    ServeConfig,
    ShardedPredictionService,
    validate_series,
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


class TestCompiledModel:
    def test_transform_bitwise_equals_classifier(self, fitted, compiled, tiny_gun):
        expected = fitted.transform(tiny_gun.X_test)
        np.testing.assert_array_equal(compiled.transform(tiny_gun.X_test), expected)

    def test_predict_bitwise_equals_classifier(self, fitted, compiled, tiny_gun):
        np.testing.assert_array_equal(
            compiled.predict(tiny_gun.X_test), fitted.predict(tiny_gun.X_test)
        )

    @pytest.mark.parametrize("backend,jobs", [("serial", 1), ("thread", 2)])
    def test_executor_config_never_changes_bits(
        self, fitted, tiny_gun, backend, jobs
    ):
        with CompiledModel.from_classifier(fitted, n_jobs=jobs) as model:
            assert model._executor.backend == backend
            np.testing.assert_array_equal(
                model.transform(tiny_gun.X_test), fitted.transform(tiny_gun.X_test)
            )

    def test_artifact_round_trip_is_bitwise(self, fitted, tiny_gun, tmp_path):
        path = tmp_path / "model.npz"
        save_model(fitted, path)
        with CompiledModel.load(path) as model:
            np.testing.assert_array_equal(
                model.predict(tiny_gun.X_test), fitted.predict(tiny_gun.X_test)
            )
            assert model.series_length == tiny_gun.X_train.shape[1]

    def test_short_input_uses_resampled_plan(self, fitted, compiled, tiny_gun):
        # Inputs shorter than the longest pattern trigger per-length
        # resampling; the compiled plan must match the training path there too.
        X_short = tiny_gun.X_test[:4, : compiled.max_pattern_length - 2]
        np.testing.assert_array_equal(
            compiled.transform(X_short), fitted.transform(X_short)
        )

    def test_rotation_invariant_path(self, tiny_gun):
        clf = RPMClassifier(
            sax_params=SaxParams(24, 4, 4), seed=0, rotation_invariant=True
        )
        clf.fit(tiny_gun.X_train, tiny_gun.y_train)
        with CompiledModel.from_classifier(clf, n_jobs=2) as model:
            np.testing.assert_array_equal(
                model.transform(tiny_gun.X_test), clf.transform(tiny_gun.X_test)
            )

    def test_rejects_unfitted_classifier(self):
        with pytest.raises(RuntimeError, match="unfitted"):
            CompiledModel.from_classifier(RPMClassifier(sax_params=SaxParams(24, 4, 4)))

    def test_rejects_bad_input_shapes(self, compiled):
        with pytest.raises(ValueError, match="2-D"):
            compiled.transform(np.zeros(10))

    def test_warmup_and_describe(self, compiled):
        compiled.warmup(n=2)
        assert "patterns" in compiled.describe()


@pytest.fixture(scope="module")
def in_process(compiled):
    """A running in-process service shared by the read-only contract
    tests, publishing to a registry of its own."""
    with scoped_registry():
        service = PredictionService(compiled, config=ServeConfig(max_delay_ms=20.0))
    with service:
        yield service


@pytest.fixture(scope="module")
def one_shard(compiled):
    """A running one-shard service shared by the read-only contract tests
    (a sharded start spawns a worker process, about a second)."""
    with scoped_registry():
        service = ShardedPredictionService(
            compiled, config=ServeConfig(n_shards=1, max_delay_ms=20.0, warmup=False)
        )
    with service:
        yield service


class TierContract:
    """The client contract both serving tiers keep.

    A subclass names the tier (``tier``), the config knobs it needs
    (``knobs``), a ``served`` fixture yielding a running service that
    read-only tests share, and how many fresh services the
    submit-versus-stop race starts (``racing_rounds``). Shared services
    carry their counters across tests, so counts are read as deltas.
    """

    tier: type
    knobs: dict = {}
    racing_rounds = 20

    def config(self, **knobs) -> ServeConfig:
        return ServeConfig(**self.knobs, **knobs)

    def test_invalid_inputs_get_typed_results(self, served, tiny_gun):
        m = tiny_gun.X_test.shape[1]
        before = served.metrics.counter_value("serve.invalid")
        nan_result = served.predict_one(np.full(m, np.nan))
        short_result = served.predict_one(np.zeros(3))
        matrix_result = served.predict_one(np.zeros((2, m)))
        text_result = served.predict_one(["a"] * m)
        assert nan_result.status is ResultStatus.INVALID
        assert nan_result.error_code == "non-finite"
        assert short_result.error_code == "bad-length"
        assert matrix_result.error_code == "bad-shape"
        assert text_result.error_code == "bad-dtype"
        assert served.metrics.counter_value("serve.invalid") - before == 4

    def test_ragged_predict_many_yields_per_row_invalid(self, served, tiny_gun):
        # Regression: np.asarray on a ragged batch raised ValueError out
        # of predict_many instead of producing typed per-row results.
        m = tiny_gun.X_test.shape[1]
        rows = [tiny_gun.X_test[0], np.zeros(m // 2), tiny_gun.X_test[1]]
        results = served.predict_many(rows)
        assert results[0].ok and results[2].ok
        assert results[1].status is ResultStatus.INVALID
        assert results[1].error_code == "bad-length"

    def test_expired_deadline_yields_timeout(self, served, tiny_gun):
        before = served.metrics.counter_value("serve.deadline_misses")
        result = served.predict_one(tiny_gun.X_test[0], deadline_ms=0.0)
        assert result.status is ResultStatus.TIMEOUT
        assert result.deadline_missed
        assert served.metrics.counter_value("serve.deadline_misses") > before

    def test_predict_raises_on_any_failure(self, served, tiny_gun):
        X = tiny_gun.X_test[:3].copy()
        X[1, 0] = np.nan
        with pytest.raises(RuntimeError, match="non-finite"):
            served.predict(X)

    def test_stop_drains_queued_requests(self, compiled, tiny_gun):
        with scoped_registry():
            service = self.tier(
                compiled, config=self.config(max_batch=4, max_delay_ms=50.0, warmup=False)
            )
        service.start()
        futures = [service.submit(row) for row in tiny_gun.X_test[:10]]
        service.stop()
        assert all(f.result(timeout=1.0).ok for f in futures)

    def test_submit_racing_stop_never_strands_a_future(self, compiled, tiny_gun):
        # Regression: submit() could observe _running=True, lose the CPU
        # while stop() shut the transport down, then enqueue into a dead
        # service — a future nobody would resolve. Now submit and stop
        # serialize on a lock, so every accepted future resolves (OK or
        # a typed "service-stopped" ERROR) and none hangs.
        rows = tiny_gun.X_test
        for _ in range(self.racing_rounds):
            with scoped_registry():
                service = self.tier(
                    compiled, config=self.config(max_batch=4, max_delay_ms=5.0, warmup=False)
                )
            service.start()
            futures: list = []
            barrier = threading.Barrier(3)

            def submitter() -> None:
                barrier.wait()
                local = []
                for row in rows:
                    try:
                        local.append(service.submit(row))
                    except RuntimeError:
                        break  # typed fast-fail after stop: fine
                futures.extend(local)

            threads = [threading.Thread(target=submitter) for _ in range(2)]
            for t in threads:
                t.start()
            barrier.wait()
            service.stop()
            for t in threads:
                t.join()
            for f in futures:
                result = f.result(timeout=5.0)  # hangs = the regression
                assert result.ok or result.status is ResultStatus.ERROR
            assert service.metrics.gauge_value("serve.queue_depth") == 0

    def test_metrics_emitted(self, compiled, tiny_gun):
        # The service lands its counters in the scoped process-global
        # registry, and nothing leaks out of the scope.
        with scoped_registry() as metrics:
            with self.tier(compiled, config=self.config(warmup=False)) as service:
                service.predict(tiny_gun.X_test[:5])
            snap = metrics.snapshot()
        assert snap["counters"]["serve.requests"] == 5
        assert snap["counters"]["serve.batches"] >= 1
        assert snap["gauges"]["serve.queue_depth"] == 0
        assert snap["histograms"]["serve.batch_size"]["count"] >= 1
        assert snap["histograms"]["serve.latency_seconds"]["count"] == 5
        assert snap["histograms"]["serve.queue_wait_seconds"]["count"] == 5
        assert registry() is not metrics

    def test_publishes_to_the_registry_of_its_construction(self, compiled, tiny_gun):
        with scoped_registry() as metrics:
            service = self.tier(compiled, config=self.config(warmup=False))
        with service:
            service.predict(tiny_gun.X_test[:3])
        assert service.metrics is metrics
        assert metrics.counter_value("serve.requests") == 3
        assert registry() is not metrics

    def test_model_failure_answers_every_live_member_and_keeps_serving(
        self, fitted, compiled, tiny_gun
    ):
        # A classifier that was never fitted fails inside the model
        # call: every live member of the batch gets a typed ERROR, the
        # expired one still gets its TIMEOUT, and the tier serves on.
        broken = CompiledModel(
            fitted.patterns_, SVC(), series_length=compiled.series_length
        )
        with scoped_registry() as metrics:
            service = self.tier(
                broken, config=self.config(max_batch=4, max_delay_ms=50.0, warmup=False)
            )
        with service:
            futures = [service.submit(row) for row in tiny_gun.X_test[:3]]
            futures.append(service.submit(tiny_gun.X_test[3], deadline_ms=0.0))
            results = [f.result(timeout=60.0) for f in futures]
            for result in results[:3]:
                assert result.status is ResultStatus.ERROR
                assert result.error_code == "model-failure"
                assert "SVC used before fit()" in result.error_message
            assert results[3].status is ResultStatus.TIMEOUT
            assert metrics.counter_value("serve.errors") == 3
            service.swap(compiled)
            result = service.predict_one(tiny_gun.X_test[0], wait_s=60.0)
        assert result.ok
        assert result.label == fitted.predict(tiny_gun.X_test[:1])[0]


class TestPredictionService(TierContract):
    tier = PredictionService

    @pytest.fixture
    def served(self, in_process):
        return in_process

    def test_batched_predictions_bitwise_equal_direct(self, fitted, compiled, tiny_gun):
        with PredictionService(
            compiled,
            config=ServeConfig(max_batch=8, max_delay_ms=5.0),
        ) as service:
            labels = service.predict(tiny_gun.X_test)
        np.testing.assert_array_equal(labels, fitted.predict(tiny_gun.X_test))

    def test_one_by_one_equals_batched(self, fitted, compiled, tiny_gun):
        X = tiny_gun.X_test[:6]
        with PredictionService(
            compiled,
            config=ServeConfig(max_batch=1, max_delay_ms=0.0),
        ) as service:
            singles = [service.predict_one(row) for row in X]
        assert all(r.ok for r in singles)
        np.testing.assert_array_equal(
            np.array([r.label for r in singles]), fitted.predict(X)
        )

    def test_results_carry_features_and_latency(self, fitted, compiled, tiny_gun):
        with PredictionService(compiled) as service:
            result = service.predict_one(tiny_gun.X_test[0])
        np.testing.assert_array_equal(
            result.features, fitted.transform(tiny_gun.X_test[:1])[0]
        )
        assert result.latency_ms >= 0.0

    def test_started_inside_tracing_records_every_batch(self, compiled, tiny_gun):
        # The batcher thread runs in a copy of start()'s context: every
        # batch lands in the tracer as a serve.batch root with the
        # model's compiled.transform child, also after the block exits.
        tracer = Tracer()
        service = PredictionService(compiled, config=ServeConfig(warmup=False))
        with tracing(tracer):
            service.start()
            service.predict(tiny_gun.X_test[:3])
        service.predict(tiny_gun.X_test[3:6])
        service.stop()
        assert tracer.roots
        assert sum(root.counters["batch.size"] for root in tracer.roots) == 6
        for root in tracer.roots:
            assert root.name == "serve.batch"
            assert [child.name for child in root.children] == ["compiled.transform"]

    def test_submit_requires_running_service(self, compiled, tiny_gun):
        service = PredictionService(compiled, config=ServeConfig(warmup=False))
        with pytest.raises(RuntimeError, match="not running"):
            service.submit(tiny_gun.X_test[0])

    def test_rejects_bad_knobs(self, compiled):
        with pytest.raises(ValueError, match="max_batch"):
            PredictionService(compiled, config=ServeConfig(max_batch=0))
        with pytest.raises(ValueError, match="max_delay_ms"):
            PredictionService(compiled, config=ServeConfig(max_delay_ms=-1.0))


class TestShardedContract(TierContract):
    """The same contract on a one-shard sharded tier; the race starts
    fewer fresh services, each a worker-process spawn."""

    tier = ShardedPredictionService
    knobs = {"n_shards": 1}
    racing_rounds = 3

    @pytest.fixture
    def served(self, one_shard):
        return one_shard


class TestValidateSeries:
    def test_accepts_clean_series(self):
        values, code, message = validate_series([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(values, [1.0, 2.0, 3.0])
        assert code is None and message is None

    def test_length_mismatch_names_both_lengths(self):
        _, code, message = validate_series(np.zeros(5), expected_length=7)
        assert code == "bad-length"
        assert "5" in message and "7" in message


class TestModelFormat:
    def test_stale_version_raises_typed_error(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_model(fitted, path)
        import json

        with np.load(path, allow_pickle=False) as archive:
            payload = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(payload["meta_json"]).decode())
        meta["format_version"] = FORMAT_VERSION + 1
        payload["meta_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        stale = tmp_path / "stale.npz"
        np.savez(stale, **payload)
        with pytest.raises(ModelFormatError) as excinfo:
            load_model(stale)
        assert excinfo.value.found == FORMAT_VERSION + 1
        assert excinfo.value.expected == FORMAT_VERSION

    def test_non_model_archive_raises_typed_error(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, data=np.zeros(3))
        with pytest.raises(ModelFormatError, match="not an RPM model archive"):
            load_model(path)

    def test_non_archive_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not an npz archive")
        with pytest.raises(ModelFormatError, match="not an RPM model archive"):
            load_model(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "missing.npz")
