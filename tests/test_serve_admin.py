"""Admin surface, flight recorder and request correlation.

Contracts under test:

1. `/healthz` / `/readyz` report the liveness/readiness transitions of
   the service around start/warm-up/stop;
2. `/metrics` is valid Prometheus text and carries the serve counters
   and latency quantiles; `/metrics.json` is the same snapshot as JSON;
3. the flight recorder captures slow/error/timeout/invalid requests in
   a bounded ring (FIFO eviction, thread-safe), and `/debug/requests`
   retrieves an entry by the request ID the caller's
   `PredictionResult` carried;
4. request IDs correlate end to end: submit → result → `serve.batch`
   span → flight entry → structured log line;
5. the admin surface is an observer — predictions are bitwise
   identical with it on or off.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import RPMClassifier, SaxParams
from repro.obs import Tracer, scoped_registry, tracing
from repro.serve import (
    AdminServer,
    CompiledModel,
    FlightRecord,
    FlightRecorder,
    PredictionService,
    ResultStatus,
    ServeConfig,
)

PROMETHEUS_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+=\"[^\"]*\"\})? [-+]?[0-9.eE+-]+$"
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


def _get(url: str) -> tuple[int, str]:
    """GET returning (status, body) without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


class TestHealthAndReadiness:
    def test_transitions_around_lifecycle(self, compiled):
        service = PredictionService(compiled, config=ServeConfig(warmup=True))
        with AdminServer(service) as admin:
            # Not started: alive=no, ready=no.
            status, body = _get(admin.url("/healthz"))
            assert status == 503 and json.loads(body)["status"] == "down"
            status, body = _get(admin.url("/readyz"))
            assert status == 503 and json.loads(body)["status"] == "warming"

            service.start()
            try:
                status, body = _get(admin.url("/healthz"))
                assert status == 200 and json.loads(body)["status"] == "ok"
                status, body = _get(admin.url("/readyz"))
                assert status == 200 and json.loads(body)["status"] == "ready"
            finally:
                service.stop()

            status, _ = _get(admin.url("/healthz"))
            assert status == 503

    def test_embedded_admin_starts_and_stops_with_service(self, compiled):
        service = PredictionService(
            compiled,
            config=ServeConfig(warmup=False, admin_port=0),
        )
        with service:
            assert service.admin is not None
            url = service.admin.url("/healthz")
            status, _ = _get(url)
            assert status == 200
        assert service.admin is None
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url, timeout=0.5)

    def test_index_lists_routes_and_unknown_is_404(self, compiled):
        with PredictionService(
            compiled,
            config=ServeConfig(warmup=False, admin_port=0),
        ) as service:
            status, body = _get(service.admin.url("/"))
            assert status == 200
            assert "/debug/requests" in json.loads(body)["routes"]
            status, _ = _get(service.admin.url("/no/such/route"))
            assert status == 404


class TestMetricsEndpoint:
    def test_prometheus_text_is_valid_and_counts_requests(self, compiled, tiny_gun):
        metrics_url = None
        with scoped_registry():
            with PredictionService(
                compiled,
                config=ServeConfig(warmup=False, admin_port=0),
            ) as service:
                service.predict(tiny_gun.X_test[:5])
                metrics_url = service.admin.url("/metrics")
                status, body = _get(metrics_url)
        assert status == 200
        samples = [l for l in body.splitlines() if l and not l.startswith("#")]
        assert samples
        for line in samples:
            assert PROMETHEUS_SAMPLE.match(line), f"bad exposition line: {line!r}"
        assert "serve_requests_total 5" in body
        assert 'serve_latency_seconds{quantile="0.99"}' in body
        assert re.search(r"^serve_batches_total [1-9]", body, re.M)

    def test_json_view_matches_prometheus_counts(self, compiled, tiny_gun):
        with scoped_registry():
            with PredictionService(
                compiled,
                config=ServeConfig(warmup=False, admin_port=0),
            ) as service:
                service.predict(tiny_gun.X_test[:3])
                status, body = _get(service.admin.url("/metrics.json"))
        assert status == 200
        document = json.loads(body)
        assert document["counters"]["serve.requests"] == 3
        assert document["histograms"]["serve.latency_seconds"]["count"] == 3


class TestFlightRecorder:
    def test_eviction_is_fifo_and_bounded(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.record(FlightRecord(f"req-{i}", "timeout", "timeout"))
        assert len(recorder) == 3
        assert recorder.total_recorded == 5
        ids = [entry["request_id"] for entry in recorder.records()]
        assert ids == ["req-4", "req-3", "req-2"]  # newest first
        assert recorder.find("req-0") is None and recorder.find("req-1") is None
        assert recorder.find("req-4") is not None

    def test_capacity_zero_disables_capture(self):
        recorder = FlightRecorder(capacity=0)
        recorder.record(FlightRecord("req-1", "error", "error"))
        assert len(recorder) == 0 and not recorder.enabled

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=-1)

    def test_thread_safety_under_concurrent_recording(self):
        recorder = FlightRecorder(capacity=64)
        n_threads, per_thread = 8, 50

        def hammer(tid):
            for i in range(per_thread):
                recorder.record(
                    FlightRecord(f"req-{tid}-{i}", "timeout", "timeout")
                )
                recorder.records(limit=5)
                recorder.find(f"req-{tid}-{i}")

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert recorder.total_recorded == n_threads * per_thread
        assert len(recorder) == 64

    def test_concurrent_submits_all_captured(self, compiled, tiny_gun):
        """Expired-deadline submits from many threads each land one entry."""
        rows = tiny_gun.X_test[:8]
        with PredictionService(
            compiled,
            config=ServeConfig(warmup=False, max_delay_ms=10.0, flight_capacity=64),
        ) as service:
            futures = [None] * len(rows)

            def submit(i):
                futures[i] = service.submit(rows[i], deadline_ms=0.0)

            threads = [
                threading.Thread(target=submit, args=(i,)) for i in range(len(rows))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            results = [f.result(timeout=5.0) for f in futures]
            assert all(r.status is ResultStatus.TIMEOUT for r in results)
            for r in results:
                # Futures resolve *before* flight capture (recording
                # never sits on the latency path), so allow the worker
                # a moment to finish writing the batch's entries.
                deadline = time.monotonic() + 5.0
                entry = service.flight.find(r.request_id)
                while entry is None and time.monotonic() < deadline:
                    time.sleep(0.005)
                    entry = service.flight.find(r.request_id)
                assert entry is not None
                assert entry.reason == "timeout"
                assert entry.batch_id == r.batch_id


class TestRequestCorrelation:
    def test_id_round_trip_submit_result_span_flight(self, compiled, tiny_gun):
        tracer = Tracer()
        with tracing(tracer), PredictionService(
            compiled, config=ServeConfig(warmup=False)
        ) as service:
            result = service.predict_one(tiny_gun.X_test[0], deadline_ms=0.0)
        assert result.status is ResultStatus.TIMEOUT
        assert result.request_id.startswith("req-")
        assert result.batch_id is not None
        # The serve.batch span carries the request ID and batch ID.
        batch_spans = [s for s in tracer.roots if s.name == "serve.batch"]
        assert any(
            result.request_id in s.meta.get("request_ids", ())
            and s.meta.get("batch_id") == result.batch_id
            for s in batch_spans
        )
        # The flight entry is retrievable by the result's request ID and
        # carries the span subtree plus the timing fields.
        entry = service.flight.find(result.request_id)
        assert entry is not None
        assert entry.status == "timeout" and entry.batch_id == result.batch_id
        assert entry.deadline_slack_ms is not None and entry.deadline_slack_ms <= 0
        assert any(s["name"] == "serve.batch" for s in entry.spans)

    def test_debug_requests_lookup_by_result_id(self, compiled, tiny_gun):
        with PredictionService(
            compiled,
            config=ServeConfig(warmup=False, max_delay_ms=10.0, admin_port=0),
        ) as service:
            result = service.predict_one(tiny_gun.X_test[0], deadline_ms=0.0)
            status, body = _get(
                service.admin.url(f"/debug/requests?id={result.request_id}")
            )
            assert status == 200
            entry = json.loads(body)
            assert entry["request_id"] == result.request_id
            assert entry["status"] == "timeout"
            assert entry["batch_id"] == result.batch_id
            assert entry["deadline_slack_ms"] <= 0
            # Listing view includes it too, newest first.
            status, body = _get(service.admin.url("/debug/requests?limit=10"))
            listed = json.loads(body)
            assert any(
                e["request_id"] == result.request_id for e in listed["entries"]
            )
            # Unknown IDs 404 with a hint.
            status, body = _get(service.admin.url("/debug/requests?id=req-99999"))
            assert status == 404
            status, _ = _get(service.admin.url("/debug/requests?limit=bogus"))
            assert status == 400

    def test_slow_requests_are_captured_without_tracing(self, compiled, tiny_gun):
        # slow_ms=0.0001: every OK request counts as slow; the flight
        # span subtree comes from the throwaway per-batch tracer, which
        # is active for the batch, so the model's span nests under it.
        with PredictionService(
            compiled,
            config=ServeConfig(warmup=False, slow_ms=0.0001, flight_capacity=8),
        ) as service:
            result = service.predict_one(tiny_gun.X_test[0])
        assert result.ok
        entry = service.flight.find(result.request_id)
        assert entry is not None
        assert entry.reason == "slow"
        assert [(s["name"], s["parent"]) for s in entry.spans] == [
            ("serve.batch", None),
            ("compiled.transform", "serve.batch"),
        ]

    def test_invalid_requests_are_captured(self, compiled):
        with PredictionService(compiled, config=ServeConfig(warmup=False)) as service:
            result = service.predict_one(np.zeros(3))
        assert result.status is ResultStatus.INVALID
        entry = service.flight.find(result.request_id)
        assert entry is not None
        assert entry.reason == "invalid" and entry.error_code == "bad-length"
        assert entry.batch_id is None

    def test_healthy_fast_requests_stay_unrecorded(self, compiled, tiny_gun):
        with PredictionService(
            compiled,
            config=ServeConfig(warmup=False, slow_ms=60_000.0),
        ) as service:
            service.predict(tiny_gun.X_test[:4])
            assert len(service.flight) == 0

    def test_anomaly_log_lines_carry_the_request_id(self, compiled, tiny_gun, caplog):
        with caplog.at_level("WARNING", logger="repro.serve"):
            with PredictionService(
                compiled,
                config=ServeConfig(warmup=False),
            ) as service:
                result = service.predict_one(tiny_gun.X_test[0], deadline_ms=0.0)
        matching = [
            r
            for r in caplog.records
            if getattr(r, "request_id", None) == result.request_id
        ]
        assert matching, "no log line carried the request ID"
        assert matching[0].batch_id == result.batch_id


class TestDebugRequestsReasonFilter:
    def test_filter_returns_only_matching_entries(self, compiled, tiny_gun):
        with PredictionService(
            compiled,
            config=ServeConfig(warmup=False, max_delay_ms=10.0, admin_port=0),
        ) as service:
            timed_out = service.predict_one(tiny_gun.X_test[0], deadline_ms=0.0)
            invalid = service.predict_one(np.zeros(3))
            assert timed_out.status is ResultStatus.TIMEOUT
            assert invalid.status is ResultStatus.INVALID
            # Timeout capture is async (off the latency path): wait for
            # both entries to land before filtering.
            deadline = time.monotonic() + 5.0
            while len(service.flight) < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert len(service.flight) == 2

            status, body = _get(
                service.admin.url("/debug/requests?reason=timeout")
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["reason"] == "timeout"
            assert [e["request_id"] for e in payload["entries"]] == [
                timed_out.request_id
            ]

            status, body = _get(
                service.admin.url("/debug/requests?reason=invalid")
            )
            payload = json.loads(body)
            assert [e["request_id"] for e in payload["entries"]] == [
                invalid.request_id
            ]

    def test_limit_applies_after_the_filter(self, compiled, tiny_gun):
        with PredictionService(
            compiled,
            config=ServeConfig(warmup=False, max_delay_ms=10.0, admin_port=0),
        ) as service:
            service.predict_one(tiny_gun.X_test[0], deadline_ms=0.0)
            for _ in range(3):
                service.predict_one(np.zeros(3))
            deadline = time.monotonic() + 5.0
            while len(service.flight) < 4 and time.monotonic() < deadline:
                time.sleep(0.005)
            status, body = _get(
                service.admin.url("/debug/requests?reason=invalid&limit=2")
            )
            assert status == 200
            entries = json.loads(body)["entries"]
            assert len(entries) == 2
            assert all(e["reason"] == "invalid" for e in entries)

    def test_unknown_reason_is_a_400_listing_the_vocabulary(self, compiled):
        with PredictionService(
            compiled,
            config=ServeConfig(warmup=False, admin_port=0),
        ) as service:
            status, body = _get(
                service.admin.url("/debug/requests?reason=bogus")
            )
            assert status == 400
            payload = json.loads(body)
            assert "bogus" in payload["error"]
            assert "drift" in payload["reasons"]
            assert payload["reasons"] == sorted(payload["reasons"])


class TestDriftRoute:
    def test_404_with_a_hint_when_monitoring_is_off(self, compiled):
        with PredictionService(
            compiled,
            config=ServeConfig(warmup=False, admin_port=0),
        ) as service:
            status, body = _get(service.admin.url("/drift"))
            assert status == 404
            assert "attach_drift" in json.loads(body)["error"]

    def test_payload_when_monitoring_is_on(self, fitted, compiled, tiny_gun):
        from repro.obs.sketch import ReferenceDistribution

        features = compiled.transform(tiny_gun.X_train)
        reference = ReferenceDistribution.from_features(
            features, tiny_gun.X_train
        )
        with scoped_registry():
            with PredictionService(
                compiled,
                config=ServeConfig(warmup=False, admin_port=0),
            ) as service:
                monitor = service.attach_drift(reference)
                service.predict(tiny_gun.X_train[:8])
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    state = monitor.describe()
                    if state["rows"] + state["backlog"] >= 8:
                        break
                    time.sleep(0.01)
                monitor.flush()
                status, body = _get(service.admin.url("/drift"))
                assert status == 200
                payload = json.loads(body)
                assert payload["rows"] == 8
                assert payload["reference"]["n_columns"] == compiled.n_patterns
                assert "serve.drift.score" in payload["gauges"]
                # The drift route shows up in the index alongside the rest.
                status, body = _get(service.admin.url("/"))
                assert "/drift" in json.loads(body)["routes"]


class TestAdminIsAnObserver:
    def test_predictions_bitwise_identical_with_admin_on(
        self, fitted, compiled, tiny_gun
    ):
        expected = fitted.predict(tiny_gun.X_test)
        with PredictionService(compiled, config=ServeConfig(warmup=False)) as plain:
            baseline = plain.predict(tiny_gun.X_test)
        with PredictionService(
            compiled,
            config=ServeConfig(warmup=False, admin_port=0, slow_ms=0.0001),
        ) as service:
            # Scrape while predicting to exercise concurrent reads.
            labels = service.predict(tiny_gun.X_test)
            _get(service.admin.url("/metrics"))
            _get(service.admin.url("/debug/requests"))
        np.testing.assert_array_equal(baseline, expected)
        np.testing.assert_array_equal(labels, expected)

    def test_flight_capture_disabled_is_bitwise_identical_too(
        self, fitted, compiled, tiny_gun
    ):
        with PredictionService(
            compiled,
            config=ServeConfig(warmup=False, flight_capacity=0),
        ) as service:
            labels = service.predict(tiny_gun.X_test)
        np.testing.assert_array_equal(labels, fitted.predict(tiny_gun.X_test))
