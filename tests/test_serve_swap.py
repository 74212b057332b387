"""Hot-swap under load: zero dropped requests, exact version stamping.

The atomic-swap contract, for both serving tiers:

1. **Zero loss** — a swap during a sustained submit stream never drops
   an accepted request: every future resolves ``OK``.
2. **Exact attribution** — every result's ``model_version`` names the
   model that actually computed it: only the outgoing and incoming
   versions ever appear, results after the swap settles carry the new
   version, and the ``serve.model_version`` gauge (handle generation)
   moves exactly once per swap.
3. **Readiness never flips** — the sharded rolling recycle keeps
   ``/readyz`` green throughout.
4. **Shadow scoring is additive** — attaching a candidate mirrors OK
   traffic off the latency path and its report feeds the promotion
   gate; detaching is idempotent.
5. **Ops surface** — the admin ``POST /swap`` drives the same path
   (registry versions or artifact paths), refuses unknown targets with
   a 409 while the old model keeps serving, and is loopback-only.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import RPMClassifier, SaxParams
from repro.core.io import save_model
from repro.obs import Tracer, scoped_registry, tracing
from repro.serve import (
    ModelHandle,
    ModelRegistry,
    PredictionService,
    ServeConfig,
    ShardedPredictionService,
)


def _isolated(tier, handle, config):
    """``tier(handle, config=config)`` publishing to a registry of its own."""
    with scoped_registry():
        return tier(handle, config=config)


@pytest.fixture(scope="module")
def fitted(tiny_gun):
    clf = RPMClassifier(sax_params=SaxParams(24, 4, 4), seed=0)
    clf.fit(tiny_gun.X_train, tiny_gun.y_train)
    return clf


@pytest.fixture(scope="module")
def fitted_b(tiny_gun):
    clf = RPMClassifier(sax_params=SaxParams(32, 4, 4), seed=1)
    clf.fit(tiny_gun.X_train, tiny_gun.y_train)
    return clf


@pytest.fixture(scope="module")
def registry(fitted, fitted_b, tmp_path_factory):
    root = tmp_path_factory.mktemp("swap_registry")
    save_model(fitted, root / "a.npz")
    save_model(fitted_b, root / "b.npz")
    reg = ModelRegistry(root / "registry")
    reg.publish(root / "a.npz")
    reg.publish(root / "b.npz", parent="v1")
    reg.promote("v1")
    return reg


def _stream_and_swap(service, rows, swap):
    """Submit rows continuously, firing ``swap`` mid-stream.

    Returns the resolved results, split into the pre-swap-call and
    post-swap-return segments.
    """
    futures_before, futures_after = [], []
    for _ in range(6):
        futures_before.extend(service.submit(row) for row in rows)
    swap_done = threading.Event()

    def run_swap():
        swap()
        swap_done.set()

    swapper = threading.Thread(target=run_swap)
    swapper.start()
    # Keep traffic flowing while the swap is in progress (throttled so
    # a multi-second sharded recycle cannot outrun the queue caps).
    while not swap_done.is_set():
        futures_before.extend(service.submit(row) for row in rows[:4])
        swap_done.wait(0.01)
    swapper.join()
    for _ in range(4):
        futures_after.extend(service.submit(row) for row in rows)
    before = [f.result(timeout=120.0) for f in futures_before]
    after = [f.result(timeout=120.0) for f in futures_after]
    return before, after


class TestSingleProcessSwap:
    def test_swap_under_load_drops_nothing_and_stamps_versions(
        self, registry, tiny_gun
    ):
        handle = ModelHandle.open("current", registry=registry.root, n_jobs=1)
        with _isolated(PredictionService, handle, ServeConfig(max_delay_ms=1.0)) as service:
            assert service.model_version == "v1"
            assert service.metrics.gauge_value("serve.model_version") == 1.0
            before, after = _stream_and_swap(
                service, tiny_gun.X_test, lambda: service.swap("v2")
            )
            results = before + after
            assert all(r.ok for r in results), sorted(
                {r.status.value for r in results if not r.ok}
            )
            # Exact attribution: nothing but the two involved versions.
            assert {r.model_version for r in results} <= {"v1", "v2"}
            assert {r.model_version for r in before} >= {"v1"}
            # Everything submitted after the swap returned is new-model.
            assert {r.model_version for r in after} == {"v2"}
            assert service.model_version == "v2"
            # The gauge is the handle generation: it moved exactly once.
            assert service.metrics.gauge_value("serve.model_version") == 2.0
            assert service.metrics.counter_value("serve.swaps") == 1
            assert (
                service.metrics.gauge_value("serve.model_version[version=v2]") == 2.0
            )

    def test_swapped_model_computes_the_new_predictions(
        self, registry, fitted, fitted_b, tiny_gun
    ):
        handle = ModelHandle.open("v1", registry=registry.root)
        with _isolated(PredictionService, handle, ServeConfig(warmup=False)) as service:
            np.testing.assert_array_equal(
                service.predict(tiny_gun.X_test), fitted.predict(tiny_gun.X_test)
            )
            service.swap("v2")
            np.testing.assert_array_equal(
                service.predict(tiny_gun.X_test), fitted_b.predict(tiny_gun.X_test)
            )

    def test_refused_swap_keeps_serving_the_old_model(self, registry, tiny_gun):
        handle = ModelHandle.open("v1", registry=registry.root)
        with _isolated(PredictionService, handle, ServeConfig(warmup=False)) as service:
            with pytest.raises(Exception, match="v99"):
                service.swap("v99")
            result = service.predict_one(tiny_gun.X_test[0])
            assert result.ok and result.model_version == "v1"

    def test_describe_model_names_version_and_generation(self, registry):
        handle = ModelHandle.open("v1", registry=registry.root)
        with _isolated(PredictionService, handle, ServeConfig(warmup=False)) as service:
            info = service.describe_model()
            assert info["version"] == "v1"
            assert info["generation"] == 1
            assert str(registry.root) == info["registry"]


class TestServiceShadow:
    def test_attached_shadow_scores_ok_traffic(self, registry, tiny_gun):
        handle = ModelHandle.open("v1", registry=registry.root)
        with _isolated(PredictionService, handle, ServeConfig(warmup=False)) as service:
            service.attach_shadow("v2", fraction=1.0)
            results = service.predict_many(tiny_gun.X_test)
            assert all(r.ok for r in results)
            report = service.detach_shadow()
            assert report is not None
            assert report.candidate_version == "v2"
            assert report.n_scored == len(results)
            assert 0.0 <= report.disagreement_rate <= 1.0
            assert service.metrics.counter_value("serve.shadow.requests") == len(results)
            # Idempotent: a second detach is a no-op.
            assert service.detach_shadow() is None

    def test_candidate_spans_reach_the_tracer_active_at_attach(self, registry, tiny_gun):
        # The scorer's thread runs in a copy of attach_shadow()'s context.
        handle = ModelHandle.open("v1", registry=registry.root)
        tracer = Tracer()
        with _isolated(PredictionService, handle, ServeConfig(warmup=False)) as service:
            with tracing(tracer):
                service.attach_shadow("v2", fraction=1.0)
            results = service.predict_many(tiny_gun.X_test)
            report = service.detach_shadow()
        assert report.n_scored == len(results)
        assert tracer.roots
        for root in tracer.roots:
            assert root.name == "compiled.predict"
            assert [child.name for child in root.children] == ["compiled.transform"]

    @staticmethod
    def _detach_loses_nothing(service, rows, stall_offers) -> None:
        # Held up between answering requests and offering them to the
        # shadow, the tier must still offer them to the scorer that was
        # attached when they were answered.
        stall_offers(service)
        service.attach_shadow("v2", fraction=1.0)
        results = service.predict_many(rows)
        report = service.detach_shadow()
        assert report.n_scored == len(results)

    def test_detach_waits_for_the_batch_in_flight(
        self, registry, tiny_gun, stall_offers
    ):
        handle = ModelHandle.open("v1", registry=registry.root)
        with _isolated(PredictionService, handle, ServeConfig(warmup=False)) as service:
            self._detach_loses_nothing(service, tiny_gun.X_test, stall_offers)

    def test_sharded_detach_waits_for_the_result_in_flight(
        self, registry, tiny_gun, stall_offers
    ):
        handle = ModelHandle.open("v1", registry=registry.root, n_jobs=1)
        config = ServeConfig(n_shards=1, warmup=False)
        with _isolated(ShardedPredictionService, handle, config) as service:
            self._detach_loses_nothing(service, tiny_gun.X_test[:8], stall_offers)

    def test_double_attach_is_refused(self, registry):
        handle = ModelHandle.open("v1", registry=registry.root)
        with _isolated(PredictionService, handle, ServeConfig(warmup=False)) as service:
            service.attach_shadow("v2", fraction=1.0)
            with pytest.raises(RuntimeError, match="already attached"):
                service.attach_shadow("v2")
            service.detach_shadow()

    def test_identical_candidate_reports_zero_disagreement(
        self, registry, tiny_gun
    ):
        handle = ModelHandle.open("v1", registry=registry.root)
        with _isolated(PredictionService, handle, ServeConfig(warmup=False)) as service:
            service.attach_shadow("v1", fraction=1.0)
            service.predict_many(tiny_gun.X_test)
            report = service.detach_shadow()
            assert report.n_disagreements == 0
            assert report.disagreement_rate == 0.0


class TestAdminSwapRoute:
    @pytest.fixture()
    def served(self, registry):
        handle = ModelHandle.open("v1", registry=registry.root)
        config = ServeConfig(warmup=False, admin_port=0)
        with _isolated(PredictionService, handle, config) as service:
            yield service

    @staticmethod
    def _post(url, payload) -> tuple[int, dict]:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.load(response)
        except urllib.error.HTTPError as exc:
            return exc.code, json.load(exc)

    def test_post_swap_moves_the_model(self, served, tiny_gun):
        status, payload = self._post(served.admin.url("/swap"), {"version": "v2"})
        assert status == 200
        assert payload["swapped_to"] == "v2"
        assert payload["model"]["version"] == "v2"
        result = served.predict_one(tiny_gun.X_test[0])
        assert result.ok and result.model_version == "v2"
        with urllib.request.urlopen(served.admin.url("/model")) as response:
            assert json.load(response)["version"] == "v2"

    def test_post_swap_unknown_version_is_409_and_harmless(self, served, tiny_gun):
        status, payload = self._post(served.admin.url("/swap"), {"version": "v99"})
        assert status == 409
        assert "v99" in payload["error"]
        assert served.predict_one(tiny_gun.X_test[0]).model_version == "v1"
        # /readyz never flipped.
        with urllib.request.urlopen(served.admin.url("/readyz")) as response:
            assert response.status == 200

    def test_post_swap_requires_a_target(self, served):
        status, payload = self._post(served.admin.url("/swap"), {})
        assert status == 400
        assert "version" in payload["error"]

    def test_post_other_routes_404(self, served):
        status, _ = self._post(served.admin.url("/metrics"), {"version": "v2"})
        assert status == 404


MANY_ROWS = 10  # per submit burst in the sharded stress


class TestShardedSwap:
    def test_rolling_swap_under_load_keeps_ready_and_drops_nothing(
        self, registry, tiny_gun
    ):
        handle = ModelHandle.open("v1", registry=registry.root, n_jobs=1)
        config = ServeConfig(n_shards=2, warmup=False, max_delay_ms=1.0)
        with _isolated(ShardedPredictionService, handle, config) as service:
            assert service.model_version == "v1"
            ready_flips = []

            def watch_ready(stop):
                while not stop.is_set():
                    if not service.ready:
                        ready_flips.append(True)
                    stop.wait(0.005)

            stop = threading.Event()
            watcher = threading.Thread(target=watch_ready, args=(stop,))
            watcher.start()
            try:
                before, after = _stream_and_swap(
                    service,
                    tiny_gun.X_test[:MANY_ROWS],
                    lambda: service.swap("v2"),
                )
            finally:
                stop.set()
                watcher.join()
            results = before + after
            assert all(r.ok for r in results), sorted(
                {(r.status.value, r.error_code) for r in results if not r.ok}
            )
            assert {r.model_version for r in results} <= {"v1", "v2"}
            assert {r.model_version for r in after} == {"v2"}
            assert not ready_flips, "readiness flipped during the rolling swap"
            assert service.metrics.gauge_value("serve.model_version") == 2.0
            assert service.metrics.counter_value("serve.swaps") == 1
            # Every shard recycled exactly once for the swap.
            assert service.metrics.counter_value("serve.worker_recycles") == 2
            # Post-swap output is the new model's, bitwise.
            assert service.model_version == "v2"

    def test_sharded_swap_serves_new_model_bitwise(
        self, registry, fitted_b, tiny_gun
    ):
        handle = ModelHandle.open("v1", registry=registry.root, n_jobs=1)
        config = ServeConfig(n_shards=2, warmup=False)
        with _isolated(ShardedPredictionService, handle, config) as service:
            service.swap("v2")
            np.testing.assert_array_equal(
                service.predict(tiny_gun.X_test), fitted_b.predict(tiny_gun.X_test)
            )

    def test_swap_on_stopped_service_is_refused(self, registry):
        handle = ModelHandle.open("v1", registry=registry.root, n_jobs=1)
        service = _isolated(
            ShardedPredictionService, handle, ServeConfig(n_shards=1, warmup=False)
        )
        with pytest.raises(RuntimeError, match="stopped"):
            service.swap("v2")
