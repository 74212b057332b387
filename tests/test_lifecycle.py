"""Model lifecycle: registry round-trips, handle resolution, gating.

Contracts under test:

1. **Registry round-trip** — ``publish`` copies an artifact with full
   lineage metadata (sha256, training-data fingerprint, parent) and
   ``get``/``list_versions``/``verify`` read it back exactly; tampered
   bytes fail the integrity check with a typed error.
2. **One loading entry point** — ``ModelHandle.open`` resolves an
   artifact path, a registry version name, or a prebuilt
   ``CompiledModel`` identically; version-name targets demand a
   registry.
3. **Promotion is auditable and gated** — CURRENT moves only through
   ``promote``/``rollback``, the HISTORY log records every move, and a
   ``PromotionGate`` fed a ``ShadowReport`` refuses candidates whose
   disagreement or latency regression exceeds the thresholds —
   including the float32-quantized bank variant.
4. **ServeConfig is the one validated knob surface** — bad values are
   rejected in ``__post_init__``, and the service constructors take no
   per-knob keywords: ``max_batch=8`` is a plain ``TypeError``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import RPMClassifier, SaxParams
from repro.core.io import ModelFormatError, save_model
from repro.serve import (
    CompiledModel,
    ModelHandle,
    ModelRegistry,
    PredictionService,
    PromotionGate,
    RegistryError,
    RegistryIntegrityError,
    ServeConfig,
    ShadowReport,
    ShadowScorer,
    ShardedPredictionService,
)


@pytest.fixture(scope="module")
def fitted(tiny_gun):
    clf = RPMClassifier(sax_params=SaxParams(24, 4, 4), seed=0)
    clf.fit(tiny_gun.X_train, tiny_gun.y_train)
    return clf


@pytest.fixture(scope="module")
def fitted_b(tiny_gun):
    """A second, distinguishable fitted model (different SAX window)."""
    clf = RPMClassifier(sax_params=SaxParams(32, 4, 4), seed=1)
    clf.fit(tiny_gun.X_train, tiny_gun.y_train)
    return clf


@pytest.fixture(scope="module")
def artifact(fitted, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "model_a.npz"
    save_model(fitted, path)
    return path


@pytest.fixture(scope="module")
def artifact_b(fitted_b, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "model_b.npz"
    save_model(fitted_b, path)
    return path


@pytest.fixture()
def registry(tmp_path, artifact, artifact_b):
    reg = ModelRegistry(tmp_path / "registry")
    reg.publish(artifact, notes="seed model")
    reg.publish(artifact_b, parent="v1")
    return reg


def _report(**overrides) -> ShadowReport:
    base = dict(
        candidate_version="v2",
        n_scored=100,
        n_disagreements=0,
        disagreement_rate=0.0,
        primary_mean_latency_ms=2.0,
        candidate_mean_latency_ms=2.0,
        latency_regression=0.0,
        n_dropped=0,
    )
    base.update(overrides)
    return ShadowReport(**base)


class TestModelRegistry:
    def test_publish_round_trip(self, registry, artifact):
        mv = registry.get("v1")
        assert mv.version == "v1"
        assert mv.status == "active"
        assert mv.notes == "seed model"
        assert mv.size_bytes == artifact.stat().st_size
        assert len(mv.sha256) == 64 and len(mv.fingerprint) == 64
        assert mv.path.exists() and mv.path != artifact  # copied, not linked
        assert registry.get("v2").parent == "v1"

    def test_fingerprint_is_deterministic_per_artifact(self, registry, artifact):
        # The lineage fingerprint hashes the archived training features
        # + labels: republishing the same artifact reproduces it, while
        # a differently-parameterized model (different transform) gets
        # its own.
        republished = registry.publish(artifact, version="v1-again")
        v1, v2 = registry.get("v1"), registry.get("v2")
        assert republished.fingerprint == v1.fingerprint
        assert republished.sha256 == v1.sha256
        assert v1.fingerprint != v2.fingerprint

    def test_list_versions_oldest_first(self, registry):
        assert [mv.version for mv in registry.list_versions()] == ["v1", "v2"]

    def test_aliases_resolve(self, registry):
        assert registry.get("latest").version == "v2"
        with pytest.raises(RegistryError, match="no promoted version"):
            registry.get("current")
        registry.promote("v1")
        assert registry.get("current").version == "v1"

    def test_unknown_version_and_parent_are_typed_errors(self, registry, artifact):
        with pytest.raises(RegistryError, match="v99"):
            registry.get("v99")
        with pytest.raises(RegistryError, match="v99"):
            registry.publish(artifact, parent="v99")

    def test_reserved_and_malformed_names_are_refused(self, registry, artifact):
        for name in ("current", "latest", "", "has space", "../escape"):
            with pytest.raises(RegistryError):
                registry.publish(artifact, version=name)

    def test_duplicate_version_is_refused(self, registry, artifact):
        with pytest.raises(RegistryError, match="already"):
            registry.publish(artifact, version="v1")

    def test_unreadable_artifact_never_publishes(self, registry, tmp_path):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"not a model at all")
        with pytest.raises(ModelFormatError):
            registry.publish(junk)
        assert [mv.version for mv in registry.list_versions()] == ["v1", "v2"]

    def test_verify_catches_tampered_bytes(self, registry):
        mv = registry.get("v2")
        registry.verify("v2")  # clean first
        blob = bytearray(mv.path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        mv.path.write_bytes(bytes(blob))
        with pytest.raises(RegistryIntegrityError, match="integrity"):
            registry.verify("v2")

    def test_retire_refused_while_current(self, registry):
        registry.promote("v1")
        with pytest.raises(RegistryError, match="CURRENT"):
            registry.retire("v1")
        assert registry.retire("v2").status == "retired"
        with pytest.raises(RegistryError, match="retired"):
            registry.promote("v2")

    def test_promote_and_rollback_are_logged(self, registry):
        registry.promote("v1")
        registry.promote("v2")
        assert registry.current() == "v2"
        entries = [
            json.loads(line)
            for line in (registry.root / "HISTORY").read_text().splitlines()
        ]
        assert entries[-1]["promoted"] == "v2"
        assert entries[-1]["previous"] == "v1"
        assert registry.rollback().version == "v1"
        assert registry.current() == "v1"

    def test_rollback_without_history_is_typed(self, tmp_path):
        reg = ModelRegistry(tmp_path / "empty")
        with pytest.raises(RegistryError, match="history"):
            reg.rollback()


class TestModelFormatErrorPath:
    def test_error_carries_the_offending_path(self, tmp_path):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"garbage bytes")
        from repro.core.io import load_model

        with pytest.raises(ModelFormatError) as excinfo:
            load_model(junk)
        assert excinfo.value.path == junk
        assert str(junk) in str(excinfo.value)


class TestModelHandle:
    def test_open_artifact_path(self, artifact, fitted, tiny_gun):
        with ModelHandle.open(artifact) as handle:
            assert handle.version == artifact.stem
            assert handle.generation == 1
            np.testing.assert_array_equal(
                handle.model.predict(tiny_gun.X_test), fitted.predict(tiny_gun.X_test)
            )

    def test_open_registry_version(self, registry, tiny_gun, fitted_b):
        with ModelHandle.open("v2", registry=registry.root) as handle:
            assert handle.version == "v2"
            np.testing.assert_array_equal(
                handle.model.predict(tiny_gun.X_test),
                fitted_b.predict(tiny_gun.X_test),
            )

    def test_open_prebuilt_model_passthrough(self, fitted):
        model = CompiledModel.from_classifier(fitted)
        with ModelHandle.open(model, version="inline") as handle:
            assert handle.model is model
            assert handle.version == "inline"

    def test_version_name_without_registry_is_typed(self):
        with pytest.raises(RegistryError, match="registry"):
            ModelHandle.open("v1")

    def test_swap_bumps_generation_and_retires_old(self, artifact, artifact_b):
        with ModelHandle.open(artifact) as handle:
            old_model = handle.model
            closed = []
            original_close = old_model.close
            old_model.close = lambda: (closed.append(True), original_close())
            installed = handle.swap(artifact_b)
            assert installed == artifact_b.stem
            assert handle.generation == 2
            assert handle.model is not old_model
            # No outstanding lease: retiring the old generation closed
            # its model immediately.
            assert closed

    def test_inflight_lease_keeps_the_old_model_open(
        self, artifact, artifact_b, tiny_gun
    ):
        with ModelHandle.open(artifact) as handle:
            lease = handle.acquire()
            old_model = lease.model
            closed = []
            original_close = old_model.close
            old_model.close = lambda: (closed.append(True), original_close())
            handle.swap(artifact_b)
            # The pointer flipped, but the in-flight lease keeps the old
            # generation fully alive until its batch releases.
            assert not closed
            lease.model.transform(tiny_gun.X_test[:2])
            lease.release()
            assert closed

    def test_registry_swap_by_version_name(self, registry):
        registry.promote("v1")
        with ModelHandle.open("current", registry=registry.root) as handle:
            assert handle.version == "v1"
            handle.swap("v2")
            assert handle.version == "v2"
            with pytest.raises(RegistryError, match="v99"):
                handle.swap("v99")
            assert handle.version == "v2"  # refused swap keeps serving


class TestPromotionGate:
    def test_clean_report_passes(self):
        decision = PromotionGate().evaluate(_report())
        assert decision.allowed and decision.reasons == []

    def test_disagreement_blocks(self):
        gate = PromotionGate(max_disagreement=0.01)
        decision = gate.evaluate(
            _report(n_disagreements=5, disagreement_rate=0.05)
        )
        assert not decision.allowed
        assert "disagreement" in decision.reasons[0]

    def test_latency_regression_blocks(self):
        gate = PromotionGate(max_latency_regression=0.25)
        decision = gate.evaluate(
            _report(candidate_mean_latency_ms=4.0, latency_regression=1.0)
        )
        assert not decision.allowed
        assert "latency regression" in decision.reasons[0]

    def test_thin_report_blocks(self):
        decision = PromotionGate(min_requests=100).evaluate(_report(n_scored=3))
        assert not decision.allowed

    def test_gated_promote_requires_report(self, registry):
        with pytest.raises(RegistryError, match="report"):
            registry.promote("v2", gate=PromotionGate())

    def test_gated_promote_blocks_and_allows(self, registry):
        registry.promote("v1")
        gate = PromotionGate(max_disagreement=0.01)
        bad = _report(n_disagreements=10, disagreement_rate=0.10)
        with pytest.raises(RegistryError, match="blocked by gate"):
            registry.promote("v2", gate=gate, report=bad)
        assert registry.current() == "v1"  # refused promotion changed nothing
        registry.promote("v2", gate=gate, report=_report())
        assert registry.current() == "v2"

    def test_report_record_round_trip(self):
        report = _report(n_disagreements=2, disagreement_rate=0.02)
        assert ShadowReport.from_record(report.as_record()) == report


class TestQuantizedModel:
    def test_float32_bank_loads_and_describes(self, artifact, tiny_gun):
        with CompiledModel.load(artifact, dtype="float32") as model:
            assert model.dtype == "float32"
            assert "float32" in model.describe()
            # Quantized values are exactly float32-representable.
            for values in model._values:
                np.testing.assert_array_equal(
                    values, values.astype(np.float32).astype(np.float64)
                )
            model.predict(tiny_gun.X_test[:4])  # still serves

    def test_unknown_dtype_is_rejected(self, artifact):
        with pytest.raises(ValueError, match="dtype"):
            CompiledModel.load(artifact, dtype="float16")

    def test_quantized_promotion_rides_the_same_gate(self, registry):
        # The MrSQM lesson: a quantized bank must prove fidelity in
        # shadow before promotion — the gate refuses a drifting one.
        registry.promote("v1")
        drifting = _report(n_disagreements=8, disagreement_rate=0.08)
        with pytest.raises(RegistryError, match="blocked by gate"):
            registry.promote("v2", gate=PromotionGate(), report=drifting)


class TestShadowScorer:
    def test_identical_candidate_never_disagrees(self, fitted, tiny_gun):
        primary = CompiledModel.from_classifier(fitted)
        candidate = CompiledModel.from_classifier(fitted)
        try:
            labels = primary.predict(tiny_gun.X_test)
            with ShadowScorer(candidate, version="twin", fraction=1.0) as scorer:
                for i, (row, label) in enumerate(zip(tiny_gun.X_test, labels)):
                    scorer.offer(f"req-{i}", row, label, 1.0)
            report = scorer.report()
            assert report.candidate_version == "twin"
            assert report.n_scored == len(labels)
            assert report.n_disagreements == 0
            assert report.n_dropped == 0
        finally:
            primary.close()
            candidate.close()

    def test_fraction_samples_every_kth(self, fitted, tiny_gun):
        candidate = CompiledModel.from_classifier(fitted)
        try:
            with ShadowScorer(candidate, fraction=0.25) as scorer:
                for i in range(40):
                    scorer.offer(f"req-{i}", tiny_gun.X_test[0], 0, 1.0)
            assert scorer.report().n_scored == 10
        finally:
            candidate.close()

    def test_wrong_labels_count_as_disagreements(self, fitted, tiny_gun):
        candidate = CompiledModel.from_classifier(fitted)
        try:
            real = candidate.predict(tiny_gun.X_test[:4])
            with ShadowScorer(candidate, fraction=1.0) as scorer:
                for i, row in enumerate(tiny_gun.X_test[:4]):
                    # Claim the primary said something the candidate won't.
                    scorer.offer(f"req-{i}", row, f"not-{real[i]}", 1.0)
            report = scorer.report()
            assert report.n_scored == 4
            assert report.n_disagreements == 4
            assert report.disagreement_rate == 1.0
        finally:
            candidate.close()

    def test_bad_fraction_is_rejected(self, fitted):
        candidate = CompiledModel.from_classifier(fitted)
        try:
            for fraction in (0.0, -0.1, 1.5):
                with pytest.raises(ValueError, match="fraction"):
                    ShadowScorer(candidate, fraction=fraction)
        finally:
            candidate.close()


class TestServeConfig:
    def test_defaults_validate(self):
        config = ServeConfig()
        assert config.max_batch == 32 and config.n_shards == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_delay_ms": -1.0},
            {"default_deadline_ms": 0.0},
            {"flight_capacity": -1},
            {"n_shards": -1},
            {"max_queue_per_shard": 0},
            {"admission_budget_ms": 0.0},
            {"shadow_fraction": 0.0},
            {"shadow_fraction": 1.5},
            {"mp_context": "greenlet"},
        ],
    )
    def test_bad_knobs_raise_at_construction(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ServeConfig(**kwargs)

    def test_replace_and_to_dict(self):
        config = ServeConfig().replace(max_batch=64)
        assert config.max_batch == 64
        assert config.to_dict()["max_batch"] == 64

    @pytest.mark.parametrize(
        "service_class", [PredictionService, ShardedPredictionService]
    )
    def test_per_knob_keyword_is_a_type_error(self, fitted, service_class):
        # Rejected while binding the signature: no worker or shard starts.
        model = CompiledModel.from_classifier(fitted)
        try:
            with pytest.raises(TypeError, match="max_batch"):
                service_class(model, max_batch=8)
        finally:
            model.close()

    def test_unknown_keyword_is_a_type_error(self, fitted):
        model = CompiledModel.from_classifier(fitted)
        try:
            with pytest.raises(TypeError, match="max_betch"):
                PredictionService(model, max_betch=8)
        finally:
            model.close()

    def test_from_args_maps_cli_names(self):
        import argparse

        args = argparse.Namespace(
            max_batch=16,
            max_delay_ms=1.0,
            deadline_ms=50.0,
            no_warmup=True,
            slow_ms=100.0,
            flight_size=32,
            http_port=0,
            shards=3,
            admission_budget_ms=5.0,
            max_queue=64,
            shadow_fraction=0.5,
        )
        config = ServeConfig.from_args(args)
        assert config.max_batch == 16
        assert config.default_deadline_ms == 50.0
        assert config.warmup is False
        assert config.flight_capacity == 32
        assert config.admin_port == 0
        assert config.n_shards == 3
        assert config.max_queue_per_shard == 64
        assert config.shadow_fraction == 0.5
