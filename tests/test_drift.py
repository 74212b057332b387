"""Drift monitoring: sketches, references, the live monitor, both tiers.

Contracts under test:

1. **Sketches are mergeable and exact** — ``merge(a, b)`` equals
   folding the concatenated streams (associative), comparisons (PSI,
   KS) match closed-form hand computations without scipy, and the
   decaying variant forgets on the observation clock deterministically.
2. **References round-trip** — ``ReferenceDistribution`` serializes to
   JSON and back losslessly; ``ModelRegistry.publish(reference=True)``
   stores ``reference.json`` under the sha256 integrity scheme, so a
   tampered or deleted reference fails ``verify`` with a typed error.
3. **The monitor detects drift and nothing else** — replaying the
   training distribution keeps ``serve.drift.score`` near zero on both
   serving tiers; a noise-shifted stream pushes it past the threshold,
   sets the alert gauge and annotates the flight recorder with reason
   ``"drift"`` (rising edge only).
4. **Monitoring is an observer** — predictions are bitwise identical
   with the monitor attached or not; backlog overflow drops rows
   (counted) instead of applying backpressure.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from repro import RPMClassifier, SaxParams
from repro.core.io import save_model
from repro.data.noise import add_gaussian_noise
from repro.obs import registry, scoped_registry
from repro.obs.metrics import MetricsRegistry
from repro.obs.sketch import (
    PSI_EPS,
    DecayingSketch,
    DistributionSketch,
    ReferenceDistribution,
    ks_distance,
    psi,
)
from repro.serve import (
    CompiledModel,
    DriftMonitor,
    FlightRecorder,
    ModelRegistry,
    PredictionService,
    RegistryIntegrityError,
    ServeConfig,
    ShardedPredictionService,
    build_reference,
    offline_drift_report,
    resolve_reference,
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
def artifact(fitted, tmp_path_factory):
    path = tmp_path_factory.mktemp("drift_artifacts") / "model.npz"
    save_model(fitted, path)
    return path


@pytest.fixture(scope="module")
def reference(artifact):
    return build_reference(artifact)


@pytest.fixture(scope="module")
def train_features(compiled, tiny_gun):
    return compiled.transform(tiny_gun.X_train)


def _two_bin(values) -> DistributionSketch:
    """A 2-bin sketch (split at 1.0) for closed-form comparisons."""
    sketch = DistributionSketch(edges=(1.0,))
    sketch.extend(values)
    return sketch


def _wait_for_rows(monitor: DriftMonitor, n: int, timeout: float = 10.0) -> None:
    """Ingestion runs post-resolve, so folded rows trail predict()."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = monitor.describe()
        if state["rows"] + state["backlog"] >= n:
            return
        time.sleep(0.01)
    raise AssertionError(f"monitor never saw {n} rows: {monitor.describe()}")


class TestDistributionSketch:
    def test_add_and_extend_fold_identically(self, rng):
        values = rng.exponential(1.0, size=200)
        one = DistributionSketch.log_bins()
        batch = DistributionSketch.log_bins()
        for v in values:
            one.add(v)
        batch.extend(values)
        assert one.counts == batch.counts
        assert one.count == batch.count == 200.0
        assert one.min == batch.min == values.min()
        assert one.max == batch.max == values.max()
        assert math.isclose(one.total, values.sum())

    def test_merge_equals_folding_the_concatenated_stream(self, rng):
        xs = rng.exponential(1.0, size=150)
        ys = rng.exponential(2.0, size=75)
        a = DistributionSketch.log_bins()
        b = DistributionSketch.log_bins()
        both = DistributionSketch.log_bins()
        a.extend(xs)
        b.extend(ys)
        both.extend(np.concatenate([xs, ys]))
        merged = a.merge(b)
        assert merged.counts == both.counts
        assert merged.count == both.count
        assert merged.min == both.min and merged.max == both.max
        assert math.isclose(merged.total, both.total)

    def test_merge_is_associative_and_commutative(self, rng):
        parts = [rng.exponential(s, size=60) for s in (0.5, 1.0, 3.0)]
        sketches = []
        for part in parts:
            sketch = DistributionSketch.log_bins()
            sketch.extend(part)
            sketches.append(sketch)
        a, b, c = sketches
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        swapped = c.merge(a).merge(b)
        assert left.counts == right.counts == swapped.counts
        assert left.count == right.count == swapped.count

    def test_merge_refuses_mismatched_edges(self):
        with pytest.raises(ValueError, match="edges"):
            DistributionSketch.log_bins().merge(
                DistributionSketch.linear_bins(-1.0, 1.0)
            )

    def test_probabilities_sum_to_one_and_empty_is_zero(self, rng):
        sketch = DistributionSketch.log_bins()
        assert sketch.probabilities().sum() == 0.0
        sketch.extend(rng.exponential(1.0, size=50))
        assert math.isclose(sketch.probabilities().sum(), 1.0)

    def test_quantiles_are_ordered_and_clamped(self, rng):
        values = rng.uniform(0.5, 4.0, size=500)
        sketch = DistributionSketch.log_bins()
        sketch.extend(values)
        p50, p95 = sketch.quantile(0.5), sketch.quantile(0.95)
        assert sketch.min <= p50 <= p95 <= sketch.max
        with pytest.raises(ValueError, match="quantile"):
            sketch.quantile(1.5)

    def test_record_round_trip(self, rng):
        sketch = DistributionSketch.linear_bins(-2.0, 2.0, n_bins=8)
        sketch.extend(rng.normal(0, 1, size=64))
        back = DistributionSketch.from_record(
            json.loads(json.dumps(sketch.as_record()))
        )
        assert back.edges == sketch.edges
        assert back.counts == sketch.counts
        assert back.count == sketch.count
        assert back.min == sketch.min and back.max == sketch.max

    def test_empty_sketch_serializes_null_min_max(self):
        record = DistributionSketch.log_bins().as_record()
        assert record["min"] is None and record["max"] is None
        back = DistributionSketch.from_record(record)
        assert back.min == float("inf") and back.max == float("-inf")
        assert back.summary()["min"] is None

    def test_bad_construction_is_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            DistributionSketch(edges=(2.0, 1.0))
        with pytest.raises(ValueError, match="hi > lo"):
            DistributionSketch.linear_bins(1.0, 1.0)
        with pytest.raises(ValueError, match="n_bins"):
            DistributionSketch.linear_bins(0.0, 1.0, n_bins=1)
        with pytest.raises(ValueError, match="counts"):
            DistributionSketch.from_record(
                {"edges": [1.0], "counts": [1.0], "count": 1.0, "total": 1.0,
                 "min": 1.0, "max": 1.0}
            )

    def test_scale_bounds(self):
        sketch = DistributionSketch.log_bins()
        with pytest.raises(ValueError, match="factor"):
            sketch.scale(1.5)


class TestDecayingSketch:
    def test_half_life_halves_old_mass(self):
        sketch = DecayingSketch.log_bins(half_life=100)
        sketch.extend(np.full(100, 0.15))
        assert sketch.count == 100.0
        old_bin = sketch.counts.index(100.0)
        sketch.extend(np.full(100, 45.0))
        # Exactly one half-life of new traffic: old mass halves.
        assert math.isclose(sketch.counts[old_bin], 50.0)
        assert math.isclose(sketch.count, 150.0)

    def test_recent_window_follows_a_shift_the_lifetime_view_dilutes(self, rng):
        old = rng.exponential(0.2, size=400)
        new = rng.exponential(8.0, size=400)
        ref = DistributionSketch.log_bins()
        ref.extend(old)
        recent = DecayingSketch.log_bins(half_life=64)
        lifetime = DistributionSketch.log_bins()
        for chunk in (old, new):
            recent.extend(chunk)
            lifetime.extend(chunk)
        # The decayed window is dominated by the shifted traffic; the
        # lifetime view still carries half its mass from before.
        assert psi(ref, recent) > psi(ref, lifetime) > 0.0

    def test_decay_is_deterministic_not_wall_clock(self):
        a = DecayingSketch.log_bins(half_life=32)
        b = DecayingSketch.log_bins(half_life=32)
        a.extend(np.full(64, 1.0))
        b.extend(np.full(64, 1.0))
        time.sleep(0.02)  # wall time must not change anything
        b.extend(np.zeros(0))
        assert a.counts == b.counts and a.count == b.count

    def test_bad_half_life_rejected(self):
        with pytest.raises(ValueError, match="half_life"):
            DecayingSketch.log_bins(half_life=0)


class TestComparisons:
    def test_psi_matches_the_closed_form(self):
        # p = (0.5, 0.5) vs q = (0.7, 0.3):
        # PSI = 0.2*ln(1.4) - 0.2*ln(0.6) = 0.16946...
        expected = _two_bin([0.5] * 5 + [2.0] * 5)
        actual = _two_bin([0.5] * 7 + [2.0] * 3)
        closed_form = 0.2 * math.log(1.4) - 0.2 * math.log(0.6)
        assert math.isclose(psi(expected, actual), closed_form, rel_tol=1e-12)
        # PSI is symmetric in this two-bin construction.
        assert math.isclose(psi(actual, expected), closed_form, rel_tol=1e-12)

    def test_ks_matches_the_closed_form(self):
        expected = _two_bin([0.5] * 5 + [2.0] * 5)
        actual = _two_bin([0.5] * 7 + [2.0] * 3)
        assert math.isclose(ks_distance(expected, actual), 0.2, rel_tol=1e-12)

    def test_identical_streams_score_zero(self, rng):
        values = rng.exponential(1.0, size=100)
        a = DistributionSketch.log_bins()
        b = DistributionSketch.log_bins()
        a.extend(values)
        b.extend(values)
        assert psi(a, b) == 0.0
        assert ks_distance(a, b) == 0.0

    def test_empty_sketches_are_not_drift(self):
        full = _two_bin([0.5, 2.0])
        empty = DistributionSketch(edges=(1.0,))
        assert psi(full, empty) == 0.0
        assert psi(empty, full) == 0.0
        assert ks_distance(full, empty) == 0.0

    def test_disjoint_support_is_finite_via_the_epsilon_floor(self):
        a = _two_bin([0.5] * 10)
        b = _two_bin([2.0] * 10)
        value = psi(a, b)
        assert 0.0 < value <= 2.0 * math.log(1.0 / PSI_EPS)

    def test_mismatched_edges_refused(self):
        a = DistributionSketch.log_bins()
        b = DistributionSketch.linear_bins(0.0, 1.0)
        a.add(0.5)
        b.add(0.5)
        with pytest.raises(ValueError, match="edges"):
            psi(a, b)


class TestReferenceDistribution:
    def test_from_features_shapes_and_rates(self, train_features):
        ref = ReferenceDistribution.from_features(
            train_features, series_length=120
        )
        assert ref.n_columns == train_features.shape[1]
        assert ref.n_rows == train_features.shape[0]
        assert math.isclose(sum(ref.best_match_rate), 1.0)
        assert all(0.0 <= r <= 1.0 for r in ref.best_match_rate)
        # No raw X: input mean/std stay empty, length comes from meta.
        assert ref.input_mean.count == 0 and ref.input_std.count == 0
        assert ref.input_length.count == train_features.shape[0]
        assert not ref.meta()["has_input_stats"]

    def test_from_features_with_raw_inputs(self, train_features, tiny_gun):
        ref = ReferenceDistribution.from_features(train_features, tiny_gun.X_train)
        assert ref.input_mean.count == len(tiny_gun.X_train)
        assert ref.input_std.count == len(tiny_gun.X_train)
        assert ref.meta()["has_input_stats"]

    def test_save_load_round_trip(self, train_features, tiny_gun, tmp_path):
        ref = ReferenceDistribution.from_features(
            train_features, tiny_gun.X_train, source="test"
        )
        path = ref.save(tmp_path / "reference.json")
        back = ReferenceDistribution.load(path)
        assert back.as_record() == ref.as_record()
        assert psi(ref.columns[0], back.columns[0]) == 0.0

    def test_unknown_format_is_rejected(self, train_features, tmp_path):
        ref = ReferenceDistribution.from_features(train_features)
        record = ref.as_record()
        record["format"] = 99
        (tmp_path / "bad.json").write_text(json.dumps(record))
        with pytest.raises(ValueError, match="format"):
            ReferenceDistribution.load(tmp_path / "bad.json")

    def test_shape_validation(self, train_features):
        with pytest.raises(ValueError, match="2-D"):
            ReferenceDistribution.from_features(train_features[:, 0])
        ref = ReferenceDistribution.from_features(train_features)
        with pytest.raises(ValueError, match="rates"):
            ReferenceDistribution(
                ref.columns, ref.best_match_rate[:-1], ref.input_mean,
                ref.input_std, ref.input_length, n_rows=ref.n_rows,
            )

    def test_build_reference_refuses_non_model_archives(self, tmp_path):
        junk = tmp_path / "junk.npz"
        np.savez(junk, unrelated=np.zeros(3))
        with pytest.raises(ValueError, match="archive"):
            build_reference(junk)


class TestRegistryReference:
    @pytest.fixture()
    def reg(self, tmp_path, artifact):
        reg = ModelRegistry(tmp_path / "registry")
        reg.publish(artifact, reference=True)
        return reg

    def test_publish_stores_an_integrity_tracked_reference(
        self, reg, compiled, artifact
    ):
        mv = reg.get("v1")
        assert mv.reference_sha256 is not None
        ref_path = reg.reference_path("v1")
        assert ref_path.exists()
        reg.verify("v1")  # artifact + reference both clean
        ref = reg.reference("v1")
        assert ref is not None
        assert ref.n_columns == compiled.n_patterns
        assert ref.source == "v1/model.npz"

    def test_publish_without_reference_returns_none(self, tmp_path, artifact):
        reg = ModelRegistry(tmp_path / "plain")
        reg.publish(artifact)
        assert reg.get("v1").reference_sha256 is None
        assert reg.reference("v1") is None
        reg.verify("v1")  # no reference hash: nothing extra to check

    def test_tampered_reference_fails_verify(self, reg):
        ref_path = reg.reference_path("v1")
        record = json.loads(ref_path.read_text())
        record["n_rows"] += 1
        ref_path.write_text(json.dumps(record))
        with pytest.raises(RegistryIntegrityError, match="reference"):
            reg.verify("v1")
        with pytest.raises(RegistryIntegrityError, match="reference"):
            reg.reference("v1")

    def test_missing_reference_fails_verify(self, reg):
        reg.reference_path("v1").unlink()
        with pytest.raises(RegistryIntegrityError, match="missing"):
            reg.verify("v1")

    def test_resolve_reference_prefers_the_published_reference(
        self, reg, compiled
    ):
        class Handle:
            registry = reg
            version = "v1"

        ref = resolve_reference(None, Handle(), n_columns=compiled.n_patterns)
        assert ref.source == "v1/model.npz"

    def test_resolve_reference_rebuilds_when_unpublished(
        self, tmp_path, artifact, compiled
    ):
        reg = ModelRegistry(tmp_path / "plain")
        reg.publish(artifact)

        class Handle:
            registry = reg
            version = "v1"

        ref = resolve_reference(None, Handle())
        assert ref.n_columns == compiled.n_patterns

    def test_resolve_reference_paths_and_errors(
        self, artifact, reference, tmp_path
    ):
        assert resolve_reference(reference) is reference
        assert resolve_reference(artifact).n_columns == reference.n_columns
        saved = reference.save(tmp_path / "reference.json")
        assert resolve_reference(saved).n_columns == reference.n_columns
        with pytest.raises(ValueError, match="resolve"):
            resolve_reference(None, handle=None)
        with pytest.raises(ValueError, match="columns"):
            resolve_reference(reference, n_columns=reference.n_columns + 1)


class TestDriftMonitorUnit:
    """Synchronous monitor behavior (no drain thread: observe + flush)."""

    def _monitor(self, reference, **kwargs):
        kwargs.setdefault("metrics", MetricsRegistry())
        kwargs.setdefault("flight", FlightRecorder(capacity=16))
        return DriftMonitor(reference, **kwargs)

    def test_in_distribution_scores_near_zero(self, reference, train_features):
        monitor = self._monitor(reference, window=10**6)
        for i, row in enumerate(train_features):
            monitor.observe(f"req-{i}", np.zeros(4), row)
        state = monitor.flush()
        assert state is not None
        assert state["score"] < 0.05
        assert not state["alert"]
        snap = monitor.metrics.snapshot()
        assert snap["gauges"]["serve.drift.score"] == state["score"]
        assert snap["gauges"]["serve.drift.alert"] == 0.0

    def test_shifted_features_cross_the_threshold(
        self, reference, train_features
    ):
        monitor = self._monitor(reference, threshold=0.25)
        for i, row in enumerate(train_features * 6.0 + 3.0):
            monitor.observe(f"req-{i}", np.zeros(4), row)
        state = monitor.flush()
        assert state["score"] > 0.25
        assert state["alert"]
        assert state["top_offenders"]
        entries = monitor.flight.records(reason="drift")
        assert len(entries) == 1
        assert "psi" in entries[0]["error_message"]
        assert monitor.metrics.snapshot()["gauges"]["serve.drift.alert"] == 1.0

    def test_alert_flight_entry_fires_on_the_rising_edge_only(
        self, reference, train_features
    ):
        monitor = self._monitor(reference, threshold=0.25)
        for i, row in enumerate(train_features * 6.0 + 3.0):
            monitor.observe(f"req-{i}", np.zeros(4), row)
        monitor.flush()
        monitor.flush()  # still alerting: no second entry
        assert len(monitor.flight.records(reason="drift")) == 1
        assert monitor.describe()["alerts"] == 1

    def test_full_backlog_drops_rows_without_backpressure(
        self, reference, train_features
    ):
        monitor = self._monitor(reference, max_backlog=4)
        for i in range(10):
            monitor.observe(f"req-{i}", np.zeros(4), train_features[0])
        state = monitor.describe()
        assert state["backlog"] == 4
        assert state["dropped"] == 6
        assert (
            monitor.metrics.snapshot()["counters"]["serve.drift.dropped"] == 6
        )

    def test_stale_reference_rows_are_dropped_not_folded(self, reference):
        # Hot-swap guard: a feature row whose width no longer matches
        # the reference must not corrupt the sketches.
        monitor = self._monitor(reference)
        wrong = np.zeros(reference.n_columns + 1)
        monitor.observe("req-0", np.zeros(4), wrong)
        monitor.flush()
        state = monitor.describe()
        assert state["rows"] == 0
        assert state["dropped"] == 1

    def test_mixed_width_batch_folds_good_rows_and_drops_stale_ones(
        self, reference, train_features
    ):
        # The hot-swap scenario proper: rows of the old and new width
        # share one drained batch. Stale rows are filtered per row;
        # the matching rows still fold and the batch never np.stacks a
        # ragged array.
        monitor = self._monitor(reference)
        stale = np.zeros(reference.n_columns + 2)
        for i, row in enumerate(train_features[:6]):
            monitor.observe(f"req-{2 * i}", np.zeros(4), row)
            monitor.observe(f"req-{2 * i + 1}", np.zeros(4), stale)
        state_last = monitor.flush()
        state = monitor.describe()
        assert state["rows"] == 6
        assert state["dropped"] == 6
        assert state["fold_errors"] == 0
        assert state_last is not None  # the good rows were evaluated

    def test_fold_thread_survives_a_poisoned_batch(
        self, reference, train_features
    ):
        # A row that blows up mid-fold (here: a string that fails
        # float conversion) must not kill the drain thread — it is
        # counted in fold_errors and later rows keep folding, so the
        # gauges never freeze at a stale pre-crash value.
        monitor = self._monitor(reference)
        with monitor:
            monitor.observe("req-bad", np.zeros(4), "not-a-feature-row")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if monitor.describe()["fold_errors"] == 1:
                    break
                time.sleep(0.01)
            assert monitor.describe()["fold_errors"] == 1
            for i, row in enumerate(train_features[:8]):
                monitor.observe(f"req-{i}", np.zeros(4), row)
            _wait_for_rows(monitor, 8)
        assert monitor.flush() is not None  # the good rows still evaluate
        state = monitor.describe()
        assert state["rows"] == 8
        assert state["fold_errors"] == 1
        assert (
            monitor.metrics.snapshot()["counters"]["serve.drift.fold_errors"]
            == 1
        )

    def test_score_is_the_max_per_column_psi(self, reference, train_features):
        # One strongly shifted pattern column must trip the score even
        # when every other column stays quiet — a mean would dilute it
        # by n_columns. The mean ships alongside as the breadth signal.
        rows = train_features.copy()
        rows[:, 0] = rows[:, 0] * 6.0 + 3.0
        monitor = self._monitor(reference, window=10**6)
        for i, row in enumerate(rows):
            monitor.observe(f"req-{i}", np.zeros(4), row)
        state = monitor.flush()
        per_column = [c["psi"] for c in state["columns"]]
        assert state["score"] == max(per_column)
        assert math.isclose(state["score_mean"], np.mean(per_column))
        assert state["score"] > state["score_mean"]
        assert state["top_offenders"][0]["column"] == 0

    def test_shard_tagged_rows_merge_to_the_single_stream_result(
        self, reference, train_features
    ):
        shifted = train_features * 6.0 + 3.0
        # A realistic window: decay runs on the monitor's global
        # observed-row clock, so the shard split sees the *same* decay
        # schedule as the single stream and the merge stays exact.
        merged = self._monitor(reference, window=32)
        single = self._monitor(reference, window=32)
        for i, row in enumerate(shifted):
            merged.observe(f"req-{i}", np.zeros(4), row, shard=i % 2)
            single.observe(f"req-{i}", np.zeros(4), row, shard=None)
        merged_state = merged.flush()
        single_state = single.flush()
        assert merged.describe()["shards"] == [0, 1]
        assert math.isclose(
            merged_state["score"], single_state["score"], rel_tol=1e-9
        )

    def test_idle_shard_decays_on_the_global_clock(
        self, reference, train_features
    ):
        # A shard that stops receiving traffic must fade out of the
        # merged recent window: after many windows of in-distribution
        # traffic on shard 1 alone, shard 0's early shifted rows no
        # longer hold the score above the threshold.
        shifted = train_features * 6.0 + 3.0
        monitor = self._monitor(reference, window=16, threshold=0.25)
        for i, row in enumerate(shifted[:16]):
            monitor.observe(f"bad-{i}", np.zeros(4), row, shard=0)
        assert monitor.flush()["score"] > 0.25
        n = 0
        for _ in range(20):  # ~20 half-lives of fresh traffic
            for row in train_features[:16]:
                monitor.observe(f"ok-{n}", np.zeros(4), row, shard=1)
                n += 1
        state = monitor.flush()
        assert state["score"] < 0.25
        assert not state["alert"]

    def test_describe_exposes_flat_gauges_for_the_exporter(
        self, reference, train_features
    ):
        monitor = self._monitor(reference)
        for i, row in enumerate(train_features[:8]):
            monitor.observe(f"req-{i}", np.zeros(4), row)
        monitor.flush()
        gauges = monitor.describe()["gauges"]
        assert "serve.drift.score" in gauges
        assert f"serve.drift.psi[column=0]" in gauges
        assert f"serve.drift.best_match_rate[pattern=0]" in gauges

    def test_bad_knobs_rejected(self, reference):
        for kwargs in (
            {"window": 0},
            {"threshold": 0.0},
            {"eval_every": 0},
            {"max_backlog": 0},
        ):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                DriftMonitor(reference, **kwargs)


class TestOfflineReport:
    def test_training_features_are_in_distribution(
        self, reference, train_features, tiny_gun
    ):
        report = offline_drift_report(
            reference, train_features, tiny_gun.X_train
        )
        assert report["score"] < 0.05
        assert not report["alert"]
        assert report["rows"] == len(train_features)
        assert len(report["columns"]) == reference.n_columns

    def test_shifted_features_alert(self, reference, train_features):
        report = offline_drift_report(reference, train_features * 6.0 + 3.0)
        assert report["alert"] and report["score"] > 0.25
        assert report["top_offenders"]

    def test_shape_validation(self, reference, train_features):
        with pytest.raises(ValueError, match="2-D"):
            offline_drift_report(reference, train_features[0])
        with pytest.raises(ValueError, match="columns"):
            offline_drift_report(reference, train_features[:, :-1])


class TestServiceIntegration:
    def test_in_distribution_stream_stays_below_threshold(
        self, compiled, reference, tiny_gun
    ):
        with scoped_registry():
            with PredictionService(
                compiled, config=ServeConfig(warmup=False)
            ) as service:
                monitor = service.attach_drift(reference, threshold=0.25)
                service.predict(tiny_gun.X_train)
                _wait_for_rows(monitor, len(tiny_gun.X_train))
                state = monitor.flush()
                assert state is not None
                assert state["score"] < 0.25 and not state["alert"]
                snap = registry().snapshot()
                assert snap["gauges"]["serve.drift.score"] < 0.25
                assert snap["gauges"]["serve.drift.alert"] == 0.0
                assert not service.flight.records(reason="drift")

    def test_shifted_stream_raises_the_alert(
        self, compiled, reference, tiny_gun
    ):
        shifted = add_gaussian_noise(tiny_gun.X_train, 2.0, seed=3)
        with scoped_registry():
            with PredictionService(
                compiled, config=ServeConfig(warmup=False)
            ) as service:
                monitor = service.attach_drift(reference, threshold=0.25)
                service.predict(np.vstack([shifted, shifted]))
                _wait_for_rows(monitor, 2 * len(shifted))
                state = monitor.flush()
                assert state["score"] > 0.25 and state["alert"]
                snap = registry().snapshot()
                assert snap["gauges"]["serve.drift.alert"] == 1.0
                entries = service.flight.records(reason="drift")
                assert entries and entries[0]["reason"] == "drift"
                described = service.describe_drift()
                assert described["top_offenders"]
                assert described["alert"] is True

    def test_detach_waits_for_the_batch_in_flight(
        self, compiled, reference, tiny_gun, stall_offers
    ):
        # The batcher answers a batch's requests before it offers them to
        # the monitor; detaching in between must not lose the batch.
        with scoped_registry():
            with PredictionService(
                compiled, config=ServeConfig(warmup=False)
            ) as service:
                stall_offers(service)
                monitor = service.attach_drift(reference)
                service.predict(tiny_gun.X_test)
                service.detach_drift()
                assert monitor.describe()["rows"] == len(tiny_gun.X_test)

    def test_predictions_bitwise_identical_monitor_on_or_off(
        self, compiled, reference, tiny_gun
    ):
        with scoped_registry():
            with PredictionService(
                compiled, config=ServeConfig(warmup=False)
            ) as plain:
                baseline = plain.predict(tiny_gun.X_test)
            with PredictionService(
                compiled, config=ServeConfig(warmup=False)
            ) as service:
                service.attach_drift(reference)
                monitored = service.predict(tiny_gun.X_test)
        np.testing.assert_array_equal(baseline, monitored)

    def test_attach_twice_refused_and_detach_reports(
        self, compiled, reference, tiny_gun
    ):
        with scoped_registry():
            with PredictionService(
                compiled, config=ServeConfig(warmup=False)
            ) as service:
                monitor = service.attach_drift(reference)
                with pytest.raises(RuntimeError, match="already"):
                    service.attach_drift(reference)
                service.predict(tiny_gun.X_train[:8])
                _wait_for_rows(monitor, 8)
                payload = service.detach_drift()
                assert payload is not None and "score" in payload
                assert service.describe_drift() is None
                assert service.detach_drift() is None

    def test_config_drift_knobs_reach_the_monitor(self, compiled, reference):
        config = ServeConfig(warmup=False, drift_window=64, drift_threshold=0.5)
        with scoped_registry():
            with PredictionService(compiled, config=config) as service:
                monitor = service.attach_drift(reference)
                assert monitor.window == 64
                assert monitor.threshold == 0.5


class TestShardedIntegration:
    def test_shifted_stream_alerts_across_shards(
        self, compiled, reference, tiny_gun
    ):
        shifted = add_gaussian_noise(tiny_gun.X_train, 2.0, seed=3)
        with scoped_registry():
            with ShardedPredictionService(
                compiled, config=ServeConfig(n_shards=2, warmup=False)
            ) as service:
                monitor = service.attach_drift(reference, threshold=0.25)
                baseline = service.predict(tiny_gun.X_train)
                service.predict(np.vstack([shifted, shifted, shifted]))
                _wait_for_rows(
                    monitor, len(tiny_gun.X_train) + 3 * len(shifted)
                )
                state = monitor.flush()
                assert state["score"] > 0.25 and state["alert"]
                described = service.describe_drift()
                # Both workers contributed shard-tagged sketches.
                assert len(described["shards"]) == 2
                entries = service.flight.records(reason="drift")
                assert entries and entries[0]["shard"] is not None
                payload = service.detach_drift()
                assert payload["alert"]
        np.testing.assert_array_equal(
            baseline, compiled.predict(tiny_gun.X_train)
        )

    def test_detach_waits_for_the_result_in_flight(
        self, compiled, reference, tiny_gun, stall_offers
    ):
        # The collector answers each result before it offers it to the
        # monitor; detaching in between must not lose the row.
        with scoped_registry():
            with ShardedPredictionService(
                compiled, config=ServeConfig(n_shards=1, warmup=False)
            ) as service:
                stall_offers(service)
                monitor = service.attach_drift(reference)
                service.predict(tiny_gun.X_test[:8])
                service.detach_drift()
                assert monitor.describe()["rows"] == 8

    def test_sharded_predictions_bitwise_identical_with_monitor(
        self, compiled, reference, tiny_gun
    ):
        with scoped_registry():
            with ShardedPredictionService(
                compiled, config=ServeConfig(n_shards=2, warmup=False)
            ) as service:
                service.attach_drift(reference)
                labels = service.predict(tiny_gun.X_test)
        np.testing.assert_array_equal(
            labels, compiled.predict(tiny_gun.X_test)
        )
