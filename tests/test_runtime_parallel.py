"""Parallel runtime: executor semantics and serial/parallel equivalence.

The runtime's contract is that parallelism changes scheduling only —
``fit``/``transform`` outputs must be *bitwise* identical across
backends and worker counts, and deterministic across repeated runs with
a fixed seed. These tests are the safety net that lets the pipeline
fan out aggressively.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import RPMClassifier, SaxParams
from repro.core.candidates import find_candidates
from repro.core.params import ParamSelector
from repro.core.selection import find_distinct
from repro.core.transform import pattern_features
from repro.data import cbf
from repro.obs.metrics import MetricsRegistry
from repro.runtime import (
    DiscretizationCache,
    ParallelExecutor,
    WindowStatsCache,
    resolve_n_jobs,
)

FIXED_PARAMS = SaxParams(window_size=24, paa_size=5, alphabet_size=4)


@pytest.fixture()
def rng() -> np.random.Generator:
    # Shadows the session-scoped conftest fixture so this module never
    # shifts the shared random stream other modules' data depends on.
    return np.random.default_rng(321)


def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise RuntimeError("boom")
    return x


def _thread_name(_):
    return threading.current_thread().name


class TestResolveNJobs:
    def test_serial_aliases(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(0) == 1
        assert resolve_n_jobs(1) == 1

    def test_all_cpus(self):
        assert resolve_n_jobs(-1) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(-2)


class TestParallelExecutor:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_map_preserves_order(self, backend, n_jobs):
        with ParallelExecutor(n_jobs, backend) as executor:
            assert executor.map(_square, range(23)) == [i * i for i in range(23)]

    def test_n_jobs_one_forces_serial(self):
        executor = ParallelExecutor(1, "process")
        assert executor.backend == "serial"
        assert executor._pool is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(2, "mpi")

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_exceptions_propagate(self, backend):
        with ParallelExecutor(2, backend) as executor:
            with pytest.raises(RuntimeError, match="boom"):
                executor.map(_raise_on_three, range(8))

    def test_explicit_chunk_size(self):
        with ParallelExecutor(2, "thread", chunk_size=3) as executor:
            items = list(range(10))
            assert executor._chunks(items) == [items[0:3], items[3:6], items[6:9], items[9:]]
            assert executor.map(_square, items) == [i * i for i in items]

    def test_empty_and_singleton(self):
        with ParallelExecutor(4, "thread") as executor:
            assert executor.map(_square, []) == []
            assert executor.map(_square, [5]) == [25]

    def test_close_is_idempotent(self):
        executor = ParallelExecutor(2, "thread")
        executor.map(_square, range(4))
        executor.close()
        executor.close()

    def test_single_item_with_metrics_runs_in_the_pool(self):
        # Regression: the single-item fast path used to bypass the pool
        # even with metrics enabled, so executor.chunk_seconds quietly
        # recorded serial timings on behalf of a thread backend.
        metrics = MetricsRegistry()
        with ParallelExecutor(2, "thread", metrics=metrics) as executor:
            name = executor.map(_thread_name, [0])[0]
            assert name != threading.current_thread().name
            assert name.startswith(executor._pool._thread_name_prefix)
        snap = metrics.snapshot()
        assert snap["counters"]["executor.chunks"] == 1
        assert snap["counters"]["executor.items"] == 1
        assert snap["histograms"]["executor.chunk_seconds"]["count"] == 1

    def test_single_item_without_metrics_stays_inline(self):
        with ParallelExecutor(2, "thread") as executor:
            name = executor.map(_thread_name, [0])[0]
            assert executor._pool is None
        assert name == threading.current_thread().name


@pytest.fixture(scope="module")
def dataset():
    return cbf(n_train_per_class=8, n_test_per_class=10, length=96, seed=7)


def _fit_outputs(dataset, n_jobs, backend):
    clf = RPMClassifier(
        sax_params=FIXED_PARAMS,
        seed=0,
        n_jobs=n_jobs,
        parallel_backend=backend,
    )
    clf.fit(dataset.X_train, dataset.y_train)
    return {
        "train_features": clf.selection_.train_features,
        "transform": clf.transform(dataset.X_test),
        "predictions": clf.predict(dataset.X_test),
        "patterns": [p.values for p in clf.patterns_],
        "labels": [p.label for p in clf.patterns_],
    }


class TestFitTransformEquivalence:
    """fit/transform bitwise-identical across backends and n_jobs."""

    @pytest.fixture(scope="class")
    def serial_reference(self, dataset):
        return _fit_outputs(dataset, 1, "serial")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_bitwise_equivalence(self, dataset, serial_reference, backend, n_jobs):
        outputs = _fit_outputs(dataset, n_jobs, backend)
        assert np.array_equal(
            serial_reference["train_features"], outputs["train_features"]
        )
        assert np.array_equal(serial_reference["transform"], outputs["transform"])
        assert np.array_equal(serial_reference["predictions"], outputs["predictions"])
        assert serial_reference["labels"] == outputs["labels"]
        assert len(serial_reference["patterns"]) == len(outputs["patterns"])
        for a, b in zip(serial_reference["patterns"], outputs["patterns"]):
            assert np.array_equal(a, b)

    def test_deterministic_across_repeated_runs(self, dataset):
        first = _fit_outputs(dataset, 2, "thread")
        second = _fit_outputs(dataset, 2, "thread")
        assert np.array_equal(first["transform"], second["transform"])
        assert np.array_equal(first["predictions"], second["predictions"])

    def test_cache_disabled_is_equivalent(self, dataset):
        """The caches change no bit of the search, selection or transform."""
        metrics = MetricsRegistry()

        def run(max_entries):
            stats = WindowStatsCache(max_entries, metrics=metrics)
            windows = DiscretizationCache(max_entries, metrics=metrics)
            selector = ParamSelector(
                dataset.X_train, dataset.y_train, n_splits=2, cv_folds=3, seed=0,
                discretize_cache=windows,
            )
            # The cache of the search's validation transforms.
            selector._stats_cache = stats
            params = selector.select_direct(max_evaluations=8, max_iterations=4)
            candidates = find_candidates(
                dataset.X_train, dataset.y_train, params, discretize_cache=windows
            )
            selection = find_distinct(
                dataset.X_train, dataset.y_train, candidates, cache=stats
            )
            features = pattern_features(dataset.X_test, selection.patterns, cache=stats)
            return {
                "caches": (stats, windows),
                "evaluations": selector._cache,
                "params": params,
                "selection": selection,
                "features": features,
            }

        cached = run(16)
        uncached = run(0)
        assert all(cache.hits > 0 for cache in cached["caches"])
        assert all(len(cache) == cache.hits == 0 for cache in uncached["caches"])
        assert cached["params"] == uncached["params"]
        assert list(cached["evaluations"]) == list(uncached["evaluations"])
        for key, evaluation in cached["evaluations"].items():
            assert evaluation.f1_by_class == uncached["evaluations"][key].f1_by_class
        a, b = cached["selection"], uncached["selection"]
        assert a.tau == b.tau and a.cfs_merit == b.cfs_merit
        assert np.array_equal(a.train_features, b.train_features)
        assert [p.label for p in a.patterns] == [p.label for p in b.patterns]
        for p, q in zip(a.patterns, b.patterns):
            assert np.array_equal(p.values, q.values)
        assert np.array_equal(cached["features"], uncached["features"])

    def test_param_search_equivalence(self, dataset):
        """The DIRECT search (Algorithm 3) is scheduling-independent too."""

        def run(n_jobs, backend):
            clf = RPMClassifier(
                direct_budget=6, n_splits=2, seed=0,
                n_jobs=n_jobs, parallel_backend=backend,
            )
            clf.fit(dataset.X_train, dataset.y_train)
            return clf.params_by_class_, clf.predict(dataset.X_test)

        params_serial, preds_serial = run(1, "serial")
        params_thread, preds_thread = run(4, "thread")
        assert params_serial == params_thread
        assert np.array_equal(preds_serial, preds_thread)


class TestComponentEquivalence:
    def test_find_candidates_parallel_matches_serial(self, dataset):
        params_by_class = {
            label: FIXED_PARAMS for label in np.unique(dataset.y_train)
        }
        serial = find_candidates(dataset.X_train, dataset.y_train, params_by_class)
        with ParallelExecutor(4, "thread") as executor:
            parallel = find_candidates(
                dataset.X_train, dataset.y_train, params_by_class, executor=executor
            )
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.label == b.label
            assert a.frequency == b.frequency
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pattern_features_parallel_matches_serial(self, dataset, backend, rng):
        patterns = [rng.standard_normal(L) for L in (16, 16, 24, 24, 24, 40, 96)]
        serial = pattern_features(dataset.X_test, patterns)
        with ParallelExecutor(3, backend) as executor:
            parallel = pattern_features(dataset.X_test, patterns, executor=executor)
        assert np.array_equal(serial, parallel)

    def test_rotation_invariant_parallel_matches_serial(self, dataset, rng):
        patterns = [rng.standard_normal(L) for L in (16, 24, 32)]
        serial = pattern_features(dataset.X_test, patterns, rotation_invariant=True)
        with ParallelExecutor(2, "thread") as executor:
            parallel = pattern_features(
                dataset.X_test, patterns, rotation_invariant=True, executor=executor
            )
        assert np.array_equal(serial, parallel)
