"""Parallel runtime: the thread executor and the serial fit.

``RPMClassifier.fit`` is one serial path whatever ``n_jobs`` says;
``n_jobs`` only fans the pattern bank's length buckets out over threads
in ``transform``, ``predict`` and serving. Scheduling never changes a
floating-point expression, so every output must be *bitwise* identical
across ``n_jobs`` values and deterministic across repeated runs.
"""

from __future__ import annotations

import collections
import sys
import threading

import numpy as np
import pytest

from repro import RPMClassifier, SaxParams
from repro.core.candidates import find_candidates
from repro.core.params import ParamSelector
from repro.core.selection import find_distinct
from repro.core.transform import PatternBank, pattern_features
from repro.data import cbf
from repro.obs.metrics import MetricsRegistry, scoped_registry
from repro.runtime import (
    DiscretizationCache,
    ParallelExecutor,
    WindowStatsCache,
    resolve_n_jobs,
)
from repro.serve import CompiledModel

FIXED_PARAMS = SaxParams(window_size=24, paa_size=5, alphabet_size=4)

#: The worker counts each executor backend covers.
N_JOBS_BY_BACKEND = {"serial": (1,), "thread": (2, 4)}


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
    @pytest.mark.parametrize("n_jobs,backend", [(1, "serial"), (2, "thread"), (4, "thread")])
    def test_map_preserves_order(self, n_jobs, backend):
        with ParallelExecutor(n_jobs) as executor:
            assert executor.backend == backend
            assert executor.map(_square, range(23)) == [i * i for i in range(23)]

    def test_n_jobs_one_forces_serial(self):
        executor = ParallelExecutor(1)
        assert executor.backend == "serial"
        caller = threading.current_thread().name
        assert executor.map(_thread_name, range(5)) == [caller] * 5
        assert executor._pool is None

    def test_unknown_backend_rejected(self):
        # n_jobs alone picks the loop or the thread pool.
        with pytest.raises(TypeError):
            ParallelExecutor(2, "process")
        with pytest.raises(TypeError):
            ParallelExecutor(2, backend="thread")

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_exceptions_propagate(self, backend):
        for n_jobs in N_JOBS_BY_BACKEND[backend]:
            with ParallelExecutor(n_jobs) as executor:
                assert executor.backend == backend
                with pytest.raises(RuntimeError, match="boom"):
                    executor.map(_raise_on_three, range(8))

    def test_empty_and_singleton(self):
        with ParallelExecutor(4) as executor:
            assert executor.map(_square, []) == []
            assert executor.map(_square, [5]) == [25]

    def test_close_is_idempotent(self):
        for n_jobs in (1, 2, 4):
            executor = ParallelExecutor(n_jobs)
            executor.map(_square, range(4))
            executor.close()
            executor.close()
            assert executor._pool is None

    def test_thread_backend_maps_on_the_caller_and_pool_threads(self):
        # The caller runs the first chunk while the pool's one thread
        # runs the second: both must be inside ``fn`` at once to pass
        # the barrier.
        barrier = threading.Barrier(2, timeout=10)

        def meet(_):
            barrier.wait()
            return threading.current_thread().name

        with ParallelExecutor(2) as executor:
            names = executor.map(meet, range(2))
            assert executor._pool._max_workers == 1
            prefix = executor._pool._thread_name_prefix
        assert names[0] == threading.current_thread().name
        assert names[1].startswith(prefix)

    def test_caller_runs_chunks_no_pool_thread_started(self):
        # While the pool's one thread is held in the second chunk, the
        # caller runs the first chunk and then every later one.
        started, release = threading.Event(), threading.Event()

        def hold(item):
            if item == 0:
                assert started.wait(10)
            elif item == 1:
                started.set()
                assert release.wait(10)
            elif item == 7:
                release.set()
            return threading.current_thread().name

        caller = threading.current_thread().name
        with ParallelExecutor(2) as executor:
            names = executor.map(hold, range(8))
            prefix = executor._pool._thread_name_prefix
        assert names[1].startswith(prefix)
        assert [names[0]] + names[2:] == [caller] * 7

    def test_metrics_count_every_item(self):
        for n_jobs in (1, 2, 4):
            metrics = MetricsRegistry()
            with ParallelExecutor(n_jobs, metrics=metrics) as executor:
                assert executor.map(_square, range(10)) == [i * i for i in range(10)]
            snap = metrics.snapshot()
            assert snap["counters"]["executor.items"] == 10
            chunks = snap["counters"]["executor.chunks"]
            assert snap["histograms"]["executor.chunk_seconds"]["count"] == chunks
            if n_jobs == 1:
                assert chunks == 1
            else:
                assert chunks > 1

    def test_first_failing_chunk_raises_whichever_thread_fails_first(self):
        # The caller fails in chunk 3 while the pool thread is still in
        # chunk 1, which fails afterwards: chunk 1's error is the one the
        # serial loop would raise.
        started, release = threading.Event(), threading.Event()

        def fail(item):
            if item == 0:
                assert started.wait(10)
            elif item == 1:
                started.set()
                assert release.wait(10)
                raise RuntimeError("one")
            elif item == 3:
                release.set()
                raise RuntimeError("three")
            return item

        with ParallelExecutor(2) as executor:
            with pytest.raises(RuntimeError, match="one"):
                executor.map(fail, range(8))

    def test_every_item_runs_once_under_contention(self):
        # More threads than cores and a short switch interval: the caller
        # and the pool race for the same chunks, and a chunk claimed by
        # both would count twice.
        counts = collections.Counter()
        lock = threading.Lock()

        def count(item):
            with lock:
                counts[item] += 1
            return item

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ParallelExecutor(8) as executor:
                for _ in range(100):
                    assert executor.map(count, range(50)) == list(range(50))
        finally:
            sys.setswitchinterval(interval)
        assert counts == {item: 100 for item in range(50)}

    def test_single_item_with_metrics_runs_on_the_caller(self):
        # One item is one chunk, the first: the caller runs it, no pool
        # opens, and its timing is still recorded.
        metrics = MetricsRegistry()
        with ParallelExecutor(2, metrics=metrics) as executor:
            name = executor.map(_thread_name, [0])[0]
            assert executor._pool is None
        assert name == threading.current_thread().name
        snap = metrics.snapshot()
        assert snap["counters"]["executor.chunks"] == 1
        assert snap["counters"]["executor.items"] == 1
        assert snap["histograms"]["executor.chunk_seconds"]["count"] == 1

    def test_single_item_without_metrics_stays_inline(self):
        with ParallelExecutor(2) as executor:
            name = executor.map(_thread_name, [0])[0]
            assert executor._pool is None
        assert name == threading.current_thread().name


@pytest.fixture(scope="module")
def dataset():
    return cbf(n_train_per_class=8, n_test_per_class=10, length=96, seed=7)


@pytest.fixture(scope="module")
def cbf_128():
    # 128-point series: the fitted bank has four length buckets, and
    # ``auto`` sends its 47×3 bucket to the FFT.
    return cbf(n_train_per_class=10, n_test_per_class=20, length=128, seed=1)


def _fit_outputs(dataset, n_jobs):
    clf = RPMClassifier(sax_params=FIXED_PARAMS, seed=0, n_jobs=n_jobs)
    clf.fit(dataset.X_train, dataset.y_train)
    return {
        "transform": clf.transform(dataset.X_test),
        "predictions": clf.predict(dataset.X_test),
    }


class _Spy:
    """Counts ``ParallelExecutor.map`` calls and started threads."""

    def __init__(self, monkeypatch) -> None:
        self.maps = 0
        self.threads: list[str] = []
        original_map = ParallelExecutor.map
        original_start = threading.Thread.start

        def map_(executor, fn, items):
            self.maps += 1
            return original_map(executor, fn, items)

        def start(thread):
            self.threads.append(thread.name)
            return original_start(thread)

        monkeypatch.setattr(ParallelExecutor, "map", map_)
        monkeypatch.setattr(threading.Thread, "start", start)


class TestFitTransformEquivalence:
    """One serial fit; bank threads never change a bit."""

    @pytest.mark.parametrize("n_jobs", [1, 2, 4, -1])
    def test_bitwise_equivalence(self, cbf_128, n_jobs, monkeypatch):
        """``transform``, ``predict`` and ``CompiledModel.transform``."""
        clf = RPMClassifier(sax_params=SaxParams(45, 4, 6)).fit(
            cbf_128.X_train, cbf_128.y_train
        )
        X = cbf_128.X_test
        features, labels = clf.transform(X), clf.predict(X)
        spy = _Spy(monkeypatch)
        clf.set_params(n_jobs=n_jobs)
        np.testing.assert_array_equal(clf.transform(X), features)
        np.testing.assert_array_equal(clf.predict(X), labels)
        with CompiledModel.from_classifier(clf, n_jobs=n_jobs) as model:
            np.testing.assert_array_equal(model.transform(X), features)
        threaded = resolve_n_jobs(n_jobs) > 1
        # The bank's four buckets fan out only when there are threads.
        assert (spy.maps > 0) == threaded
        assert bool(spy.threads) == threaded

    def test_deterministic_across_repeated_runs(self, dataset):
        first = _fit_outputs(dataset, 2)
        second = _fit_outputs(dataset, 2)
        assert np.array_equal(first["transform"], second["transform"])
        assert np.array_equal(first["predictions"], second["predictions"])

    def test_cache_disabled_is_equivalent(self, dataset):
        """The caches change no bit of the search, selection or transform."""

        def run(max_entries):
            with scoped_registry():
                stats = WindowStatsCache(max_entries)
                windows = DiscretizationCache(max_entries)
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

    def test_param_search_equivalence(self, dataset, monkeypatch):
        """A DIRECT fit with ``n_jobs=2`` never maps over an executor,
        starts no thread and gives the ``n_jobs=1`` model bit for bit."""

        def fit(n_jobs):
            clf = RPMClassifier(direct_budget=6, n_splits=2, seed=0, n_jobs=n_jobs)
            return clf.fit(dataset.X_train, dataset.y_train)

        reference = fit(1)
        spy = _Spy(monkeypatch)
        threaded = fit(2)
        assert spy.maps == 0
        assert spy.threads == []
        assert threaded.params_by_class_ == reference.params_by_class_
        assert threaded.n_param_evaluations_ == reference.n_param_evaluations_
        np.testing.assert_array_equal(
            threaded.selection_.train_features, reference.selection_.train_features
        )
        assert [p.label for p in threaded.patterns_] == [p.label for p in reference.patterns_]
        assert len(threaded.patterns_) == len(reference.patterns_)
        for a, b in zip(threaded.patterns_, reference.patterns_):
            np.testing.assert_array_equal(a.values, b.values)


class TestComponentEquivalence:
    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_pattern_features_parallel_matches_serial(self, dataset, n_jobs, rng):
        patterns = [rng.standard_normal(L) for L in (16, 16, 24, 24, 24, 40, 96)]
        serial = pattern_features(dataset.X_test, patterns)
        with ParallelExecutor(n_jobs) as executor:
            parallel = pattern_features(
                dataset.X_test, PatternBank(patterns), executor=executor
            )
        # 96-point rows keep every bucket on the mat-vec, where the
        # bank and the per-pattern path agree bitwise.
        assert np.array_equal(serial, parallel)

    def test_rotation_invariant_parallel_matches_serial(self, dataset, rng):
        patterns = [rng.standard_normal(L) for L in (16, 24, 32)]
        serial = pattern_features(dataset.X_test, patterns, rotation_invariant=True)
        with ParallelExecutor(2) as executor:
            parallel = pattern_features(
                dataset.X_test,
                PatternBank(patterns),
                rotation_invariant=True,
                executor=executor,
            )
        assert np.array_equal(serial, parallel)
