"""Observability layer: tracer, metrics registry, emitters, equivalence.

Three contracts under test:

1. spans nest correctly (per-thread stacks; a span opened on a thread
   with nothing open is a root), reach every layer through the active
   tracer (one per context, none in a new thread) and the emitters
   render them faithfully;
2. the registry is exactly thread-safe — concurrent increments are
   never lost;
3. tracing is an observer only — a traced ``fit``/``transform`` is
   bitwise identical to an untraced one, and the disabled tracer adds
   no measurable work.
"""

from __future__ import annotations

import gc
import json
import threading
import time

import numpy as np
import pytest

from repro import RPMClassifier, SaxParams
from repro.core import ParamSelector
from repro.core.params import ParamRanges
from repro.data import cbf, italy_power_sim
from repro.obs import (
    NOOP,
    MetricsRegistry,
    NullTracer,
    Span,
    Tracer,
    format_tree,
    registry,
    scoped_registry,
    span_records,
    tracing,
    write_jsonl,
)
from repro.obs.tracer import span
from repro.runtime import ParallelExecutor

FIXED_PARAMS = SaxParams(window_size=24, paa_size=5, alphabet_size=4)


@pytest.fixture(scope="module")
def dataset():
    return cbf(n_train_per_class=8, n_test_per_class=10, length=96, seed=7)


class TestTracer:
    def test_nesting_same_thread(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            with tracer.span("sibling") as sibling:
                pass
        assert [s.name for s in tracer.roots] == ["outer"]
        assert outer.children == [inner, sibling]
        assert [(r["name"], r["parent"]) for r in span_records(tracer)] == [
            ("outer", None),
            ("inner", "outer"),
            ("sibling", "outer"),
        ]
        assert outer.duration >= inner.duration >= 0.0

    def test_span_trees_hold_no_reference_cycle(self):
        # Children point down only, so reference counting frees a tree
        # (a served batch's spans) without the cyclic collector.
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.children == [inner]
        assert not any(isinstance(r, Span) for r in gc.get_referents(inner))

    def test_counters_and_meta(self):
        tracer = Tracer()
        with tracer.span("stage", label="A") as span:
            span.add("things", 2)
            span.add("things", 3)
        assert span.counters == {"things": 5}
        assert span.meta["label"] == "A"

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]
        assert all(s.children == [] and s.duration >= 0.0 for s in tracer.roots)

    def test_exception_annotates_and_closes(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.roots[0].meta["error"] == "RuntimeError"
        # The failed span was closed: the next one is a root again.
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.roots] == ["doomed", "after"]

    def test_other_threads_open_roots(self):
        tracer = Tracer()

        def worker():
            with tracer.span("request"):
                time.sleep(0.001)

        with tracer.span("main") as main:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sorted(s.name for s in tracer.roots) == ["main"] + ["request"] * 4
        assert main.children == []
        assert [r["parent"] for r in span_records(tracer)] == [None] * 5


class TestActiveTracer:
    def test_tracing_sets_and_restores_the_active_tracer(self):
        outer, inner = Tracer(), Tracer()
        with tracing(outer):
            with span("a"):
                with tracing(inner):
                    with span("b"):
                        pass
            with span("c"):
                pass
        with span("untraced"):
            pass
        assert [s.name for s in outer.roots] == ["a", "c"]
        assert outer.roots[0].children == []
        assert [s.name for s in inner.roots] == ["b"]

    def test_new_thread_starts_with_nothing_active(self):
        tracer = Tracer()

        def worker():
            with span("request"):
                pass

        with tracing(tracer), span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert [s.name for s in tracer.roots] == ["main"]
        assert tracer.roots[0].children == []

    def test_concurrent_fits_record_into_their_own_tracers(self, dataset):
        italy = italy_power_sim(n_train_per_class=8, n_test_per_class=4, seed=3)
        jobs = {
            "cbf": (dataset, FIXED_PARAMS, Tracer()),
            "italy": (italy, SaxParams(window_size=8, paa_size=4, alphabet_size=4), Tracer()),
        }
        barrier = threading.Barrier(len(jobs))
        errors = []

        def fit(data, params, tracer):
            try:
                barrier.wait(timeout=60)
                with tracing(tracer):
                    RPMClassifier(sax_params=params).fit(data.X_train, data.y_train)
            except Exception as exc:  # surfaced on the test thread
                errors.append(exc)

        threads = [threading.Thread(target=fit, args=job) for job in jobs.values()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not errors
        for data, _params, tracer in jobs.values():
            assert [s.name for s in tracer.roots] == ["fit"]
            mines = [s for s, _ in tracer.roots[0].walk() if s.name == "mine"]
            assert mines
            n_classes = np.unique(data.y_train).size
            assert all(s.counters["mine.classes"] == n_classes for s in mines)

    def test_fit_records_into_the_active_tracer(self, dataset):
        tracer = Tracer()
        with tracing(tracer):
            RPMClassifier(sax_params=FIXED_PARAMS).fit(dataset.X_train, dataset.y_train)
        assert [s.name for s in tracer.roots] == ["fit"]

    def test_traced_transform_times_its_executor_chunks(self, dataset):
        clf = RPMClassifier(sax_params=FIXED_PARAMS, n_jobs=2)
        clf.fit(dataset.X_train, dataset.y_train)
        with scoped_registry() as untraced:
            clf.transform(dataset.X_test)
        with scoped_registry() as traced, tracing(Tracer()):
            clf.transform(dataset.X_test)
        assert untraced.counter_value("executor.chunks") == 0
        assert traced.counter_value("executor.chunks") > 0

    def test_standalone_param_search_records_into_the_active_tracer(self, dataset):
        tracer = Tracer()
        selector = ParamSelector(
            dataset.X_train,
            dataset.y_train,
            ranges=ParamRanges(window=(16, 32), paa=(3, 5), alphabet=(3, 4)),
            n_splits=1,
        )
        with tracing(tracer):
            selector.select_direct(max_evaluations=3)
        names = {s.name for root in tracer.roots for s, _ in root.walk()}
        assert {"direct", "evaluate", "bisect"} <= names
        assert [s.name for s in tracer.roots] == ["direct"]


class TestNullTracer:
    def test_records_nothing(self):
        with NOOP.span("anything", key="value") as span:
            span.add("counter")
            span.annotate(more="meta")
        assert NOOP.roots == ()

    def test_span_returns_shared_handle(self):
        # Zero-cost contract: the disabled path allocates nothing.
        assert NOOP.span("a") is NOOP.span("b")

    def test_picklable(self):
        import pickle

        clone = pickle.loads(pickle.dumps(NOOP))
        assert isinstance(clone, NullTracer)

    def test_noop_overhead_is_negligible(self):
        """100k disabled spans must cost well under a second.

        The bound is intentionally loose (CI machines vary wildly); the
        point is catching an accidental allocation or lock on the
        disabled path, which would push this toward seconds.
        """
        t0 = time.perf_counter()
        for _ in range(100_000):
            with NOOP.span("x"):
                pass
        assert time.perf_counter() - t0 < 1.0


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 4)
        reg.set_gauge("g", 2.5)
        for v in (1.0, 3.0, 2.0):
            reg.observe("h", v)
        assert reg.counter_value("c") == 5
        assert reg.gauge_value("g") == 2.5
        hist = reg.histogram("h")
        assert hist.count == 3
        assert hist.min == 1.0 and hist.max == 3.0
        assert hist.mean == pytest.approx(2.0)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["histograms"]["h"]["count"] == 3

    def test_missing_names_read_as_zero(self):
        reg = MetricsRegistry()
        assert reg.counter_value("nope") == 0
        assert reg.gauge_value("nope") == 0.0
        assert reg.histogram("nope") is None
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.reset()
        assert reg.counter_value("c") == 0

    def test_thread_safety_under_thread_backend(self):
        """Concurrent increments from a thread pool are never lost."""
        reg = MetricsRegistry()
        per_item = 50

        def work(i):
            for _ in range(per_item):
                reg.inc("hits")
                reg.observe("lat", float(i))
            return i

        with ParallelExecutor(4) as executor:
            executor.map(work, range(40))
        assert reg.counter_value("hits") == 40 * per_item
        assert reg.histogram("lat").count == 40 * per_item

    def test_global_registry_is_shared(self):
        assert registry() is registry()

    def test_scoped_registry_keeps_global_state_clean(self):
        """Tests that hit the process-global registry scope it instead
        of mutating shared state other tests might read."""
        outer = registry()
        before = outer.counter_value("obs.test_scoped")
        with scoped_registry():
            registry().inc("obs.test_scoped", 9)
            assert registry().counter_value("obs.test_scoped") == 9
        assert registry() is outer
        assert outer.counter_value("obs.test_scoped") == before


class TestEmitters:
    def _traced(self) -> Tracer:
        tracer = Tracer()
        with tracer.span("fit") as fit:
            fit.add("n", 3)
            for _ in range(3):
                with tracer.span("evaluate") as ev:
                    ev.add("hits", 1)
        return tracer

    def test_format_tree_aggregates_siblings(self):
        text = format_tree(self._traced())
        assert "fit" in text
        # Three same-named children fold into one ×3 line.
        assert "evaluate ×3" in text
        assert "hits=3" in text

    def test_format_tree_empty(self):
        assert format_tree(Tracer()) == "(no spans recorded)"

    def test_span_records_depth_and_parent(self):
        records = list(span_records(self._traced()))
        assert records[0]["name"] == "fit"
        assert records[0]["depth"] == 0 and records[0]["parent"] is None
        assert all(r["depth"] == 1 and r["parent"] == "fit" for r in records[1:])
        assert len(records) == 4

    def test_write_jsonl_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("cache.hits", 7)
        reg.observe("executor.chunk_seconds", 0.25)
        path = write_jsonl(
            tmp_path / "m.jsonl",
            tracer=self._traced(),
            metrics=reg,
            meta={"run": "test"},
        )
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {line["type"] for line in lines}
        assert kinds == {"meta", "span", "counter", "histogram"}
        counters = {l["name"]: l["value"] for l in lines if l["type"] == "counter"}
        assert counters["cache.hits"] == 7

    def test_write_jsonl_empty_inputs_produce_valid_document(self, tmp_path):
        """No tracer + empty registry still yields a self-describing file."""
        path = write_jsonl(tmp_path / "m.jsonl", tracer=None, metrics=MetricsRegistry())
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records == [{"type": "meta", "spans": 0, "instruments": 0}]

    def test_write_jsonl_header_counts_and_meta(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("c")
        path = write_jsonl(
            tmp_path / "m.jsonl", tracer=self._traced(), metrics=reg, meta={"run": "x"}
        )
        header = json.loads(path.read_text().splitlines()[0])
        assert header["type"] == "meta"
        assert header["spans"] == 4 and header["instruments"] == 1
        assert header["run"] == "x"


class TestPipelineTracing:
    def test_fit_produces_expected_span_tree(self, dataset):
        tracer = Tracer()
        clf = RPMClassifier(sax_params=FIXED_PARAMS, seed=0)
        with tracing(tracer):
            clf.fit(dataset.X_train, dataset.y_train)
            clf.transform(dataset.X_test)
        names = {span.name for root in tracer.roots for span, _ in root.walk()}
        for expected in (
            "fit",
            "mine",
            "class",
            "discretize",
            "grammar",
            "refine",
            "bisect",
            "select",
            "tau",
            "dedup",
            "transform",
            "cfs",
            "classifier",
        ):
            assert expected in names, f"missing span {expected!r}"
        # Every span measured something.
        fit_root = tracer.roots[0]
        assert fit_root.name == "fit"
        assert fit_root.duration > 0

    def test_traced_fit_is_bitwise_identical(self, dataset):
        """Tracing must not perturb a single output bit."""

        def run(tracer):
            clf = RPMClassifier(sax_params=FIXED_PARAMS, seed=0)
            with tracing(tracer):
                clf.fit(dataset.X_train, dataset.y_train)
                return clf.selection_.train_features, clf.transform(dataset.X_test)

        plain_features, plain_transform = run(NOOP)
        traced_features, traced_transform = run(Tracer())
        assert np.array_equal(plain_features, traced_features)
        assert np.array_equal(plain_transform, traced_transform)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_traced_parallel_matches_untraced_serial(self, dataset, backend):
        """A traced run whose pattern bank runs on the ``backend``
        executor is bitwise identical to an untraced serial run."""

        def run(n_jobs, tracer):
            clf = RPMClassifier(sax_params=FIXED_PARAMS, seed=0, n_jobs=n_jobs)
            with tracing(tracer):
                clf.fit(dataset.X_train, dataset.y_train)
                return clf.transform(dataset.X_test), clf.predict(dataset.X_test)

        n_jobs = 1 if backend == "serial" else 3
        assert ParallelExecutor(n_jobs).backend == backend
        serial_transform, serial_preds = run(1, NOOP)
        traced_transform, traced_preds = run(n_jobs, Tracer())
        assert np.array_equal(serial_transform, traced_transform)
        assert np.array_equal(serial_preds, traced_preds)

    def test_executor_metrics_aggregate_across_backends(self):
        for n_jobs in (1, 2):
            reg = MetricsRegistry()
            with ParallelExecutor(n_jobs, metrics=reg) as executor:
                assert executor.map(_double, range(10)) == [2 * i for i in range(10)]
            assert reg.counter_value("executor.items") == 10
            hist = reg.histogram("executor.chunk_seconds")
            assert hist is not None
            assert hist.count == reg.counter_value("executor.chunks") > 0

    def test_executor_without_metrics_records_nothing(self):
        with ParallelExecutor(2) as executor:
            executor.map(_double, range(10))
        # The shared registry gains nothing from an uninstrumented map.
        assert executor.metrics is None

    def test_cache_counters_reach_registry(self, dataset):
        from repro.runtime.cache import WindowStatsCache

        with scoped_registry() as reg:
            cache = WindowStatsCache(4)
        X = dataset.X_train
        cache.stats(X, 16)
        cache.stats(X, 16)
        cache.stats(X, 24)
        assert reg.counter_value("cache.hits") == cache.hits == 1
        assert reg.counter_value("cache.misses") == cache.misses == 2


def _double(x):
    return 2 * x
