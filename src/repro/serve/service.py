"""Micro-batching prediction service over a :class:`CompiledModel`.

The serving loop is the classic latency/throughput trade: requests
arriving within a short window are coalesced into one batch, so the
per-batch costs — sliding-window statistics, one mat-vec per pattern,
one SVM call — amortize over every request in it.

One background worker thread drains the queue: the first request opens
a batch window, further requests join until ``max_batch`` is reached or
``max_delay_ms`` elapses, then the whole batch runs through the
compiled transform. Each request resolves to a typed
:class:`~repro.serve.types.PredictionResult`:

* validation failures resolve immediately at submit time (they never
  occupy queue or batch slots);
* requests whose deadline expired while queued are answered with a
  ``TIMEOUT`` result instead of being computed — graceful degradation
  under overload;
* a model failure mid-batch resolves every member with an ``ERROR``
  result; the worker loop never dies.

Batching is invisible in the outputs: the per-row transform is
row-independent and bitwise reproducible (pinned by the parity and
serve test suites), so predictions do not depend on which batch a
request landed in.

Observability: every batch is a ``serve.batch`` span carrying its
``batch_id`` and the member request IDs; the metrics registry carries
``serve.requests`` / ``serve.batches`` / ``serve.invalid`` /
``serve.deadline_misses`` / ``serve.errors`` counters, the
``serve.batch_size`` / ``serve.queue_wait_seconds`` /
``serve.latency_seconds`` histograms and the ``serve.queue_depth``
gauge (see ``docs/observability.md``). Every request gets a ``req-N``
correlation ID returned in its result; slow, timed-out, invalid and
errored requests additionally land in a bounded
:class:`~repro.serve.flight.FlightRecorder` (with their ``serve.batch``
span subtree) and in structured log lines, and the whole surface is
queryable live through the embedded
:class:`~repro.serve.admin.AdminServer` (``admin_port=``).
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from concurrent.futures import Future

import numpy as np

from ..obs import resolve_tracer
from ..obs.emitters import span_subtree
from ..obs.metrics import MetricsRegistry, registry
from ..obs.tracer import Tracer
from .admin import AdminServer
from .compiled import CompiledModel
from .config import ServeConfig
from .flight import FlightRecord, FlightRecorder
from .lifecycle import ModelHandle, ShadowReport, ShadowScorer
from .monitor import DriftMonitor, resolve_reference
from .types import PredictionRequest, PredictionResult, ResultStatus, validate_series

__all__ = ["PredictionService"]

_STOP = object()

_log = logging.getLogger("repro.serve")


class PredictionService:
    """Batched, deadline-aware serving front-end.

    Parameters
    ----------
    model:
        The model to serve: a :class:`CompiledModel`, or a
        :class:`~repro.serve.lifecycle.ModelHandle` (pass a handle
        opened against a :class:`~repro.serve.lifecycle.ModelRegistry`
        to enable version-name hot-swap and the admin ``POST /swap``).
        A bare model is wrapped in a private handle.
    config:
        The one :class:`~repro.serve.config.ServeConfig` carrying every
        serving knob (batching window, deadlines, flight capture, admin
        endpoint, shadow fraction); ``None`` means the defaults.
    trace / metrics:
        Observability wiring; defaults to the no-op tracer and the
        process-wide registry.
    """

    def __init__(
        self,
        model: CompiledModel | ModelHandle,
        *,
        config: ServeConfig | None = None,
        trace=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        config = config if config is not None else ServeConfig()
        self.config = config
        self.handle = model if isinstance(model, ModelHandle) else ModelHandle(model)
        self.max_batch = config.max_batch
        self.max_delay_s = config.max_delay_ms / 1000.0
        self.default_deadline_ms = config.default_deadline_ms
        self.validate = config.validate
        self._warmup = config.warmup
        self.slow_ms = config.slow_ms
        self.flight = FlightRecorder(config.flight_capacity)
        self.admin: AdminServer | None = None
        self._admin_port = config.admin_port
        self._admin_host = config.admin_host
        self.shadow: ShadowScorer | None = None
        self._shadow_owns_candidate = False
        self.drift: DriftMonitor | None = None
        self.tracer = resolve_tracer(trace)
        self.metrics = metrics if metrics is not None else registry()
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: threading.Thread | None = None
        self._running = False
        self._ready = False
        self._next_id = 0
        self._id_lock = threading.Lock()
        # Serializes the running-check-then-enqueue in submit() against
        # stop(): without it a racing submit can pass the check, lose
        # the CPU while stop() enqueues _STOP and the worker finishes
        # its final drain, and then land its put() on a queue nobody
        # will ever read — a forever-dangling future and a leaked +1 on
        # the serve.queue_depth gauge.
        self._submit_lock = threading.Lock()
        # Held by the batcher across each batch, from its first resolved
        # future through the shadow and drift offers. detach_shadow()
        # and detach_drift() take it, so a batch whose requests were
        # answered is still offered to the scorer and monitor that were
        # attached when they were answered. Reentrant: a future's
        # done-callback runs on the batcher thread and may detach.
        self._hooks_lock = threading.RLock()
        self._batches_done = 0

    # -- lifecycle -------------------------------------------------------------

    @property
    def model(self) -> CompiledModel:
        """The live compiled model (hot-swappable; see :meth:`swap`)."""
        return self.handle.model

    @property
    def model_version(self) -> str | None:
        """The live model's version name (``None`` when untracked)."""
        return self.handle.version

    @property
    def running(self) -> bool:
        """Liveness: the batching worker is accepting requests."""
        return self._running

    @property
    def ready(self) -> bool:
        """Readiness: running *and* the model warm-up has completed."""
        return self._running and self._ready

    def start(self) -> "PredictionService":
        """Warm the model up and launch the batching worker."""
        if self._running:
            return self
        if self._warmup:
            self.model.warmup(n=min(4, self.max_batch))
        self._publish_model_metrics()
        self._ready = True
        self._running = True
        self._thread = threading.Thread(
            target=self._worker, name="rpm-serve-batcher", daemon=True
        )
        self._thread.start()
        if self._admin_port is not None and self.admin is None:
            self.admin = AdminServer(
                self, host=self._admin_host, port=self._admin_port
            ).start()
        _log.info(
            "prediction service started",
            extra={
                "model": self.model.describe(),
                "max_batch": self.max_batch,
                "admin_url": self.admin.url() if self.admin else None,
            },
        )
        return self

    def stop(self) -> None:
        """Drain-and-stop: queued requests are still answered."""
        with self._submit_lock:
            if not self._running:
                return
            self._running = False
            self._ready = False
            self._queue.put(_STOP)
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        # Belt and braces against future enqueue paths: anything that
        # slipped in behind _STOP (impossible via submit(), which holds
        # the lock) still gets a typed answer instead of dangling.
        for request, future in self._drain():
            self.metrics.add_gauge("serve.queue_depth", -1)
            future.set_result(
                PredictionResult(
                    request_id=request.request_id,
                    status=ResultStatus.ERROR,
                    error_code="service-stopped",
                    error_message="service stopped before the request was batched",
                    model_version=self.handle.version,
                )
            )
        if self.admin is not None:
            self.admin.stop()
            self.admin = None
        self.detach_shadow()
        self.detach_drift()
        _log.info(
            "prediction service stopped",
            extra={
                "requests": self.metrics.counter_value("serve.requests"),
                "batches": self.metrics.counter_value("serve.batches"),
            },
        )

    def __enter__(self) -> "PredictionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- model lifecycle -------------------------------------------------------

    def _publish_model_metrics(self) -> None:
        """``serve.model_version`` gauge = handle generation (monotonic,
        so "the gauge moved" is the swap-happened signal), plus a
        labeled variant naming the version for the Prometheus export."""
        self.metrics.set_gauge("serve.model_version", float(self.handle.generation))
        if self.handle.version:
            self.metrics.set_gauge(
                f"serve.model_version[version={self.handle.version}]",
                float(self.handle.generation),
            )

    def swap(self, target, *, version: str | None = None, warm: bool = True) -> str:
        """Hot-swap the served model without dropping a request.

        ``target`` is anything :meth:`ModelHandle.open` accepts — an
        artifact path, a registry version name (when the handle carries
        a registry), or a prebuilt :class:`CompiledModel`. The incoming
        model is warmed first, the handle pointer flips between
        micro-batches, and the outgoing model closes once its last
        in-flight batch lease releases. Returns the installed version.
        """
        resolved = self.handle.swap(target, version=version, warm=warm)
        self.metrics.inc("serve.swaps")
        self._publish_model_metrics()
        _log.info(
            "model hot-swapped",
            extra={
                "version": resolved,
                "generation": self.handle.generation,
                "model": self.model.describe(),
            },
        )
        return resolved

    def describe_model(self) -> dict:
        """JSON-safe live-model state (the admin ``GET /model`` body)."""
        info = self.handle.describe()
        shadow = self.shadow
        if shadow is not None:
            info["shadow"] = shadow.report().as_record()
        return info

    def attach_shadow(
        self,
        candidate,
        *,
        version: str | None = None,
        fraction: float | None = None,
        max_backlog: int = 512,
    ) -> ShadowScorer:
        """Mirror a fraction of OK traffic onto ``candidate``.

        ``candidate`` resolves like a swap target. Scoring runs on the
        shadow thread — requests are answered before they are offered,
        so the latency path is untouched (pinned by the shadow section
        of ``bench_serve_load.py``). Read :meth:`shadow_report` and feed
        it to a :class:`~repro.serve.lifecycle.PromotionGate`.
        """
        if self.shadow is not None:
            raise RuntimeError(
                "a shadow candidate is already attached; detach_shadow() first"
            )
        owns = not isinstance(candidate, CompiledModel)
        model, resolved = self.handle._resolve(candidate, version_hint=version)
        scorer = ShadowScorer(
            model,
            version=resolved,
            fraction=self.config.shadow_fraction if fraction is None else fraction,
            max_backlog=max_backlog,
            metrics=self.metrics,
            flight=self.flight,
        )
        self._shadow_owns_candidate = owns
        self.shadow = scorer.start()
        _log.info(
            "shadow candidate attached",
            extra={"version": resolved, "fraction": scorer.fraction},
        )
        return scorer

    def detach_shadow(self) -> ShadowReport | None:
        """Stop shadow scoring; returns the final report (idempotent).

        Waits for the batch in flight to be offered first.
        """
        with self._hooks_lock:
            scorer, self.shadow = self.shadow, None
        if scorer is None:
            return None
        scorer.stop()
        report = scorer.report()
        if self._shadow_owns_candidate:
            scorer.candidate.close()
        self._shadow_owns_candidate = False
        return report

    def shadow_report(self) -> ShadowReport | None:
        """The live shadow run's aggregate so far (``None`` when off)."""
        return None if self.shadow is None else self.shadow.report()

    # -- drift monitoring ------------------------------------------------------

    def attach_drift(
        self,
        reference=None,
        *,
        window: int | None = None,
        threshold: float | None = None,
        max_backlog: int = 4096,
    ) -> DriftMonitor:
        """Compare live traffic against a training reference, off-path.

        ``reference`` resolves like
        :func:`~repro.serve.monitor.resolve_reference`: an explicit
        :class:`~repro.obs.sketch.ReferenceDistribution`, a
        ``reference.json`` / ``.npz`` path, or ``None`` to use the
        served registry version's published reference. Folding and PSI
        evaluation run on the monitor's own thread after futures
        resolve, so predictions stay bitwise identical with the monitor
        on or off (pinned by the drift suite and ``bench_drift.py``).
        """
        if self.drift is not None:
            raise RuntimeError(
                "a drift monitor is already attached; detach_drift() first"
            )
        ref = resolve_reference(
            reference, self.handle, n_columns=self.model.n_patterns
        )
        monitor = DriftMonitor(
            ref,
            window=self.config.drift_window if window is None else window,
            threshold=(
                self.config.drift_threshold if threshold is None else threshold
            ),
            max_backlog=max_backlog,
            metrics=self.metrics,
            flight=self.flight,
        )
        self.drift = monitor.start()
        _log.info(
            "drift monitor attached",
            extra={
                "window": monitor.window,
                "threshold": monitor.threshold,
                "reference": ref.meta(),
            },
        )
        return monitor

    def detach_drift(self) -> dict | None:
        """Stop drift monitoring; returns the final evaluation payload
        (``None`` when no monitor was attached or nothing was folded).

        Waits for the batch in flight to be offered first.
        """
        with self._hooks_lock:
            monitor, self.drift = self.drift, None
        if monitor is None:
            return None
        monitor.stop()
        return monitor.flush()

    def describe_drift(self) -> dict | None:
        """The live monitor's state (the admin ``GET /drift`` body);
        ``None`` when drift monitoring is off."""
        return None if self.drift is None else self.drift.describe()

    # -- submission ------------------------------------------------------------

    def _new_id(self) -> str:
        with self._id_lock:
            self._next_id += 1
            return f"req-{self._next_id}"

    def submit(self, series, *, deadline_ms: float | None = None) -> Future:
        """Enqueue one series; returns a future of a PredictionResult.

        Invalid input resolves the future immediately with an
        ``INVALID`` result — nothing malformed ever reaches the model.
        The result's ``request_id`` is the correlation token for spans,
        logs and the flight recorder.
        """
        if not self._running:
            raise RuntimeError(
                "PredictionService is not running; use `with service:` or call start()"
            )
        request_id = self._new_id()
        future: Future = Future()
        self.metrics.inc("serve.requests")
        expected = self.model.series_length if self.validate else None
        if self.validate:
            values, code, message = validate_series(series, expected)
        else:
            values, code, message = np.asarray(series, dtype=float), None, None
        if code is not None:
            self.metrics.inc("serve.invalid")
            self.flight.record(
                FlightRecord(
                    request_id=request_id,
                    status=ResultStatus.INVALID.value,
                    reason="invalid",
                    error_code=code,
                    error_message=message,
                )
            )
            _log.warning(
                "request rejected at validation",
                extra={"request_id": request_id, "error_code": code},
            )
            future.set_result(
                PredictionResult(
                    request_id=request_id,
                    status=ResultStatus.INVALID,
                    error_code=code,
                    error_message=message,
                    model_version=self.handle.version,
                )
            )
            return future
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        now = time.monotonic()
        request = PredictionRequest(
            series=values,
            request_id=request_id,
            deadline=None if deadline_ms is None else now + deadline_ms / 1000.0,
            enqueued_at=now,
        )
        # Re-check liveness and enqueue atomically against stop():
        # either this put lands before _STOP (the worker's final drain
        # answers it) or the service is already stopped and the caller
        # gets the RuntimeError — never a dangling future.
        with self._submit_lock:
            if not self._running:
                raise RuntimeError(
                    "PredictionService is not running; use `with service:` "
                    "or call start()"
                )
            self.metrics.add_gauge("serve.queue_depth", 1)
            self._queue.put((request, future))
        return future

    def predict_one(
        self, series, *, deadline_ms: float | None = None, wait_s: float | None = None
    ) -> PredictionResult:
        """Submit one series and block for its typed result."""
        return self.submit(series, deadline_ms=deadline_ms).result(timeout=wait_s)

    def predict_many(
        self, X, *, deadline_ms: float | None = None, wait_s: float | None = None
    ) -> list[PredictionResult]:
        """Submit every row of ``X`` and block for all results, in order.

        Rows are submitted as-is — never forced through one rectangular
        array — so a ragged batch (wrong-length or non-numeric rows
        mixed with good ones) yields per-row typed ``INVALID`` results
        instead of an untyped ``ValueError`` before validation runs.
        """
        futures = [self.submit(row, deadline_ms=deadline_ms) for row in X]
        return [future.result(timeout=wait_s) for future in futures]

    def predict(self, X) -> np.ndarray:
        """Label array for a clean batch — the RPMClassifier.predict shape.

        Every row must come back ``OK``; a validation failure, timeout
        or model error raises instead of silently dropping rows. The
        returned labels are bitwise identical to
        ``RPMClassifier.predict(X)`` on the same fitted model.
        """
        results = self.predict_many(X)
        bad = [r for r in results if not r.ok]
        if bad:
            first = bad[0]
            raise RuntimeError(
                f"{len(bad)}/{len(results)} requests failed; first: "
                f"{first.status.value} ({first.error_code or first.error_message})"
            )
        return np.array([r.label for r in results])

    # -- worker loop -----------------------------------------------------------

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            stopping = item is _STOP
            batch = [] if stopping else [item]
            if not stopping:
                window_closes = time.monotonic() + self.max_delay_s
                while len(batch) < self.max_batch:
                    remaining = window_closes - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        nxt = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                    if nxt is _STOP:
                        stopping = True
                        break
                    batch.append(nxt)
            if stopping:
                # Drain-and-answer whatever is still queued so no
                # submitted future ever dangles.
                batch.extend(self._drain())
            for lo in range(0, len(batch), self.max_batch):
                with self._hooks_lock:
                    self._process(batch[lo : lo + self.max_batch])
            if stopping:
                return

    def _drain(self) -> list:
        batch = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return batch
            if item is not _STOP:
                batch.append(item)

    def _process(self, batch: list) -> None:
        now = time.monotonic()
        self._batches_done += 1
        batch_id = self._batches_done
        self.metrics.inc("serve.batches")
        self.metrics.observe("serve.batch_size", len(batch))
        self.metrics.add_gauge("serve.queue_depth", -len(batch))
        # The whole micro-batch runs under one model lease: a concurrent
        # swap() flips the handle pointer for the *next* batch, while
        # this lease keeps the outgoing model open until release — the
        # atomic-swap contract (no request computed by a half-closed
        # model, every result stamped with the version that made it).
        lease = self.handle.acquire()
        model = lease.model
        version = lease.version
        # The serve.batch span goes to the configured tracer; with
        # tracing off but the flight recorder on, a throwaway local
        # Tracer records it instead, so captured entries always carry
        # their span subtree without accumulating unbounded span state
        # in a long-running service.
        capture = self.flight.enabled
        tracer = self.tracer if self.tracer.enabled else (Tracer() if capture else self.tracer)
        outcomes: list[tuple[PredictionRequest, PredictionResult]] = []
        try:
            with tracer.span("serve.batch") as span:
                span.annotate(
                    batch_id=batch_id,
                    request_ids=[request.request_id for request, _ in batch],
                    model_version=version,
                )
                span.add("batch.size", len(batch))
                live: list[tuple[PredictionRequest, Future]] = []
                for request, future in batch:
                    self.metrics.observe(
                        "serve.queue_wait_seconds", now - request.enqueued_at
                    )
                    if request.deadline is not None and now > request.deadline:
                        self.metrics.inc("serve.deadline_misses")
                        span.add("batch.deadline_misses")
                        result = PredictionResult(
                            request_id=request.request_id,
                            status=ResultStatus.TIMEOUT,
                            deadline_missed=True,
                            latency_ms=(now - request.enqueued_at) * 1000.0,
                            batch_id=batch_id,
                            model_version=version,
                        )
                        self._finish(request, future, result, outcomes)
                    else:
                        live.append((request, future))
                if live:
                    X = np.stack([request.series for request, _ in live])
                    try:
                        features = model.transform(X)
                        labels = model.classifier.predict(features)
                    except Exception as exc:  # typed results, never a dead worker
                        self.metrics.inc("serve.errors", len(live))
                        span.annotate(error=type(exc).__name__)
                        for request, future in live:
                            result = PredictionResult(
                                request_id=request.request_id,
                                status=ResultStatus.ERROR,
                                error_code="model-failure",
                                error_message=f"{type(exc).__name__}: {exc}",
                                latency_ms=(time.monotonic() - request.enqueued_at)
                                * 1000.0,
                                batch_id=batch_id,
                                model_version=version,
                            )
                            self._finish(request, future, result, outcomes)
                    else:
                        done = time.monotonic()
                        for i, (request, future) in enumerate(live):
                            late = (
                                request.deadline is not None
                                and done > request.deadline
                            )
                            if late:
                                self.metrics.inc("serve.deadline_misses")
                                span.add("batch.deadline_misses")
                            result = PredictionResult(
                                request_id=request.request_id,
                                status=ResultStatus.OK,
                                label=labels[i],
                                deadline_missed=late,
                                latency_ms=(done - request.enqueued_at) * 1000.0,
                                batch_id=batch_id,
                                model_version=version,
                                features=features[i],
                            )
                            self._finish(request, future, result, outcomes)
        finally:
            lease.release()
        # Everything below runs after every future in the batch has
        # resolved — flight capture and shadow mirroring never sit on
        # the request latency path.
        if capture and outcomes:
            self._record_flight(span, now, outcomes)
        shadow = self.shadow
        if shadow is not None:
            for request, result in outcomes:
                if result.status is ResultStatus.OK:
                    shadow.offer(
                        result.request_id,
                        request.series,
                        result.label,
                        result.latency_ms,
                    )
        drift = self.drift
        if drift is not None:
            for request, result in outcomes:
                if result.status is ResultStatus.OK and result.features is not None:
                    drift.observe(
                        result.request_id,
                        request.series,
                        result.features,
                        batch_id=result.batch_id,
                    )

    def _finish(self, request, future, result, outcomes) -> None:
        """Resolve one future and keep the outcome for flight capture."""
        self.metrics.observe("serve.latency_seconds", result.latency_ms / 1000.0)
        future.set_result(result)
        outcomes.append((request, result))

    def _record_flight(self, span, picked_up_at: float, outcomes) -> None:
        """Capture and log the batch's anomalous requests.

        Runs *after* every future in the batch has resolved, so
        recording and logging never sit on the request latency path.
        """
        spans = span_subtree(span)
        for request, result in outcomes:
            if result.status is ResultStatus.OK and not result.deadline_missed:
                if not self.slow_ms or result.latency_ms < self.slow_ms:
                    continue
                reason = "slow"
            elif result.status is ResultStatus.TIMEOUT:
                reason = "timeout"
            elif result.status is ResultStatus.ERROR:
                reason = "error"
            else:
                reason = "late"
            slack_ms = None
            if request.deadline is not None:
                finished = request.enqueued_at + result.latency_ms / 1000.0
                slack_ms = (request.deadline - finished) * 1000.0
            self.flight.record(
                FlightRecord(
                    request_id=result.request_id,
                    status=result.status.value,
                    reason=reason,
                    batch_id=result.batch_id,
                    queue_wait_ms=(picked_up_at - request.enqueued_at) * 1000.0,
                    latency_ms=result.latency_ms,
                    deadline_slack_ms=slack_ms,
                    error_code=result.error_code,
                    error_message=result.error_message,
                    spans=spans,
                )
            )
            _log.log(
                logging.ERROR if reason == "error" else logging.WARNING,
                "request %s",
                reason,
                extra={
                    "request_id": result.request_id,
                    "batch_id": result.batch_id,
                    "status": result.status.value,
                    "latency_ms": round(result.latency_ms, 3),
                    "deadline_slack_ms": None
                    if slack_ms is None
                    else round(slack_ms, 3),
                },
            )
