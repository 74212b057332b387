"""One serving front-end with two transports.

The serving loop is the classic latency/throughput trade: requests
arriving within a short window are coalesced into one batch, so the
per-batch costs — sliding-window statistics, one mat-vec per pattern,
one SVM call — amortize over every request in it.

Everything the two serving tiers do alike lives here, once:

* :func:`collect_batches` is the one batching loop over a request
  queue: the first request opens a window, further requests join until
  ``max_batch`` is reached or ``max_delay_ms`` elapses, and the stop
  sentinel drains whatever is still queued into the last batches;
* :func:`answer_batch` is the one batch runner. It turns a micro-batch
  into typed :class:`~repro.serve.types.PredictionResult` values:
  requests whose deadline expired while queued get ``TIMEOUT`` instead
  of being computed (graceful degradation under overload), the rest run
  through one compiled transform + SVM call, and a model failure
  mid-batch answers every live member with ``ERROR`` — the loop never
  dies;
* :class:`ServingFrontEnd` is the client API (``predict_one`` /
  ``predict_many`` / ``predict`` over each tier's ``submit``), the
  typed results answered at submit time (``INVALID`` rows never occupy
  a queue slot),
  and the one delivery path: resolve the futures, then flight capture,
  then the shadow and drift offers, all with ``_hooks_lock`` held — plus
  hot-swap, the admin endpoint and the shadow and drift attachments.

The tiers differ only in transport. :class:`PredictionService` runs
the loop on one batcher thread in this process;
:class:`~repro.serve.shard.ShardedPredictionService` runs it in each
shard worker process and delivers results from a collector thread.

Batching is invisible in the outputs: the per-row transform is
row-independent and bitwise reproducible (pinned by the parity and
serve test suites), so predictions do not depend on which batch a
request landed in.

Observability: every in-process batch is a ``serve.batch`` span
carrying its ``batch_id`` and the member request IDs; the metrics
registry carries ``serve.requests`` / ``serve.batches`` /
``serve.invalid`` / ``serve.deadline_misses`` / ``serve.errors``
counters, the ``serve.batch_size`` / ``serve.queue_wait_seconds`` /
``serve.latency_seconds`` histograms and the ``serve.queue_depth``
gauge (see ``docs/observability.md``). Every request gets a ``req-N``
correlation ID returned in its result; slow, timed-out, invalid and
errored requests additionally land in a bounded
:class:`~repro.serve.flight.FlightRecorder` (in-process entries with
their ``serve.batch`` span subtree) and in structured log lines, and
the whole surface is queryable live through the embedded
:class:`~repro.serve.admin.AdminServer` (``admin_port=``).
"""

from __future__ import annotations

import contextvars
import itertools
import logging
import queue
import threading
import time
from concurrent.futures import Future

import numpy as np

from ..obs.emitters import span_subtree
from ..obs.metrics import registry
from ..obs.tracer import Tracer, active_tracer, tracing
from .admin import AdminServer
from .compiled import CompiledModel
from .config import ServeConfig
from .flight import FlightRecord, FlightRecorder
from .lifecycle import ModelHandle, ShadowReport, ShadowScorer
from .monitor import DriftMonitor, resolve_reference
from .types import PredictionRequest, PredictionResult, ResultStatus, validate_series

__all__ = ["PredictionService", "ServingFrontEnd", "answer_batch", "collect_batches"]

_log = logging.getLogger("repro.serve")

#: Log line of each status a request can be answered with at submit time.
_REFUSALS = {
    ResultStatus.INVALID: "request rejected at validation",
    ResultStatus.OVERLOAD: "request shed by admission control",
}


def collect_batches(requests, max_batch: int, max_delay_s: float):
    """Yield micro-batches off one request queue until the stop sentinel.

    The first item opens a window; more join until ``max_batch`` items
    or ``max_delay_s`` seconds. ``None`` is the stop sentinel: whatever
    is still queued behind it is drained into the last batches, so no
    accepted request is left behind. ``requests`` may be a
    :class:`queue.SimpleQueue` or a :class:`multiprocessing.Queue` —
    both take ``get(timeout=)`` and raise :class:`queue.Empty`.
    """
    while True:
        item = requests.get()
        stopping = item is None
        batch = [] if stopping else [item]
        if not stopping:
            window_closes = time.monotonic() + max_delay_s
            while len(batch) < max_batch:
                remaining = window_closes - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    item = requests.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is None:
                    stopping = True
                    break
                batch.append(item)
        if stopping:
            batch.extend(_drain(requests))
        for lo in range(0, len(batch), max_batch):
            yield batch[lo : lo + max_batch]
        if stopping:
            return


def _drain(requests) -> list:
    """Everything queued right now, stop sentinels dropped."""
    items = []
    while True:
        try:
            item = requests.get_nowait()
        except queue.Empty:
            return items
        if item is not None:
            items.append(item)


def answer_batch(model, requests, now, *, batch_id, version, shard=None, span=None):
    """Answer one micro-batch with typed results, in request order.

    ``now`` is when the batch was picked up: a request whose deadline
    passed by then gets ``TIMEOUT`` without being computed. The rest
    run through one ``model.transform`` + classifier call and get
    ``OK`` (``deadline_missed`` when they finish late); if that call
    raises, every one of them gets ``ERROR`` with the ``model-failure``
    error code. Returns the results and the seconds
    spent in the model call. ``span``, when given, counts the batch's
    deadline misses and names a model failure.
    """
    results: list = [None] * len(requests)
    live = []
    for i, request in enumerate(requests):
        if request.deadline is not None and now > request.deadline:
            if span is not None:
                span.add("batch.deadline_misses")
            results[i] = PredictionResult(
                request_id=request.request_id,
                status=ResultStatus.TIMEOUT,
                deadline_missed=True,
                latency_ms=(now - request.enqueued_at) * 1000.0,
                batch_id=batch_id,
                shard=shard,
                model_version=version,
            )
        else:
            live.append(i)
    if not live:
        return results, 0.0
    t0 = time.monotonic()
    try:
        features = model.transform(np.stack([requests[i].series for i in live]))
        labels = model.classifier.predict(features)
    except Exception as exc:  # typed results, never a dead loop
        done = time.monotonic()
        if span is not None:
            span.annotate(error=type(exc).__name__)
        for i in live:
            results[i] = PredictionResult(
                request_id=requests[i].request_id,
                status=ResultStatus.ERROR,
                error_code="model-failure",
                error_message=f"{type(exc).__name__}: {exc}",
                latency_ms=(done - requests[i].enqueued_at) * 1000.0,
                batch_id=batch_id,
                shard=shard,
                model_version=version,
            )
        return results, done - t0
    done = time.monotonic()
    for row, i in enumerate(live):
        request = requests[i]
        late = request.deadline is not None and done > request.deadline
        if late and span is not None:
            span.add("batch.deadline_misses")
        results[i] = PredictionResult(
            request_id=request.request_id,
            status=ResultStatus.OK,
            label=labels[row],
            deadline_missed=late,
            latency_ms=(done - request.enqueued_at) * 1000.0,
            batch_id=batch_id,
            shard=shard,
            model_version=version,
            features=features[row],
        )
    return results, done - t0


class ServingFrontEnd:
    """What both serving tiers share; a tier adds only its transport.

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
        endpoint, shadow fraction, drift window); ``None`` means the
        defaults.

    The tier publishes its metrics to the process-wide registry of its
    construction (:func:`~repro.obs.registry`; build it inside
    :func:`~repro.obs.scoped_registry` to isolate them), and its spans
    to the tracer active where it runs.

    A tier implements ``start``, ``stop``, ``submit`` (validate, then
    enqueue) and ``_install`` (the model half of :meth:`swap`), and
    hands every computed result to :meth:`_resolve` and then
    :meth:`_offer`, both with ``_hooks_lock`` held. The detach methods
    take that lock, so a result that was answered is still offered to
    the scorer and monitor that were attached when it was answered.
    """

    def __init__(
        self,
        model: CompiledModel | ModelHandle,
        *,
        config: ServeConfig | None = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.handle = model if isinstance(model, ModelHandle) else ModelHandle(model)
        self.max_batch = self.config.max_batch
        self.flight = FlightRecorder(self.config.flight_capacity)
        self.admin: AdminServer | None = None
        self.shadow: ShadowScorer | None = None
        self._shadow_owns_candidate = False
        self.drift: DriftMonitor | None = None
        self.metrics = registry()
        self._running = False
        self._ready = threading.Event()
        self._ids = itertools.count(1)
        # Serializes the running-check-then-enqueue in submit() against
        # stop(): without it a racing submit can pass the check, lose
        # the CPU while stop() shuts the transport down, and then
        # enqueue where nobody will ever read — a forever-dangling
        # future and a leaked +1 on the serve.queue_depth gauge.
        self._submit_lock = threading.Lock()
        # Held from resolving a result's future through its shadow and
        # drift offers. Reentrant: a future's done-callback runs on the
        # delivering thread and may detach.
        self._hooks_lock = threading.RLock()

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
        """Liveness: the tier accepts requests."""
        return self._running

    @property
    def ready(self) -> bool:
        """Readiness: running *and* the model warm-up has completed."""
        return self._running and self._ready.is_set()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _announce_start(self, **extra) -> None:
        """Start the admin endpoint (when configured) and log the start."""
        if self.config.admin_port is not None and self.admin is None:
            self.admin = AdminServer(
                self, host=self.config.admin_host, port=self.config.admin_port
            ).start()
        _log.info(
            "%s started",
            type(self).__name__,
            extra={
                "model": self.model.describe(),
                "admin_url": self.admin.url() if self.admin else None,
                **extra,
            },
        )

    def _stop_observers(self) -> None:
        """Stop the admin endpoint, detach shadow and drift, log the stop."""
        if self.admin is not None:
            self.admin.stop()
            self.admin = None
        self.detach_shadow()
        self.detach_drift()
        _log.info(
            "%s stopped",
            type(self).__name__,
            extra={
                "requests": self.metrics.counter_value("serve.requests"),
                "batches": self.metrics.counter_value("serve.batches"),
            },
        )

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
        model is warmed first; every accepted request resolves exactly
        once, stamped with the version of the model that computed it.
        Returns the installed version.
        """
        resolved = self._install(target, version=version, warm=warm)
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

        ``candidate`` resolves like a swap target and runs in this
        process on the scorer's own thread. Requests are answered
        before they are offered, so the latency path is untouched
        (pinned by the shadow section of ``bench_serve_load.py``). Read
        :meth:`shadow_report` and feed it to a
        :class:`~repro.serve.lifecycle.PromotionGate`.
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

        Waits for the result in flight to be offered first.
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
        served registry version's published reference. The monitor runs
        in this process: each OK result's feature row (tagged with its
        shard on the sharded tier) is offered after its future
        resolved, and folding and PSI evaluation run on the monitor's
        own thread, so predictions stay bitwise identical with the
        monitor on or off (pinned by the drift suite and
        ``bench_drift.py``).
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

        Waits for the result in flight to be offered first.
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
        return f"req-{next(self._ids)}"

    def _require_running(self) -> None:
        if not self._running:
            raise RuntimeError(
                f"{type(self).__name__} is not running; use `with service:` "
                "or call start()"
            )

    def _request(self, values, request_id: str, deadline_ms) -> PredictionRequest:
        """A validated series as a request, its deadline made absolute."""
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        now = time.monotonic()
        return PredictionRequest(
            series=values,
            request_id=request_id,
            deadline=None if deadline_ms is None else now + deadline_ms / 1000.0,
            enqueued_at=now,
        )

    def _refuse(self, request_id: str, status: ResultStatus, code, message) -> Future:
        """A future answered at submit time — ``INVALID`` (validation) or
        ``OVERLOAD`` (admission) — so nothing malformed ever reaches the
        model and no refused request occupies a queue slot."""
        self.metrics.inc(f"serve.{status.value}")
        self.flight.record(
            FlightRecord(
                request_id=request_id,
                status=status.value,
                reason=status.value,
                error_code=code,
                error_message=message,
            )
        )
        _log.warning(
            _REFUSALS[status],
            extra={
                "request_id": request_id,
                "error_code": code,
                "error_message": message,
            },
        )
        future: Future = Future()
        future.set_result(
            PredictionResult(
                request_id=request_id,
                status=status,
                error_code=code,
                error_message=message,
                model_version=self.handle.version,
            )
        )
        return future

    def _stopped(self, request: PredictionRequest, shard: int | None = None):
        """The typed answer to a request the stopping tier never computed."""
        return PredictionResult(
            request_id=request.request_id,
            status=ResultStatus.ERROR,
            error_code="service-stopped",
            error_message="service stopped before the request was answered",
            shard=shard,
            model_version=self.handle.version,
        )

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

    # -- delivery --------------------------------------------------------------

    def _resolve(self, outcomes) -> None:
        """Resolve the futures of ``(request, future, result, queue_wait_s)``
        outcomes and count their latencies, deadline misses and errors."""
        for _, future, result, _ in outcomes:
            self.metrics.observe("serve.latency_seconds", result.latency_ms / 1000.0)
            future.set_result(result)
            if result.deadline_missed:
                self.metrics.inc("serve.deadline_misses")
            elif result.status is ResultStatus.ERROR:
                self.metrics.inc("serve.errors")

    def _offer(self, outcomes, span=None) -> None:
        """Flight capture, then the shadow and drift offers.

        The seam between resolving and offering: it runs after every
        future in ``outcomes`` resolved, with ``_hooks_lock`` held, so
        none of it sits on the request latency path.
        """
        if self.flight.enabled:
            self._record_flight(outcomes, span)
        shadow = self.shadow
        drift = self.drift
        if shadow is None and drift is None:
            return
        for request, _, result, _ in outcomes:
            if result.status is not ResultStatus.OK:
                continue
            if shadow is not None:
                shadow.offer(
                    result.request_id, request.series, result.label, result.latency_ms
                )
            if drift is not None and result.features is not None:
                drift.observe(
                    result.request_id,
                    request.series,
                    result.features,
                    batch_id=result.batch_id,
                    shard=result.shard,
                )

    def _record_flight(self, outcomes, span=None) -> None:
        """Capture and log the slow, late, timed-out and errored requests.

        ``span`` is the batch span the requests rode in; its subtree is
        built once, for the first request captured.
        """
        spans = None
        for request, _, result, queue_wait_s in outcomes:
            if result.status is ResultStatus.OK and not result.deadline_missed:
                slow_ms = self.config.slow_ms
                if not slow_ms or result.latency_ms < slow_ms:
                    continue
                reason = "slow"
            elif result.status is ResultStatus.TIMEOUT:
                reason = "timeout"
            elif result.status is ResultStatus.ERROR:
                reason = "error"
            else:
                reason = "late"
            if spans is None:
                spans = [] if span is None else span_subtree(span)
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
                    shard=result.shard,
                    queue_wait_ms=queue_wait_s * 1000.0,
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
                    "shard": result.shard,
                    "status": result.status.value,
                    "latency_ms": round(result.latency_ms, 3),
                    "deadline_slack_ms": None
                    if slack_ms is None
                    else round(slack_ms, 3),
                },
            )


class PredictionService(ServingFrontEnd):
    """In-process tier: one batcher thread runs :func:`collect_batches`
    and :func:`answer_batch` over a :class:`queue.SimpleQueue`.

    Takes the :class:`ServingFrontEnd` parameters; the sharding knobs
    of the config are ignored. The batcher thread runs in a copy of the
    context that called :meth:`start`, so a tier started inside
    ``tracing(tracer)`` records every batch into ``tracer``.
    """

    def __init__(
        self,
        model: CompiledModel | ModelHandle,
        *,
        config: ServeConfig | None = None,
    ) -> None:
        super().__init__(model, config=config)
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: threading.Thread | None = None
        self._batches_done = 0

    def start(self) -> "PredictionService":
        """Warm the model up and launch the batching worker."""
        if self._running:
            return self
        if self.config.warmup:
            self.model.warmup(n=min(4, self.max_batch))
        self._publish_model_metrics()
        self._ready.set()
        self._running = True
        self._thread = threading.Thread(
            target=contextvars.copy_context().run,
            args=(self._worker,),
            name="rpm-serve-batcher",
            daemon=True,
        )
        self._thread.start()
        self._announce_start(max_batch=self.max_batch)
        return self

    def stop(self) -> None:
        """Drain-and-stop: queued requests are still answered."""
        with self._submit_lock:
            if not self._running:
                return
            self._running = False
            self._ready.clear()
            self._queue.put(None)
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        # Nothing can enqueue behind the stop sentinel (submit holds the
        # lock), but a batcher that died still leaves its queue behind:
        # answer it with typed results instead of dangling futures.
        for request, future in _drain(self._queue):
            self.metrics.add_gauge("serve.queue_depth", -1)
            future.set_result(self._stopped(request))
        self._stop_observers()

    def _install(self, target, *, version, warm) -> str:
        """Warm the incoming model and flip the handle pointer between
        micro-batches; the outgoing model closes once its last in-flight
        batch lease releases."""
        return self.handle.swap(target, version=version, warm=warm)

    def submit(self, series, *, deadline_ms: float | None = None) -> Future:
        """Enqueue one series; returns a future of a PredictionResult.

        Invalid input resolves the future immediately with an
        ``INVALID`` result — nothing malformed ever reaches the model.
        The result's ``request_id`` is the correlation token for spans,
        logs and the flight recorder.
        """
        self._require_running()
        request_id = self._new_id()
        self.metrics.inc("serve.requests")
        values, code, message = validate_series(series, self.model.series_length)
        if code is not None:
            return self._refuse(request_id, ResultStatus.INVALID, code, message)
        request = self._request(values, request_id, deadline_ms)
        future: Future = Future()
        # Either this put lands before the stop sentinel (the worker's
        # final drain answers it) or the caller gets the RuntimeError.
        with self._submit_lock:
            self._require_running()
            self.metrics.add_gauge("serve.queue_depth", 1)
            self._queue.put((request, future))
        return future

    def _worker(self) -> None:
        max_delay_s = self.config.max_delay_ms / 1000.0
        for batch in collect_batches(self._queue, self.max_batch, max_delay_s):
            self._process(batch)

    def _process(self, batch: list) -> None:
        now = time.monotonic()
        self._batches_done += 1
        batch_id = self._batches_done
        self.metrics.inc("serve.batches")
        self.metrics.observe("serve.batch_size", len(batch))
        self.metrics.add_gauge("serve.queue_depth", -len(batch))
        requests = [request for request, _ in batch]
        for request in requests:
            self.metrics.observe("serve.queue_wait_seconds", now - request.enqueued_at)
        # The serve.batch span goes to the active tracer; with tracing
        # off but the flight recorder on, a throwaway local Tracer is
        # made active for the batch instead, so captured entries always
        # carry their span subtree without accumulating unbounded span
        # state in a long-running service.
        tracer = active_tracer()
        if not tracer.enabled and self.flight.enabled:
            tracer = Tracer()
        with self._hooks_lock:
            # The whole micro-batch runs under one model lease: a
            # concurrent swap() flips the handle pointer for the *next*
            # batch, while this lease keeps the outgoing model open
            # until release — no request is computed by a half-closed
            # model, and every result names the version that made it.
            lease = self.handle.acquire()
            try:
                with tracing(tracer), tracer.span("serve.batch") as span:
                    span.annotate(
                        batch_id=batch_id,
                        request_ids=[request.request_id for request in requests],
                        model_version=lease.version,
                    )
                    span.add("batch.size", len(batch))
                    results, _ = answer_batch(
                        lease.model,
                        requests,
                        now,
                        batch_id=batch_id,
                        version=lease.version,
                        span=span,
                    )
                    outcomes = [
                        (request, future, result, now - request.enqueued_at)
                        for (request, future), result in zip(batch, results)
                    ]
                    self._resolve(outcomes)
            finally:
                lease.release()
            self._offer(outcomes, span)
