"""Sharded multi-process serving tier over a compiled pattern bank.

A single :class:`~repro.serve.service.PredictionService` is bounded by
one process's worth of CPU: NumPy releases the GIL inside the distance
kernels, but the Python batching loop, the SVM and the per-request
bookkeeping all contend for it. This module scales the same typed
serving contract across **N worker processes** without N copies of the
pattern bank:

* :class:`SharedPatternBank` exports a :class:`CompiledModel`'s
  pre-normalized per-length buckets into **one**
  :class:`multiprocessing.shared_memory.SharedMemory` block. The parent
  builds it once; every worker attaches read-only views and serves
  straight out of them — bank memory is paid once, not per shard.
* :class:`ShardedPredictionService` is the dispatcher: deterministic
  round-robin routing over per-worker request queues, one shared
  results queue, and the exact client API of ``PredictionService``
  (``submit`` / ``predict_one`` / ``predict_many`` / ``predict``).
* **Admission control**: when a shard's estimated queue wait (inflight
  × EWMA per-request service time) exceeds ``admission_budget_ms``, or
  its inflight count hits ``max_queue_per_shard``, the request is shed
  at submit time with a typed ``OVERLOAD`` result — bounded queues
  instead of unbounded latency.
* **Worker recycle / crash recovery**: the dispatcher keeps every
  accepted request in a pending table until its result arrives, so a
  worker that is recycled (:meth:`ShardedPredictionService.recycle`) or
  killed mid-batch loses nothing — its unresolved requests are
  re-dispatched to a fresh worker on a fresh queue. Results are
  deduplicated by request ID (pop-on-arrival), so a request computed
  twice still resolves exactly once.

Workers are started with the ``spawn`` context by default: the
dispatcher runs collector/monitor threads, and forking a threaded
process is how deadlocks are born. Every floating-point input a worker
needs (shm bank values, pickled ``qq`` norms, the classifier) travels
byte-exact, and the per-row arithmetic is the training transform's, so
sharded predictions are **bitwise identical** to the single-process
service and to ``RPMClassifier.predict`` — pinned by the shard test
suite.

Shared-memory lifetime: the parent owns the segment. ``stop()`` (or the
context-manager exit) closes and unlinks it; workers unregister their
attachment from the stdlib resource tracker so a dying worker can never
unlink the bank out from under its siblings.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import queue as queue_mod
import threading
import time
from concurrent.futures import Future
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..core.transform import LengthBucket
from ..obs import resolve_tracer
from ..obs.metrics import MetricsRegistry, registry
from .admin import AdminServer
from .compiled import CompiledModel
from .config import ServeConfig
from .flight import FlightRecord, FlightRecorder
from .lifecycle import ModelHandle, ShadowReport, ShadowScorer
from .monitor import DriftMonitor, resolve_reference
from .types import PredictionRequest, PredictionResult, ResultStatus, validate_series

__all__ = ["SharedPatternBank", "ShardedPredictionService"]

_log = logging.getLogger("repro.serve.shard")


def shard_metric(name: str, shard: int) -> str:
    """Registry key for a per-shard series: ``serve.requests[shard=0]``.

    The bracket suffix is the label convention
    :func:`repro.obs.export.to_prometheus` parses back into Prometheus
    labels (``serve_requests_total{shard="0"}``); in ``rpm metrics`` /
    JSON snapshots the bracketed name appears verbatim.
    """
    return f"{name}[shard={shard}]"


# ---------------------------------------------------------------------------
# Shared pattern bank
# ---------------------------------------------------------------------------


class SharedPatternBank:
    """A compiled pattern bank packed into one shared-memory block.

    Layout: a single float64 vector holding, back to back, every raw
    pattern's values followed by every native-plan bucket's
    pre-z-normalized prototype. All offsets are in float64 elements, so
    every view is 8-byte aligned. The :attr:`spec` dict carries the
    offsets plus the non-array compile products (``q_is_flat`` flags,
    ``qq`` squared norms, bucket column maps) and travels to workers by
    pickle — floats round-trip exactly, which the bitwise-equivalence
    guarantee depends on.

    Build in the parent with :meth:`build`, attach in each worker with
    :meth:`attach`. The parent calls :meth:`close` + :meth:`unlink` at
    shutdown; workers only ever :meth:`close`.
    """

    def __init__(self, shm, spec: dict, *, owner: bool) -> None:
        self._shm = shm
        self.spec = spec
        self._owner = owner
        self._closed = False
        base = np.ndarray((spec["n_floats"],), dtype=np.float64, buffer=shm.buf)
        if not owner:
            base.flags.writeable = False
        self._base = base
        self.values = [base[off : off + n] for off, n in spec["values"]]
        self.native_plan = [
            LengthBucket(
                length,
                list(cols),
                [
                    _SharedPrenormalized(base[q_off : q_off + q_len], q_is_flat, qq)
                    for q_off, q_len, q_is_flat, qq in pres
                ],
            )
            for length, cols, pres in spec["buckets"]
        ]

    @classmethod
    def build(cls, model: CompiledModel) -> "SharedPatternBank":
        """Pack ``model``'s values and native plan into fresh shm."""
        values = model.bank.values
        plan = model.bank.native_plan
        n_floats = sum(v.size for v in values) + sum(
            pre.q.size for bucket in plan for pre in bucket.pres
        )
        shm = shared_memory.SharedMemory(create=True, size=max(8, n_floats * 8))
        base = np.ndarray((n_floats,), dtype=np.float64, buffer=shm.buf)
        off = 0
        value_spec = []
        for v in values:
            base[off : off + v.size] = v
            value_spec.append((off, int(v.size)))
            off += v.size
        bucket_spec = []
        for bucket in plan:
            pres = []
            for pre in bucket.pres:
                base[off : off + pre.q.size] = pre.q
                pres.append((off, int(pre.q.size), bool(pre.q_is_flat), float(pre.qq)))
                off += pre.q.size
            bucket_spec.append((int(bucket.length), list(bucket.cols), pres))
        spec = {
            "shm_name": shm.name,
            "n_floats": int(n_floats),
            "values": value_spec,
            "buckets": bucket_spec,
        }
        return cls(shm, spec, owner=True)

    @classmethod
    def attach(cls, spec: dict) -> "SharedPatternBank":
        """Attach read-only views in a worker process.

        Python's :class:`~multiprocessing.shared_memory.SharedMemory`
        registers the segment with the resource tracker even on a plain
        attach — and spawn children share the parent's tracker process,
        so a worker registering and later unregistering would strip the
        *parent's* registration (the tracker cache is one set per
        name). The attach must therefore never register at all: via
        ``track=False`` where available (3.13+), otherwise by masking
        ``resource_tracker.register`` for the duration of the attach.
        The parent stays the sole registrant and the sole unlinker.
        """
        try:
            shm = shared_memory.SharedMemory(name=spec["shm_name"], track=False)
        except TypeError:  # Python < 3.13: no track kwarg
            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                shm = shared_memory.SharedMemory(name=spec["shm_name"])
            finally:
                resource_tracker.register = original_register
        return cls(shm, spec, owner=False)

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        if self._closed:
            return
        self._closed = True
        self.values = []
        self.native_plan = []
        self._base = None
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner only, after every close)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class _SharedPrenormalized:
    """A :class:`~repro.runtime.kernel.PrenormalizedPattern` whose ``q``
    is a shared-memory view instead of a private array.

    Same attribute contract (``q`` / ``q_is_flat`` / ``qq`` /
    ``length``), so the distance kernels cannot tell the difference —
    only the storage moved.
    """

    __slots__ = ("q", "q_is_flat", "qq", "length")

    def __init__(self, q: np.ndarray, q_is_flat: bool, qq: float) -> None:
        self.q = q
        self.q_is_flat = q_is_flat
        self.qq = qq
        self.length = int(q.size)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _shard_worker_main(
    shard_id: int,
    generation: int,
    bank_spec: dict,
    payload: dict,
    knobs: dict,
    request_q,
    result_q,
) -> None:
    """Entry point of one shard worker (module-level: spawn-picklable).

    Mirrors the single-process batching loop: the first request opens a
    window, more join until ``max_batch`` / ``max_delay_ms``, the batch
    runs through the shm-backed compiled model, and every request is
    answered with a typed :class:`PredictionResult` carrying this
    shard's ID. A ``None`` sentinel means drain-and-stop; a model
    failure yields per-request ``ERROR`` results, never a dead loop.
    """
    bank = SharedPatternBank.attach(bank_spec)
    try:
        model = CompiledModel.from_shared_bank(
            bank.values,
            bank.native_plan,
            payload["classifier"],
            rotation_invariant=payload["rotation_invariant"],
            classes=payload["classes"],
            series_length=payload["series_length"],
            n_jobs=1,
            kernel_backend=payload["kernel_backend"],
        )
        if knobs["warmup"]:
            model.warmup(n=min(4, knobs["max_batch"]))
        result_q.put(("ready", shard_id, generation))
        max_batch = knobs["max_batch"]
        max_delay_s = knobs["max_delay_ms"] / 1000.0
        batches_done = 0
        while True:
            item = request_q.get()
            stopping = item is None
            batch = [] if stopping else [item]
            if not stopping:
                window_closes = time.monotonic() + max_delay_s
                while len(batch) < max_batch:
                    remaining = window_closes - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        nxt = request_q.get(timeout=max(remaining, 1e-4))
                    except queue_mod.Empty:
                        break
                    if nxt is None:
                        stopping = True
                        break
                    batch.append(nxt)
            if stopping:
                while True:
                    try:
                        nxt = request_q.get_nowait()
                    except queue_mod.Empty:
                        break
                    if nxt is not None:
                        batch.append(nxt)
            for lo in range(0, len(batch), max_batch):
                batches_done += 1
                _shard_process(
                    model,
                    batch[lo : lo + max_batch],
                    shard_id,
                    generation,
                    batches_done,
                    result_q,
                    payload.get("model_version"),
                )
            if stopping:
                result_q.put(("stopped", shard_id, generation))
                return
    finally:
        bank.close()


def _shard_process(
    model, batch, shard_id, generation, batch_id, result_q, model_version=None
) -> None:
    """Run one micro-batch and emit per-request result messages.

    ``model_version`` rides in from the worker's spawn payload: a
    recycled (post-swap) worker serves the new version, while a worker
    still draining the old generation stamps the old one — results are
    always attributed to the exact artifact that computed them.
    """
    now = time.monotonic()
    t_model = 0.0
    live = []
    for request in batch:
        if request.deadline is not None and now > request.deadline:
            result_q.put(
                (
                    "res",
                    shard_id,
                    generation,
                    PredictionResult(
                        request_id=request.request_id,
                        status=ResultStatus.TIMEOUT,
                        deadline_missed=True,
                        latency_ms=(now - request.enqueued_at) * 1000.0,
                        batch_id=batch_id,
                        shard=shard_id,
                        model_version=model_version,
                    ),
                    now - request.enqueued_at,
                )
            )
        else:
            live.append(request)
    if live:
        X = np.stack([request.series for request in live])
        t0 = time.monotonic()
        try:
            features = model.transform(X)
            labels = model.classifier.predict(features)
        except Exception as exc:  # typed results, never a dead worker
            done = time.monotonic()
            t_model = done - t0
            for request in live:
                result_q.put(
                    (
                        "res",
                        shard_id,
                        generation,
                        PredictionResult(
                            request_id=request.request_id,
                            status=ResultStatus.ERROR,
                            error_code="model-failure",
                            error_message=f"{type(exc).__name__}: {exc}",
                            latency_ms=(done - request.enqueued_at) * 1000.0,
                            batch_id=batch_id,
                            shard=shard_id,
                            model_version=model_version,
                        ),
                        now - request.enqueued_at,
                    )
                )
        else:
            done = time.monotonic()
            t_model = done - t0
            for i, request in enumerate(live):
                late = request.deadline is not None and done > request.deadline
                result_q.put(
                    (
                        "res",
                        shard_id,
                        generation,
                        PredictionResult(
                            request_id=request.request_id,
                            status=ResultStatus.OK,
                            label=labels[i],
                            deadline_missed=late,
                            latency_ms=(done - request.enqueued_at) * 1000.0,
                            batch_id=batch_id,
                            shard=shard_id,
                            model_version=model_version,
                            features=features[i],
                        ),
                        now - request.enqueued_at,
                    )
                )
    result_q.put(("batch", shard_id, generation, len(batch), t_model))


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


class _ShardState:
    """Parent-side bookkeeping for one worker slot."""

    __slots__ = (
        "shard_id",
        "generation",
        "process",
        "request_q",
        "result_q",
        "state",
        "ready",
        "crashes",
    )

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.generation = 0
        self.process = None
        self.request_q = None
        self.result_q = None
        self.state = "new"  # new | starting | up | draining | stopped | dead
        self.ready = False
        # Consecutive deaths before reaching ready; a shard that
        # crash-loops this way is marked dead instead of respawned
        # forever (see _MAX_CRASH_RESPAWNS).
        self.crashes = 0


#: Consecutive never-became-ready worker deaths before a shard is
#: declared dead rather than respawned again — a worker that cannot
#: even finish warm-up (broken environment, unimportable module) would
#: otherwise crash-loop forever.
_MAX_CRASH_RESPAWNS = 3


class _Pending:
    """One accepted, not-yet-resolved request."""

    __slots__ = ("request", "future", "shard")

    def __init__(self, request: PredictionRequest, future: Future, shard: int) -> None:
        self.request = request
        self.future = future
        self.shard = shard


class ShardedPredictionService:
    """Multi-process sharded front-end with the PredictionService API.

    Parameters
    ----------
    model:
        A :class:`CompiledModel` or a
        :class:`~repro.serve.lifecycle.ModelHandle` (registry-backed
        handles enable version-name hot-swap; see :meth:`swap`).
    config:
        The one :class:`~repro.serve.config.ServeConfig`. The sharded
        tier reads the whole config, including ``n_shards`` (``0`` =
        this tier's default of 2), ``admission_budget_ms``,
        ``max_queue_per_shard``, ``mp_context`` and
        ``start_timeout_s``; ``None`` means the defaults.
    trace / metrics:
        Observability wiring; defaults to the no-op tracer and the
        process-wide registry.

    The model's pattern bank is exported once into shared memory
    (:class:`SharedPatternBank`); the classifier travels to workers by
    pickle. Predictions are bitwise identical to the single-process
    service — routing, batching and process boundaries never change a
    bit.
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
        self.n_shards = config.n_shards or 2
        self.max_batch = config.max_batch
        self.max_delay_ms = config.max_delay_ms
        self.default_deadline_ms = config.default_deadline_ms
        self.validate = config.validate
        self._warmup = config.warmup
        self.admission_budget_ms = config.admission_budget_ms
        self.max_queue_per_shard = config.max_queue_per_shard
        self.slow_ms = config.slow_ms
        self.flight = FlightRecorder(config.flight_capacity)
        self.admin: AdminServer | None = None
        self._admin_port = config.admin_port
        self._admin_host = config.admin_host
        self._mp_context = config.mp_context
        self.start_timeout_s = config.start_timeout_s
        self.shadow: ShadowScorer | None = None
        self._shadow_owns_candidate = False
        self.drift: DriftMonitor | None = None
        self._swap_lock = threading.Lock()
        self.tracer = resolve_tracer(trace)
        self.metrics = metrics if metrics is not None else registry()
        self._ctx = mp.get_context(config.mp_context)
        self._shards = [_ShardState(i) for i in range(self.n_shards)]
        self._pending: dict[str, _Pending] = {}
        self._lock = threading.Lock()  # pending table + shard states + routing
        self._submit_lock = threading.Lock()  # submit vs stop
        # Held by the collector from resolving a future through its
        # shadow and drift offers; the detach methods take it, so a
        # result that was answered is still offered to the scorer and
        # monitor that were attached when it was answered. Reentrant: a
        # future's done-callback runs on the collector and may detach.
        self._hooks_lock = threading.RLock()
        self._running = False
        self._stopping = threading.Event()
        self._collector: threading.Thread | None = None
        self._monitor: threading.Thread | None = None
        self._ready_event = threading.Event()
        self._bank: SharedPatternBank | None = None
        self._next_id = 0
        self._rr = 0
        # EWMA of per-request model service time, seconds; feeds the
        # admission estimate. None until the first batch reports.
        self._service_ewma_s: float | None = None
        self._inflight = [0] * self.n_shards

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
        """Liveness: the dispatcher accepts requests."""
        return self._running

    @property
    def ready(self) -> bool:
        """Readiness: running and every shard's warm-up completed."""
        return self._running and self._ready_event.is_set()

    def _payload(self) -> dict:
        return {
            "classifier": self.model.classifier,
            "classes": self.model.classes,
            "series_length": self.model.series_length,
            "rotation_invariant": self.model.rotation_invariant,
            "kernel_backend": self.model.kernel_backend,
            "model_version": self.handle.version,
        }

    def _knobs(self) -> dict:
        return {
            "max_batch": self.max_batch,
            "max_delay_ms": self.max_delay_ms,
            "warmup": self._warmup,
        }

    def _spawn(self, shard: _ShardState) -> None:
        """(Re)launch one worker on fresh request *and* result queues.

        Fresh queues every generation, both directions. Requests: a
        dead worker's old queue may still hold accepted items nobody
        will ever read — those are re-dispatched from the pending
        table, and reusing the queue would double-deliver them.
        Results: queues are deliberately **per shard**, never shared —
        a worker killed mid-write would leave a shared queue's writer
        lock held and its byte stream truncated, wedging every other
        shard's results behind it. Per-shard, a kill only corrupts the
        dead worker's own channel; its unresolved requests are
        re-dispatched and the channel is discarded.
        """
        shard.generation += 1
        shard.request_q = self._ctx.Queue()
        shard.result_q = self._ctx.Queue()
        shard.ready = False
        shard.state = "starting"
        shard.process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                shard.shard_id,
                shard.generation,
                self._bank.spec,
                self._payload(),
                self._knobs(),
                shard.request_q,
                shard.result_q,
            ),
            name=f"rpm-shard-{shard.shard_id}",
            daemon=True,
        )
        shard.process.start()

    def start(self) -> "ShardedPredictionService":
        """Export the bank, spawn every shard, wait for readiness."""
        if self._running:
            return self
        self._stopping.clear()
        self._ready_event.clear()
        self._bank = SharedPatternBank.build(self.model)
        self._publish_model_metrics()
        for shard in self._shards:
            self._spawn(shard)
        self._running = True
        self._collector = threading.Thread(
            target=self._collect, name="rpm-shard-collector", daemon=True
        )
        self._collector.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="rpm-shard-monitor", daemon=True
        )
        self._monitor.start()
        if not self._ready_event.wait(self.start_timeout_s):
            self.stop()
            raise RuntimeError(
                f"sharded service failed to become ready within "
                f"{self.start_timeout_s:.0f}s"
            )
        if self._admin_port is not None and self.admin is None:
            self.admin = AdminServer(
                self, host=self._admin_host, port=self._admin_port
            ).start()
        _log.info(
            "sharded prediction service started",
            extra={
                "model": self.model.describe(),
                "n_shards": self.n_shards,
                "admin_url": self.admin.url() if self.admin else None,
            },
        )
        return self

    def stop(self) -> None:
        """Drain-and-stop: accepted requests are still answered."""
        with self._submit_lock:
            if not self._running:
                return
            self._running = False
        deadline = time.monotonic() + 30.0
        for shard in self._shards:
            if shard.process is not None and shard.process.is_alive():
                shard.state = "draining"
                shard.request_q.put(None)
        # Accepted work resolves through the collector as workers drain.
        while self._pending and time.monotonic() < deadline:
            time.sleep(0.01)
        for shard in self._shards:
            if shard.process is not None:
                shard.process.join(timeout=max(0.1, deadline - time.monotonic()))
                if shard.process.is_alive():  # pragma: no cover - wedged worker
                    shard.process.terminate()
                    shard.process.join(timeout=5.0)
                shard.state = "stopped"
                shard.process = None
            if shard.request_q is not None:
                shard.request_q.close()
                shard.request_q.cancel_join_thread()
                shard.request_q = None
        self._stopping.set()
        if self._collector is not None:
            self._collector.join(timeout=10.0)
            self._collector = None
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
            self._monitor = None
        # Result queues close only after the collector has swept the
        # drained workers' final messages.
        for shard in self._shards:
            if shard.result_q is not None:
                shard.result_q.close()
                shard.result_q.cancel_join_thread()
                shard.result_q = None
        # Anything a wedged or killed worker never answered gets a
        # typed result.
        with self._lock:
            stragglers = list(self._pending.values())
            self._pending.clear()
        for entry in stragglers:
            self._account_dequeue(entry.shard)
            entry.future.set_result(
                PredictionResult(
                    request_id=entry.request.request_id,
                    status=ResultStatus.ERROR,
                    error_code="service-stopped",
                    error_message="service stopped before the request was answered",
                    shard=entry.shard,
                    model_version=self.handle.version,
                )
            )
        if self._bank is not None:
            self._bank.close()
            self._bank.unlink()
            self._bank = None
        if self.admin is not None:
            self.admin.stop()
            self.admin = None
        self.detach_shadow()
        self.detach_drift()
        _log.info(
            "sharded prediction service stopped",
            extra={
                "requests": self.metrics.counter_value("serve.requests"),
                "batches": self.metrics.counter_value("serve.batches"),
            },
        )

    def __enter__(self) -> "ShardedPredictionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- model lifecycle -------------------------------------------------------

    def _publish_model_metrics(self) -> None:
        self.metrics.set_gauge("serve.model_version", float(self.handle.generation))
        if self.handle.version:
            self.metrics.set_gauge(
                f"serve.model_version[version={self.handle.version}]",
                float(self.handle.generation),
            )

    def swap(self, target, *, version: str | None = None, warm: bool = True) -> str:
        """Hot-swap every shard onto a new model, dropping no requests.

        The orchestration is a rolling recycle:

        1. resolve + warm the incoming model in the parent and flip the
           :class:`ModelHandle` pointer (new submissions now validate
           against the new model; spawn payloads carry the new version);
        2. export the new bank into a fresh shared-memory segment;
        3. :meth:`recycle` each shard in turn — the old worker drains
           its queue (answering with the *old* version, generation-
           tagged), then a fresh worker attaches the new bank. With
           ``n_shards >= 2`` the other shards keep serving throughout,
           so readiness never flips;
        4. close + unlink the old bank only after the last old worker
           has exited — no worker ever maps a vanished segment.

        Every accepted request resolves exactly once, stamped with the
        version of the model that actually computed it (pinned by the
        sharded swap test).
        """
        if not self._running:
            raise RuntimeError("cannot swap a stopped service")
        with self._swap_lock:
            resolved = self.handle.swap(target, version=version, warm=warm)
            old_bank = self._bank
            self._bank = SharedPatternBank.build(self.model)
            for shard in self._shards:
                self.recycle(shard.shard_id)
            old_bank.close()
            old_bank.unlink()
            self.metrics.inc("serve.swaps")
            self._publish_model_metrics()
        _log.info(
            "sharded model hot-swapped",
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

        The candidate runs in the *parent* process on the shadow
        thread, fed from the collector after futures resolve — the
        worker hot path never sees it.
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

        The monitor runs in the *parent* process: the collector thread
        offers each OK result's feature row (tagged with its shard) as
        it resolves futures, and the monitor keeps per-shard sketches
        that it aggregates by sketch merge at evaluation time — the
        worker hot path never sees any of it.
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

    # -- routing & admission ---------------------------------------------------

    def _new_id(self) -> str:
        self._next_id += 1
        return f"req-{self._next_id}"

    def _route(self) -> _ShardState | None:
        """Next live shard, deterministic round-robin; None if all down."""
        for _ in range(self.n_shards):
            shard = self._shards[self._rr % self.n_shards]
            self._rr += 1
            if shard.state in ("starting", "up"):
                return shard
        return None

    def _admit(self, shard: _ShardState) -> tuple[bool, str | None]:
        """Admission decision for one routed request (under _lock)."""
        inflight = self._inflight[shard.shard_id]
        if inflight >= self.max_queue_per_shard:
            return False, (
                f"shard {shard.shard_id} at max_queue_per_shard="
                f"{self.max_queue_per_shard}"
            )
        if self.admission_budget_ms is not None and self._service_ewma_s is not None:
            est_wait_ms = inflight * self._service_ewma_s * 1000.0
            if est_wait_ms > self.admission_budget_ms:
                return False, (
                    f"estimated wait {est_wait_ms:.1f}ms on shard "
                    f"{shard.shard_id} exceeds budget "
                    f"{self.admission_budget_ms:.1f}ms"
                )
        return True, None

    def _account_dequeue(self, shard_id: int) -> None:
        self.metrics.add_gauge("serve.queue_depth", -1)
        self.metrics.add_gauge(shard_metric("serve.queue_depth", shard_id), -1)
        with self._lock:
            self._inflight[shard_id] = max(0, self._inflight[shard_id] - 1)

    # -- submission ------------------------------------------------------------

    def submit(self, series, *, deadline_ms: float | None = None) -> Future:
        """Enqueue one series; returns a future of a PredictionResult.

        Invalid input resolves immediately with ``INVALID``; an
        over-budget shard resolves immediately with ``OVERLOAD`` —
        neither ever occupies a queue slot.
        """
        if not self._running:
            raise RuntimeError(
                "ShardedPredictionService is not running; use `with service:` "
                "or call start()"
            )
        future: Future = Future()
        self.metrics.inc("serve.requests")
        expected = self.model.series_length if self.validate else None
        if self.validate:
            values, code, message = validate_series(series, expected)
        else:
            values, code, message = np.asarray(series, dtype=float), None, None
        with self._submit_lock:
            if not self._running:
                raise RuntimeError(
                    "ShardedPredictionService is not running; use "
                    "`with service:` or call start()"
                )
            request_id = self._new_id()
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
            with self._lock:
                shard = self._route()
                if shard is not None:
                    admitted, why = self._admit(shard)
                else:
                    admitted, why = False, "no live shard"
                if admitted:
                    self._pending[request_id] = _Pending(
                        request, future, shard.shard_id
                    )
                    self._inflight[shard.shard_id] += 1
            if not admitted:
                self.metrics.inc("serve.overload")
                self.flight.record(
                    FlightRecord(
                        request_id=request_id,
                        status=ResultStatus.OVERLOAD.value,
                        reason="overload",
                        error_code="over-capacity",
                        error_message=why,
                    )
                )
                _log.warning(
                    "request shed by admission control",
                    extra={"request_id": request_id, "why": why},
                )
                future.set_result(
                    PredictionResult(
                        request_id=request_id,
                        status=ResultStatus.OVERLOAD,
                        error_code="over-capacity",
                        error_message=why,
                        model_version=self.handle.version,
                    )
                )
                return future
            self.metrics.add_gauge("serve.queue_depth", 1)
            self.metrics.add_gauge(
                shard_metric("serve.queue_depth", shard.shard_id), 1
            )
            self.metrics.inc(shard_metric("serve.requests", shard.shard_id))
            shard.request_q.put(request)
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

        Rows are submitted individually (never forced through one
        rectangular array), so ragged batches yield per-row typed
        ``INVALID`` results — same contract as the single-process
        service.
        """
        futures = [self.submit(row, deadline_ms=deadline_ms) for row in X]
        return [future.result(timeout=wait_s) for future in futures]

    def predict(self, X) -> np.ndarray:
        """Label array for a clean batch — the RPMClassifier.predict shape."""
        results = self.predict_many(X)
        bad = [r for r in results if not r.ok]
        if bad:
            first = bad[0]
            raise RuntimeError(
                f"{len(bad)}/{len(results)} requests failed; first: "
                f"{first.status.value} ({first.error_code or first.error_message})"
            )
        return np.array([r.label for r in results])

    # -- collector / monitor ---------------------------------------------------

    def _collect(self) -> None:
        """Resolve futures by sweeping every shard's result queue.

        Per-shard queues are drained with non-blocking gets: a sweep
        that finds nothing sleeps briefly, one that finds messages
        drains greedily. A corrupted channel (worker killed mid-write)
        raises out of ``get_nowait`` — the channel is simply skipped;
        its shard's unresolved requests come back via re-dispatch.
        """
        while True:
            got_any = False
            for shard in self._shards:
                result_q = shard.result_q
                if result_q is None:
                    continue
                while True:
                    try:
                        msg = result_q.get_nowait()
                    except queue_mod.Empty:
                        break
                    except Exception:  # pragma: no cover - corrupt channel
                        break
                    got_any = True
                    self._dispatch(msg)
            if not got_any:
                if self._stopping.is_set():
                    return
                self._stopping.wait(0.002)

    def _dispatch(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "res":
            _kind, shard_id, _gen, result, queue_wait_s = msg
            with self._hooks_lock:
                self._resolve(shard_id, result, queue_wait_s)
        elif kind == "batch":
            _kind, shard_id, _gen, size, seconds = msg
            self.metrics.inc("serve.batches")
            self.metrics.inc(shard_metric("serve.batches", shard_id))
            self.metrics.observe("serve.batch_size", size)
            if size > 0 and seconds > 0.0:
                per_req = seconds / size
                with self._lock:
                    if self._service_ewma_s is None:
                        self._service_ewma_s = per_req
                    else:
                        self._service_ewma_s = (
                            0.8 * self._service_ewma_s + 0.2 * per_req
                        )
        elif kind == "ready":
            _kind, shard_id, gen = msg
            with self._lock:
                shard = self._shards[shard_id]
                if gen == shard.generation:
                    shard.ready = True
                    shard.crashes = 0
                    shard.state = "up"
                all_ready = all(s.ready for s in self._shards)
            if all_ready:
                self._ready_event.set()
        elif kind == "stopped":
            _kind, shard_id, gen = msg
            with self._lock:
                shard = self._shards[shard_id]
                if gen == shard.generation and shard.state == "draining":
                    shard.state = "stopped"

    def _resolve(self, shard_id: int, result: PredictionResult, queue_wait_s) -> None:
        with self._lock:
            entry = self._pending.pop(result.request_id, None)
        if entry is None:
            # Duplicate from a re-dispatch race (the original worker
            # answered right before it was declared dead) — the first
            # result won; drop this one.
            return
        self._account_dequeue(entry.shard)
        self.metrics.observe("serve.latency_seconds", result.latency_ms / 1000.0)
        self.metrics.observe(
            shard_metric("serve.latency_seconds", shard_id), result.latency_ms / 1000.0
        )
        if queue_wait_s is not None:
            self.metrics.observe("serve.queue_wait_seconds", queue_wait_s)
        if result.status is ResultStatus.TIMEOUT:
            self.metrics.inc("serve.deadline_misses")
        elif result.status is ResultStatus.ERROR:
            self.metrics.inc("serve.errors")
        elif result.deadline_missed:
            self.metrics.inc("serve.deadline_misses")
        entry.future.set_result(result)
        self._record_flight(entry.request, result, queue_wait_s)
        # Shadow mirroring happens here on the collector thread, after
        # the future resolved — off the request latency path.
        shadow = self.shadow
        if shadow is not None and result.status is ResultStatus.OK:
            shadow.offer(
                result.request_id,
                entry.request.series,
                result.label,
                result.latency_ms,
            )
        # Drift ingestion also happens here on the collector thread:
        # per-shard feature rows are offered with their shard tag, and
        # the monitor aggregates the per-shard sketches by merge.
        drift = self.drift
        if drift is not None and result.status is ResultStatus.OK:
            if result.features is not None:
                drift.observe(
                    result.request_id,
                    entry.request.series,
                    result.features,
                    batch_id=result.batch_id,
                    shard=result.shard,
                )

    def _record_flight(self, request, result, queue_wait_s) -> None:
        if not self.flight.enabled:
            return
        if result.status is ResultStatus.OK and not result.deadline_missed:
            if not self.slow_ms or result.latency_ms < self.slow_ms:
                return
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
                shard=result.shard,
                queue_wait_ms=0.0 if queue_wait_s is None else queue_wait_s * 1000.0,
                latency_ms=result.latency_ms,
                deadline_slack_ms=slack_ms,
                error_code=result.error_code,
                error_message=result.error_message,
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
            },
        )

    def _monitor_loop(self) -> None:
        """Detect dead workers and respawn them with zero request loss."""
        while not self._stopping.is_set():
            if self._running:
                for shard in self._shards:
                    if (
                        shard.state in ("starting", "up")
                        and shard.process is not None
                        and not shard.process.is_alive()
                    ):
                        self._revive(shard, reason="death")
            self._stopping.wait(0.1)

    def _revive(self, shard: _ShardState, *, reason: str) -> None:
        """Respawn one shard and re-dispatch its unresolved requests.

        A shard whose worker keeps dying before ever reaching ready is
        crash-looping — something systemic (unimportable environment,
        corrupt bank), not a transient kill — so after
        :data:`_MAX_CRASH_RESPAWNS` consecutive such deaths the shard is
        marked dead and its requests fail over to the surviving shards
        instead of feeding the loop.
        """
        if reason == "death":
            self.metrics.inc("serve.worker_deaths")
            shard.crashes = 0 if shard.ready else shard.crashes + 1
            _log.error(
                "shard worker died",
                extra={"shard": shard.shard_id, "generation": shard.generation},
            )
        old_request_q = shard.request_q
        old_result_q = shard.result_q
        give_up = shard.crashes >= _MAX_CRASH_RESPAWNS
        if give_up:
            with self._lock:
                shard.state = "dead"
                shard.process = None
                shard.request_q = None
                shard.result_q = None
            _log.error(
                "shard crash-looped before ready; marking dead",
                extra={"shard": shard.shard_id, "crashes": shard.crashes},
            )
        else:
            self._spawn(shard)
        for old_q in (old_request_q, old_result_q):
            if old_q is not None:
                old_q.close()
                old_q.cancel_join_thread()
        with self._lock:
            orphans = sorted(
                (
                    entry
                    for entry in self._pending.values()
                    if entry.shard == shard.shard_id
                ),
                key=lambda entry: entry.request.enqueued_at,
            )
        for entry in orphans:
            self.metrics.inc("serve.redispatched")
            if not give_up:
                shard.request_q.put(entry.request)
                continue
            # Fail over to any surviving shard; with none left, answer
            # with a typed error rather than letting the future dangle.
            with self._lock:
                target = self._route()
                if target is not None:
                    entry.shard = target.shard_id
                    self._inflight[shard.shard_id] = max(
                        0, self._inflight[shard.shard_id] - 1
                    )
                    self._inflight[target.shard_id] += 1
            if target is not None:
                target.request_q.put(entry.request)
            else:
                with self._lock:
                    self._pending.pop(entry.request.request_id, None)
                self._account_dequeue(entry.shard)
                entry.future.set_result(
                    PredictionResult(
                        request_id=entry.request.request_id,
                        status=ResultStatus.ERROR,
                        error_code="no-live-shard",
                        error_message="every shard worker crash-looped",
                        shard=shard.shard_id,
                        model_version=self.handle.version,
                    )
                )

    # -- maintenance -----------------------------------------------------------

    def recycle(self, shard_id: int, *, timeout_s: float = 30.0) -> None:
        """Gracefully recycle one worker: drain, respawn, re-attach.

        The old worker gets a stop sentinel and drains its queue (every
        already-accepted request is answered normally); routing skips
        the shard while it drains; then a fresh worker is spawned on a
        fresh queue and any requests the old worker still left
        unresolved are re-dispatched. A worker that fails to drain
        within ``timeout_s`` is terminated — its unresolved requests
        are re-dispatched all the same, so no accepted request is lost
        either way.
        """
        if not self._running:
            raise RuntimeError("cannot recycle a stopped service")
        shard = self._shards[shard_id]
        with self._lock:
            if shard.state not in ("starting", "up"):
                return
            shard.state = "draining"
        self.metrics.inc("serve.worker_recycles")
        _log.info(
            "recycling shard worker",
            extra={"shard": shard_id, "generation": shard.generation},
        )
        process = shard.process
        if process is not None and process.is_alive():
            shard.request_q.put(None)
            process.join(timeout=timeout_s)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=5.0)
        self._revive(shard, reason="recycle")

    # -- introspection ---------------------------------------------------------

    def shard_states(self) -> list[dict]:
        """Live per-shard status (served on the admin ``/shards`` route)."""
        with self._lock:
            return [
                {
                    "shard": shard.shard_id,
                    "generation": shard.generation,
                    "pid": None if shard.process is None else shard.process.pid,
                    "alive": shard.process is not None and shard.process.is_alive(),
                    "state": shard.state,
                    "inflight": self._inflight[shard.shard_id],
                }
                for shard in self._shards
            ]
