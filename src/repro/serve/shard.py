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
  round-robin routing over per-worker request and result queues. It is
  a :class:`~repro.serve.service.ServingFrontEnd` like the in-process
  ``PredictionService`` — the same client API, typed results, flight
  capture and shadow/drift hooks — and each worker runs the same
  batching loop and batch runner; only the transport differs.
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

Workers are started with the ``spawn`` context: the dispatcher runs
collector/monitor threads, and forking a threaded process is how
deadlocks are born. Every floating-point input a worker
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
from .compiled import CompiledModel
from .config import ServeConfig
from .lifecycle import ModelHandle
from .service import ServingFrontEnd, answer_batch, collect_batches
from .types import PredictionRequest, PredictionResult, ResultStatus, validate_series

__all__ = ["SharedPatternBank", "ShardedPredictionService"]

_log = logging.getLogger("repro.serve.shard")

#: Start method for shard workers. ``spawn``, never ``fork``: the
#: dispatcher runs collector and monitor threads, and forking a threaded
#: process can copy a lock held by another thread into the child.
_MP_CONTEXT = "spawn"

#: How long :meth:`ShardedPredictionService.start` waits for every
#: worker to attach the bank and warm up.
_START_TIMEOUT_S = 120.0


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

    Runs the in-process tier's batching loop and batch runner over
    ``request_q`` with the shm-backed compiled model, and sends every
    typed :class:`PredictionResult` (carrying this shard's ID) back on
    ``result_q``, then one ``"batch"`` message with the batch size and
    model seconds. A ``None`` sentinel means drain-and-stop.

    ``model_version`` rides in from the spawn payload: a recycled
    (post-swap) worker serves the new version, while a worker still
    draining the old generation stamps the old one — results are always
    attributed to the exact artifact that computed them.
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
        )
        if knobs["warmup"]:
            model.warmup(n=min(4, knobs["max_batch"]))
        result_q.put(("ready", shard_id, generation))
        batches = collect_batches(
            request_q, knobs["max_batch"], knobs["max_delay_ms"] / 1000.0
        )
        for batch_id, batch in enumerate(batches, start=1):
            now = time.monotonic()
            results, model_s = answer_batch(
                model,
                batch,
                now,
                batch_id=batch_id,
                version=payload["model_version"],
                shard=shard_id,
            )
            for request, result in zip(batch, results):
                result_q.put(
                    ("res", shard_id, generation, result, now - request.enqueued_at)
                )
            result_q.put(("batch", shard_id, generation, len(batch), model_s))
        result_q.put(("stopped", shard_id, generation))
    finally:
        bank.close()


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


class ShardedPredictionService(ServingFrontEnd):
    """Multi-process sharded tier of the one serving front-end.

    Takes the :class:`~repro.serve.service.ServingFrontEnd` parameters
    and reads the whole config, including ``n_shards`` (``0`` = this
    tier's default of 2), ``admission_budget_ms`` and
    ``max_queue_per_shard``.

    The model's pattern bank is exported once into shared memory
    (:class:`SharedPatternBank`); the classifier travels to workers by
    pickle. Predictions are bitwise identical to the single-process
    service — routing, batching and process boundaries never change a
    bit. The shadow scorer and the drift monitor run in this process,
    fed by the collector thread after futures resolve; the worker hot
    path never sees them.
    """

    def __init__(
        self,
        model: CompiledModel | ModelHandle,
        *,
        config: ServeConfig | None = None,
    ) -> None:
        super().__init__(model, config=config)
        self.n_shards = self.config.n_shards or 2
        self.admission_budget_ms = self.config.admission_budget_ms
        self.max_queue_per_shard = self.config.max_queue_per_shard
        self._swap_lock = threading.Lock()
        self._ctx = mp.get_context(_MP_CONTEXT)
        self._shards = [_ShardState(i) for i in range(self.n_shards)]
        self._pending: dict[str, _Pending] = {}
        self._lock = threading.Lock()  # pending table + shard states + routing
        self._stopping = threading.Event()
        self._collector: threading.Thread | None = None
        self._monitor: threading.Thread | None = None
        self._bank: SharedPatternBank | None = None
        self._rr = 0
        # EWMA of per-request model service time, seconds; feeds the
        # admission estimate. None until the first batch reports.
        self._service_ewma_s: float | None = None
        self._inflight = [0] * self.n_shards

    # -- lifecycle -------------------------------------------------------------

    def _payload(self) -> dict:
        return {
            "classifier": self.model.classifier,
            "classes": self.model.classes,
            "series_length": self.model.series_length,
            "rotation_invariant": self.model.rotation_invariant,
            "model_version": self.handle.version,
        }

    def _knobs(self) -> dict:
        return {
            "max_batch": self.max_batch,
            "max_delay_ms": self.config.max_delay_ms,
            "warmup": self.config.warmup,
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
        self._ready.clear()
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
        if not self._ready.wait(_START_TIMEOUT_S):
            self.stop()
            raise RuntimeError(
                f"sharded service failed to become ready within "
                f"{_START_TIMEOUT_S:.0f}s"
            )
        self._announce_start(n_shards=self.n_shards)
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
            entry.future.set_result(self._stopped(entry.request, shard=entry.shard))
        if self._bank is not None:
            self._bank.close()
            self._bank.unlink()
            self._bank = None
        self._stop_observers()

    # -- model lifecycle -------------------------------------------------------

    def _install(self, target, *, version, warm) -> str:
        """Move every shard onto a new model by a rolling recycle.

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
        return resolved

    # -- routing & admission ---------------------------------------------------

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
        self._require_running()
        request_id = self._new_id()
        self.metrics.inc("serve.requests")
        values, code, message = validate_series(series, self.model.series_length)
        if code is not None:
            return self._refuse(request_id, ResultStatus.INVALID, code, message)
        request = self._request(values, request_id, deadline_ms)
        future: Future = Future()
        with self._submit_lock:
            self._require_running()
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
                return self._refuse(
                    request_id, ResultStatus.OVERLOAD, "over-capacity", why
                )
            self.metrics.add_gauge("serve.queue_depth", 1)
            self.metrics.add_gauge(
                shard_metric("serve.queue_depth", shard.shard_id), 1
            )
            self.metrics.inc(shard_metric("serve.requests", shard.shard_id))
            shard.request_q.put(request)
        return future

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
            self._on_result(shard_id, result, queue_wait_s)
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
                self._ready.set()
        elif kind == "stopped":
            _kind, shard_id, gen = msg
            with self._lock:
                shard = self._shards[shard_id]
                if gen == shard.generation and shard.state == "draining":
                    shard.state = "stopped"

    def _on_result(self, shard_id: int, result: PredictionResult, queue_wait_s) -> None:
        """Deliver one worker result through the front-end's one path."""
        with self._lock:
            entry = self._pending.pop(result.request_id, None)
        if entry is None:
            # Duplicate from a re-dispatch race (the original worker
            # answered right before it was declared dead) — the first
            # result won; drop this one.
            return
        self._account_dequeue(entry.shard)
        self.metrics.observe(
            shard_metric("serve.latency_seconds", shard_id), result.latency_ms / 1000.0
        )
        self.metrics.observe("serve.queue_wait_seconds", queue_wait_s)
        outcomes = [(entry.request, entry.future, result, queue_wait_s)]
        with self._hooks_lock:
            self._resolve(outcomes)
            self._offer(outcomes)

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
