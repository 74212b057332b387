"""Model lifecycle: versioned registry, hot-swap handle, shadow scoring.

RPM's trained model is a *tiny* set of representative patterns, which
makes multi-version serving cheap: several pattern banks fit in memory
at once, so a production tier can warm, compare and swap models without
downtime. This module is that lifecycle:

* :class:`ModelRegistry` — versioned artifacts under one root
  directory, each with lineage metadata (training-data fingerprint,
  params, bench scores, parent version) and integrity checks (sha256 +
  the :mod:`repro.core.io` ``format_version`` validation) on publish
  and on read. ``promote`` / ``rollback`` move the ``CURRENT`` pointer;
  the promotion history is append-only.
* :class:`ModelHandle` — the indirection every serving tier routes
  through. The hot path reads one pointer
  (:attr:`ModelHandle.model`); :meth:`ModelHandle.swap` warms the
  incoming :class:`~repro.serve.compiled.CompiledModel`, flips that
  pointer atomically, and closes the outgoing bank only once the last
  in-flight batch holding a lease on it has finished — no request is
  ever dropped or served by a half-closed model.
* :class:`ShadowScorer` — mirrors a configurable fraction of OK
  traffic onto a candidate model **off the latency path** (a bounded
  backlog drained by its own thread; saturation drops shadow work, not
  live requests), reporting disagreement rate and latency delta
  through ``serve.shadow.*`` metrics and the flight recorder.
* :class:`PromotionGate` — the accuracy-delta gate: a candidate (for
  example a model re-mined with other SAX parameters) is only
  promotable when its shadow disagreement rate and latency regression
  stay under the gate's thresholds. Symbolic-pattern models trade
  representation fidelity for speed (MrSQM), so a re-mined artifact
  must *prove* its disagreement rate first.

See ``docs/lifecycle.md`` for the registry layout, swap semantics and
the shadow metric catalogue.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import shutil
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..core.io import ModelFormatError, load_model
from ..obs.metrics import MetricsRegistry
from .compiled import CompiledModel
from .flight import BacklogThread, FlightRecord, FlightRecorder

__all__ = [
    "GateDecision",
    "ModelHandle",
    "ModelRegistry",
    "ModelVersion",
    "PromotionGate",
    "RegistryError",
    "RegistryIntegrityError",
    "ShadowReport",
    "ShadowScorer",
]

_log = logging.getLogger("repro.serve.lifecycle")

_VERSION_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Registry aliases resolved by :meth:`ModelRegistry.get`.
CURRENT = "current"
LATEST = "latest"


class RegistryError(ValueError):
    """A registry operation that cannot be honored (unknown version,
    duplicate publish, retired target, gated promotion, …)."""


class RegistryIntegrityError(RegistryError):
    """A registry artifact whose bytes no longer match its recorded
    sha256 — the artifact was modified or corrupted after publish."""


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelVersion:
    """One published artifact plus its lineage metadata."""

    version: str
    path: Path
    #: sha256 of the artifact bytes at publish time (integrity anchor).
    sha256: str
    size_bytes: int
    #: Fingerprint of the training data baked into the artifact
    #: (sha256 over the train feature matrix + labels).
    fingerprint: str
    #: Version this one was derived from (a re-mine, for one).
    parent: str | None = None
    created_at: float = 0.0
    status: str = "active"  # active | retired
    #: Training parameters worth recording (free-form, JSON-safe).
    params: dict = field(default_factory=dict)
    #: Bench scores recorded at publish (e.g. test error).
    scores: dict = field(default_factory=dict)
    notes: str = ""
    series_length: int | None = None
    n_patterns: int | None = None
    #: sha256 of ``reference.json`` when the version was published with
    #: ``reference=True`` (``None`` otherwise) — same integrity anchor
    #: as the artifact hash, checked by :meth:`ModelRegistry.verify`.
    reference_sha256: str | None = None

    def as_record(self) -> dict:
        record = asdict(self)
        record["path"] = str(self.path)
        return record


class ModelRegistry:
    """Versioned model artifacts under one root directory.

    Layout (everything human-inspectable, nothing pickled)::

        root/
          versions/<version>/model.npz    # the save_model artifact, verbatim
          versions/<version>/meta.json    # lineage + integrity metadata
          CURRENT                          # promoted version name
          HISTORY                          # append-only promotion log

    ``publish`` validates the artifact up front (it must load through
    :func:`repro.core.io.load_model`, which enforces ``format_version``)
    and records its sha256; ``get``/``open`` re-verify the hash so a
    corrupted artifact fails loudly instead of serving garbage.
    Publishes are atomic: the artifact is copied to a temp name and
    renamed into place, and ``meta.json`` is written last.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._versions_dir = self.root / "versions"
        self._versions_dir.mkdir(parents=True, exist_ok=True)

    # -- helpers ---------------------------------------------------------------

    def _dir(self, version: str) -> Path:
        return self._versions_dir / version

    def _meta_path(self, version: str) -> Path:
        return self._dir(version) / "meta.json"

    def reference_path(self, version: str) -> Path:
        """Where a version's ``reference.json`` lives (may not exist)."""
        return self._dir(self.get(version).version) / "reference.json"

    @staticmethod
    def _sha256(path: Path) -> str:
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        return digest.hexdigest()

    @staticmethod
    def _fingerprint(path: Path) -> str:
        """Training-data fingerprint: hash of the train matrix + labels."""
        digest = hashlib.sha256()
        with np.load(path, allow_pickle=False) as archive:
            digest.update(np.ascontiguousarray(archive["train_features"]).tobytes())
            digest.update(np.ascontiguousarray(archive["train_labels"]).tobytes())
        return digest.hexdigest()

    def _read_meta(self, version: str) -> ModelVersion:
        meta_path = self._meta_path(version)
        if not meta_path.exists():
            raise RegistryError(
                f"unknown model version {version!r} in registry {self.root}"
            )
        record = json.loads(meta_path.read_text())
        record["path"] = self._dir(version) / "model.npz"
        return ModelVersion(**record)

    def _write_meta(self, mv: ModelVersion) -> None:
        record = mv.as_record()
        del record["path"]  # derivable; keeps the registry relocatable
        tmp = self._meta_path(mv.version).with_suffix(".json.tmp")
        tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self._meta_path(mv.version))

    # -- publish / list / get / retire -----------------------------------------

    def publish(
        self,
        artifact: str | Path,
        *,
        version: str | None = None,
        parent: str | None = None,
        params: dict | None = None,
        scores: dict | None = None,
        notes: str = "",
        reference: bool = False,
    ) -> ModelVersion:
        """Copy one ``save_model`` artifact into the registry.

        The artifact is fully validated first — it must load through
        :func:`~repro.core.io.load_model` (typed
        :class:`~repro.core.io.ModelFormatError` on a foreign or stale
        archive) — so nothing unreadable is ever published. ``version``
        defaults to ``v<N+1>``; ``parent`` records lineage and must
        already be published. With ``reference=True`` the training-time
        :class:`~repro.obs.sketch.ReferenceDistribution` is computed
        from the archived train features and stored next to the
        artifact as ``reference.json``, hash-anchored in the version
        metadata (see :meth:`reference`).
        """
        artifact = Path(artifact)
        clf = load_model(artifact)  # raises ModelFormatError with the path
        if version is None:
            version = f"v{len(self.list_versions()) + 1}"
        if not _VERSION_RE.match(version):
            raise RegistryError(
                f"invalid version name {version!r} (letters, digits, '._-' only)"
            )
        if version in (CURRENT, LATEST):
            raise RegistryError(f"{version!r} is a reserved registry alias")
        if self._meta_path(version).exists():
            raise RegistryError(
                f"version {version!r} already published in {self.root}"
            )
        if parent is not None:
            self._read_meta(parent)  # must exist
        target_dir = self._dir(version)
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / "model.npz"
        with tempfile.NamedTemporaryFile(
            dir=target_dir, suffix=".npz.tmp", delete=False
        ) as tmp:
            tmp_path = Path(tmp.name)
        shutil.copyfile(artifact, tmp_path)
        os.replace(tmp_path, target)
        reference_sha256 = None
        if reference:
            # Local import: monitor depends only on obs + flight, so
            # lifecycle -> monitor is acyclic, but keeping it out of the
            # module header makes the one-way direction explicit.
            from .monitor import build_reference

            ref = build_reference(target, source=f"{version}/model.npz")
            ref_tmp = target_dir / "reference.json.tmp"
            ref.save(ref_tmp)
            os.replace(ref_tmp, target_dir / "reference.json")
            reference_sha256 = self._sha256(target_dir / "reference.json")
        mv = ModelVersion(
            version=version,
            path=target,
            sha256=self._sha256(target),
            size_bytes=target.stat().st_size,
            fingerprint=self._fingerprint(target),
            parent=parent,
            created_at=time.time(),
            params=dict(params or {}),
            scores=dict(scores or {}),
            notes=notes,
            series_length=getattr(clf, "n_timesteps_", None),
            n_patterns=len(clf.patterns_),
            reference_sha256=reference_sha256,
        )
        self._write_meta(mv)
        _log.info(
            "model version published",
            extra={"version": version, "sha256": mv.sha256[:12], "parent": parent},
        )
        return mv

    def list_versions(self) -> list[ModelVersion]:
        """Every published version, oldest first."""
        versions = [
            self._read_meta(entry.name)
            for entry in sorted(self._versions_dir.iterdir())
            if (entry / "meta.json").exists()
        ]
        return sorted(versions, key=lambda mv: (mv.created_at, mv.version))

    def get(self, version: str) -> ModelVersion:
        """Resolve one version (or the ``current``/``latest`` alias)."""
        if version == CURRENT:
            return self._read_meta(self._require_current())
        if version == LATEST:
            versions = self.list_versions()
            if not versions:
                raise RegistryError(f"registry {self.root} is empty")
            return versions[-1]
        return self._read_meta(version)

    def verify(self, version: str) -> ModelVersion:
        """Integrity check: the artifact's bytes still match publish.

        Versions published with ``reference=True`` additionally verify
        their ``reference.json`` against the recorded hash — a tampered
        or deleted reference fails as loudly as a tampered model.
        """
        mv = self.get(version)
        actual = self._sha256(mv.path)
        if actual != mv.sha256:
            raise RegistryIntegrityError(
                f"artifact for version {mv.version!r} fails its integrity "
                f"check (sha256 {actual[:12]}… != published {mv.sha256[:12]}…)"
            )
        if mv.reference_sha256 is not None:
            ref_path = mv.path.parent / "reference.json"
            if not ref_path.exists():
                raise RegistryIntegrityError(
                    f"version {mv.version!r} was published with a reference "
                    f"distribution but {ref_path} is missing"
                )
            actual_ref = self._sha256(ref_path)
            if actual_ref != mv.reference_sha256:
                raise RegistryIntegrityError(
                    f"reference.json for version {mv.version!r} fails its "
                    f"integrity check (sha256 {actual_ref[:12]}… != published "
                    f"{mv.reference_sha256[:12]}…)"
                )
        return mv

    def reference(self, version: str = CURRENT):
        """The integrity-verified
        :class:`~repro.obs.sketch.ReferenceDistribution` of a version,
        or ``None`` when the version was published without one."""
        from ..obs.sketch import ReferenceDistribution

        mv = self.verify(version)
        if mv.reference_sha256 is None:
            return None
        return ReferenceDistribution.load(mv.path.parent / "reference.json")

    def retire(self, version: str) -> ModelVersion:
        """Mark a version retired (refused while it is CURRENT)."""
        mv = self.get(version)
        if self.current() == mv.version:
            raise RegistryError(
                f"cannot retire {mv.version!r}: it is the promoted CURRENT "
                f"version (promote or roll back first)"
            )
        mv = ModelVersion(**{**mv.as_record(), "path": mv.path, "status": "retired"})
        self._write_meta(mv)
        return mv

    # -- promotion -------------------------------------------------------------

    def current(self) -> str | None:
        """The promoted version name, or ``None`` before any promote."""
        pointer = self.root / "CURRENT"
        if not pointer.exists():
            return None
        name = pointer.read_text().strip()
        return name or None

    def _require_current(self) -> str:
        name = self.current()
        if name is None:
            raise RegistryError(
                f"registry {self.root} has no promoted version yet"
            )
        return name

    def promote(
        self,
        version: str,
        *,
        gate: "PromotionGate | None" = None,
        report: "ShadowReport | None" = None,
    ) -> ModelVersion:
        """Point ``CURRENT`` at ``version`` (integrity-checked).

        With a ``gate``, a :class:`ShadowReport` is mandatory and the
        promotion is refused (typed :class:`RegistryError`) when the
        candidate's disagreement rate or latency regression exceeds the
        gate — the MrSQM lesson: re-mined symbolic models
        must prove their fidelity before taking traffic.
        """
        mv = self.verify(version)
        if mv.status == "retired":
            raise RegistryError(f"cannot promote retired version {mv.version!r}")
        if gate is not None:
            if report is None:
                raise RegistryError(
                    f"promotion of {mv.version!r} is gated: a shadow report "
                    f"is required (run shadow scoring first)"
                )
            decision = gate.evaluate(report)
            if not decision.allowed:
                raise RegistryError(
                    f"promotion of {mv.version!r} blocked by gate: "
                    + "; ".join(decision.reasons)
                )
        previous = self.current()
        tmp = self.root / "CURRENT.tmp"
        tmp.write_text(mv.version + "\n")
        os.replace(tmp, self.root / "CURRENT")
        with open(self.root / "HISTORY", "a") as history:
            history.write(
                json.dumps(
                    {
                        "at": time.time(),
                        "promoted": mv.version,
                        "previous": previous,
                    }
                )
                + "\n"
            )
        _log.info(
            "model version promoted",
            extra={"version": mv.version, "previous": previous},
        )
        return mv

    def rollback(self) -> ModelVersion:
        """Move ``CURRENT`` back to the previously promoted version."""
        history_path = self.root / "HISTORY"
        if not history_path.exists():
            raise RegistryError(f"registry {self.root} has no promotion history")
        entries = [
            json.loads(line)
            for line in history_path.read_text().splitlines()
            if line.strip()
        ]
        if not entries or entries[-1]["previous"] is None:
            raise RegistryError("no earlier promotion to roll back to")
        return self.promote(entries[-1]["previous"])

    # -- loading ---------------------------------------------------------------

    def open(self, version: str = CURRENT, **runtime) -> CompiledModel:
        """Integrity-verified :class:`CompiledModel` of one version."""
        mv = self.verify(version)
        return CompiledModel.load(mv.path, **runtime)


# ---------------------------------------------------------------------------
# Model handle: the hot-swap indirection
# ---------------------------------------------------------------------------


class _ModelLease:
    """Refcounted ownership of one compiled model generation.

    The handle holds one reference; every in-flight batch holds one
    more for its duration. ``retire()`` drops the handle's reference —
    the model's executor is closed exactly when the last batch lease is
    released, so a swap never closes a bank under an in-flight batch.
    """

    __slots__ = ("model", "version", "generation", "_refs", "_retired", "_lock")

    def __init__(self, model: CompiledModel, version: str | None, generation: int):
        self.model = model
        self.version = version
        self.generation = generation
        self._refs = 1  # the handle's own reference
        self._retired = False
        self._lock = threading.Lock()

    def acquire(self) -> "_ModelLease":
        with self._lock:
            self._refs += 1
        return self

    def release(self) -> None:
        with self._lock:
            self._refs -= 1
            close = self._retired and self._refs == 0
        if close:
            self.model.close()

    def retire(self) -> None:
        with self._lock:
            if self._retired:
                return
            self._retired = True
            self._refs -= 1
            close = self._refs == 0
        if close:
            self.model.close()


class ModelHandle:
    """The one pointer every serving tier routes model access through.

    The hot path costs a single attribute read (:attr:`model`);
    :meth:`swap` warms the incoming model off the serving thread, flips
    the pointer atomically between micro-batches, and retires the old
    generation — its bank closes when the last in-flight batch lease
    releases. A handle opened against a :class:`ModelRegistry` can swap
    by bare version name.

    :meth:`open` is also the **unified loading entry point**: it
    accepts an artifact path, a registry version name (with
    ``registry=``), or an already-compiled model, replacing the three
    historical spellings (``core.io.load_model`` + ``CompiledModel(…)``,
    ``CompiledModel.load``, ``CompiledModel.from_shared_bank`` — see
    ``docs/api.md`` § Deprecated loading paths).
    """

    def __init__(
        self,
        model: CompiledModel,
        *,
        version: str | None = None,
        registry: ModelRegistry | None = None,
        runtime: dict | None = None,
    ) -> None:
        self.registry = registry
        #: Runtime kwargs (n_jobs) reused when a swap target is
        #: resolved by path/version.
        self.runtime = dict(runtime or {})
        self._swap_lock = threading.Lock()
        self._lease = _ModelLease(model, version, generation=1)

    # -- construction ----------------------------------------------------------

    @classmethod
    def open(
        cls,
        target,
        *,
        registry: ModelRegistry | str | Path | None = None,
        version: str | None = None,
        **runtime,
    ) -> "ModelHandle":
        """Open a model from a path, a registry version, or an instance.

        * ``ModelHandle.open("model.npz")`` — artifact path;
        * ``ModelHandle.open("v3", registry=reg)`` — registry version
          (also the ``current``/``latest`` aliases), integrity-checked;
        * ``ModelHandle.open(compiled_model)`` — adopt as-is.

        ``runtime`` kwargs (``n_jobs``) reach the compiled model and
        are reused by later :meth:`swap` resolutions.
        """
        if isinstance(registry, (str, Path)):
            registry = ModelRegistry(registry)
        handle = cls.__new__(cls)
        handle.registry = registry
        handle.runtime = dict(runtime)
        handle._swap_lock = threading.Lock()
        model, resolved = handle._resolve(target, version_hint=version)
        handle._lease = _ModelLease(model, resolved, generation=1)
        return handle

    def _resolve(
        self, target, *, version_hint: str | None = None
    ) -> tuple[CompiledModel, str | None]:
        """Compile ``target`` (path / version / model) with the handle's
        runtime kwargs; returns ``(model, version-or-None)``."""
        if isinstance(target, CompiledModel):
            return target, version_hint
        if isinstance(target, Path) or (
            isinstance(target, str) and (os.sep in target or target.endswith(".npz"))
        ):
            path = Path(target)
            return CompiledModel.load(path, **self.runtime), version_hint or path.stem
        if isinstance(target, str):
            if self.registry is None:
                raise RegistryError(
                    f"cannot resolve model version {target!r} without a "
                    f"registry (pass registry= or an artifact path)"
                )
            mv = self.registry.verify(target)
            return (
                CompiledModel.load(mv.path, **self.runtime),
                version_hint or mv.version,
            )
        raise TypeError(
            f"cannot open a model from {type(target).__name__}; expected a "
            f"CompiledModel, an artifact path, or a registry version name"
        )

    # -- hot path --------------------------------------------------------------

    @property
    def model(self) -> CompiledModel:
        """The live compiled model (one pointer read — the hot path)."""
        return self._lease.model

    @property
    def version(self) -> str | None:
        return self._lease.version

    @property
    def generation(self) -> int:
        return self._lease.generation

    def acquire(self) -> _ModelLease:
        """Lease the current generation for one batch.

        The tiny race (another thread swapping between the pointer read
        and the refcount bump) is benign: retire only *marks* the old
        lease, and the acquire that slipped in keeps the model open
        until its release — requests in that window are simply served
        by the outgoing generation, which swap semantics allow.
        """
        return self._lease.acquire()

    # -- swap ------------------------------------------------------------------

    def swap(self, target, *, warm: bool = True, version: str | None = None) -> str:
        """Warm the incoming model, flip the pointer, retire the old.

        Returns the installed version name. Concurrent swaps serialize;
        readers never block — they see the old pointer until the single
        assignment below, and in-flight leases keep the old bank alive
        until their batches complete.
        """
        with self._swap_lock:
            model, resolved = self._resolve(target, version_hint=version)
            if model is self._lease.model:
                return self._lease.version or ""
            if warm:
                model.warmup()
            old = self._lease
            self._lease = _ModelLease(model, resolved, old.generation + 1)
            old.retire()
        _log.info(
            "model handle swapped",
            extra={"version": resolved, "generation": self._lease.generation},
        )
        return resolved or ""

    def close(self) -> None:
        """Retire the current generation (idempotent)."""
        self._lease.retire()

    def __enter__(self) -> "ModelHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def describe(self) -> dict:
        """JSON-safe handle state (served on the admin ``/model`` route)."""
        return {
            "version": self.version,
            "generation": self.generation,
            "model": self.model.describe(),
            "registry": None if self.registry is None else str(self.registry.root),
        }


# ---------------------------------------------------------------------------
# Shadow scoring + promotion gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShadowReport:
    """Aggregate outcome of one shadow-scoring run."""

    candidate_version: str | None
    n_scored: int
    n_disagreements: int
    disagreement_rate: float
    #: Mean per-request latency of the primary path while shadowing.
    primary_mean_latency_ms: float
    #: Mean per-request latency of the candidate (its own thread).
    candidate_mean_latency_ms: float
    #: Fractional latency regression (candidate / primary − 1; 0 when
    #: the primary mean is unknown).
    latency_regression: float
    #: Shadow submissions dropped because the backlog was full — the
    #: price of staying off the latency path.
    n_dropped: int = 0

    def as_record(self) -> dict:
        return asdict(self)

    @classmethod
    def from_record(cls, record: dict) -> "ShadowReport":
        return cls(**{f: record[f] for f in cls.__dataclass_fields__})


@dataclass(frozen=True)
class GateDecision:
    allowed: bool
    reasons: list


@dataclass(frozen=True)
class PromotionGate:
    """Accuracy/latency thresholds a candidate must clear to promote."""

    #: Largest tolerated shadow disagreement rate (fraction of scored
    #: requests whose candidate label differed from the primary's).
    max_disagreement: float = 0.01
    #: Largest tolerated fractional latency regression (0.25 = the
    #: candidate may be at most 25% slower per request).
    max_latency_regression: float = 0.25
    #: Minimum scored requests for the report to mean anything.
    min_requests: int = 1

    def evaluate(self, report: ShadowReport) -> GateDecision:
        reasons = []
        if report.n_scored < self.min_requests:
            reasons.append(
                f"only {report.n_scored} shadow-scored requests "
                f"(gate requires >= {self.min_requests})"
            )
        if report.disagreement_rate > self.max_disagreement:
            reasons.append(
                f"disagreement rate {report.disagreement_rate:.4f} exceeds "
                f"max_disagreement {self.max_disagreement:.4f}"
            )
        if report.latency_regression > self.max_latency_regression:
            reasons.append(
                f"latency regression {report.latency_regression:.2f} exceeds "
                f"max_latency_regression {self.max_latency_regression:.2f}"
            )
        return GateDecision(allowed=not reasons, reasons=reasons)


class ShadowScorer(BacklogThread):
    """Score a traffic fraction on a candidate model, off the hot path.

    The serving tier calls :meth:`offer` *after* a request's future has
    resolved — an O(1) deterministic sample + bounded-deque append, so
    shadowing never sits on the request latency path. The backlog
    thread drains it in small batches through the candidate model and
    compares labels against what the primary served.

    Metrics (``serve.shadow.*``): ``requests`` (scored), ``disagreements``,
    ``dropped`` (backlog full), and the ``latency_seconds`` histogram of
    candidate per-request time. Disagreements additionally land in the
    tier's flight recorder with reason ``"shadow-disagree"``.
    """

    thread_name = "rpm-shadow-scorer"
    dropped_metric = "serve.shadow.dropped"

    def __init__(
        self,
        candidate: CompiledModel,
        *,
        version: str | None = None,
        fraction: float = 0.1,
        max_backlog: int = 512,
        batch: int = 32,
        metrics: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        super().__init__(max_backlog=max_backlog, batch=batch, metrics=metrics)
        self.candidate = candidate
        self.version = version
        self.fraction = float(fraction)
        #: Deterministic sampling: every k-th OK request is mirrored.
        self._every = max(1, round(1.0 / fraction))
        self.flight = flight
        self._seen = 0
        self._scored = 0
        self._disagreed = 0
        self._primary_latency_sum_ms = 0.0
        self._candidate_latency_sum_ms = 0.0

    # -- ingress (called by the serving tier, post-resolve) --------------------

    def offer(self, request_id: str, series, primary_label, latency_ms: float) -> None:
        """Maybe mirror one already-answered OK request (O(1), lossy)."""
        with self._lock:
            self._seen += 1
            if (self._seen - 1) % self._every:
                return
        self._enqueue((request_id, series, primary_label, latency_ms))

    # -- scoring thread --------------------------------------------------------

    def _consume(self, batch: list) -> None:
        X = np.stack([series for _, series, _, _ in batch])
        t0 = time.monotonic()
        try:
            labels = self.candidate.predict(X)
        except Exception as exc:  # candidate failures must not leak upward
            self.metrics.inc("serve.shadow.errors", len(batch))
            _log.warning(
                "shadow candidate failed",
                extra={"error": f"{type(exc).__name__}: {exc}"},
            )
            return
        per_request_s = (time.monotonic() - t0) / len(batch)
        with self._lock:
            for (request_id, _series, primary_label, latency_ms), label in zip(
                batch, labels
            ):
                self._scored += 1
                self._primary_latency_sum_ms += latency_ms
                self._candidate_latency_sum_ms += per_request_s * 1000.0
                self.metrics.inc("serve.shadow.requests")
                self.metrics.observe("serve.shadow.latency_seconds", per_request_s)
                if label != primary_label:
                    self._disagreed += 1
                    self.metrics.inc("serve.shadow.disagreements")
                    if self.flight is not None:
                        self.flight.record(
                            FlightRecord(
                                request_id=request_id,
                                status="ok",
                                reason="shadow-disagree",
                                latency_ms=latency_ms,
                                error_message=(
                                    f"candidate {self.version or '?'} predicted "
                                    f"{label!r}, primary served {primary_label!r}"
                                ),
                            )
                        )

    # -- reporting -------------------------------------------------------------

    def report(self) -> ShadowReport:
        """Aggregate disagreement + latency deltas so far."""
        with self._lock:
            scored = self._scored
            disagreed = self._disagreed
            primary_mean = self._primary_latency_sum_ms / scored if scored else 0.0
            candidate_mean = (
                self._candidate_latency_sum_ms / scored if scored else 0.0
            )
            dropped = self._dropped
        regression = (
            candidate_mean / primary_mean - 1.0 if primary_mean > 0.0 else 0.0
        )
        return ShadowReport(
            candidate_version=self.version,
            n_scored=scored,
            n_disagreements=disagreed,
            disagreement_rate=disagreed / scored if scored else 0.0,
            primary_mean_latency_ms=primary_mean,
            candidate_mean_latency_ms=candidate_mean,
            latency_regression=regression,
            n_dropped=dropped,
        )
