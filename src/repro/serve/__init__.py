"""repro.serve — batched inference over fitted RPM models.

The paper's headline is *efficient classification*: once the
representative patterns are mined, labelling a series is one
closest-match transform plus an SVM call. This package is the serving
path for that claim:

* :class:`CompiledModel` — a :mod:`repro.core.io` artifact loaded once,
  its pattern bank pre-z-normalized and length-bucketed so every
  request batch builds sliding-window statistics once per length;
* :class:`ServeConfig` — the one frozen dataclass carrying every
  serving knob for both tiers (validated in ``__post_init__``,
  ``from_args`` for the CLI);
* one serving front-end with two transports
  (:mod:`repro.serve.service`): micro-batching (``max_batch`` /
  ``max_delay_ms``), per-request deadlines with typed timeout results,
  strict input validation, warm-up, flight capture and the
  shadow/drift hooks are written once and shared by the in-process
  :class:`PredictionService` (a batcher thread) and the sharded
  :class:`ShardedPredictionService` (below), all instrumented through
  :mod:`repro.obs`;
* :class:`AdminServer` — embedded HTTP ops surface (``/healthz``,
  ``/readyz``, Prometheus ``/metrics``, ``/debug/requests``,
  ``/model``, ``POST /swap``) over a running service;
* :class:`FlightRecorder` — bounded ring of recent slow/error/timeout
  requests, correlated by the ``req-N`` ID every result carries;
* :class:`ShardedPredictionService` — the same front-end over N worker
  processes sharing one :class:`SharedPatternBank` shared-memory
  pattern bank, with admission control (typed ``OVERLOAD`` results
  under saturation) and zero-loss worker recycle/respawn (see
  ``repro.serve.shard``);
* the model lifecycle (:mod:`repro.serve.lifecycle`):
  :class:`ModelRegistry` (versioned artifacts with lineage metadata and
  integrity checks), :class:`ModelHandle` (the unified loading entry
  point and the atomic hot-swap pointer both tiers route through),
  :class:`ShadowScorer` + :class:`PromotionGate` (mirror a traffic
  fraction onto a candidate off the latency path; gate promotion on
  disagreement rate and latency regression).

Typical use::

    from repro.serve import ModelHandle, PredictionService, ServeConfig

    handle = ModelHandle.open("current", registry="models/", n_jobs=4)
    config = ServeConfig(max_batch=64, max_delay_ms=2.0)
    with PredictionService(handle, config=config) as svc:
        result = svc.predict_one(series, deadline_ms=50.0)
        labels = svc.predict(X_batch)   # == RPMClassifier.predict, bitwise
        svc.swap("v7")                  # hot-swap, zero dropped requests

See ``docs/serving.md`` for the serving tiers and ``docs/lifecycle.md``
for the registry / hot-swap / shadow-scoring subsystem.
"""

from .admin import AdminServer
from .compiled import CompiledModel
from .config import ServeConfig
from .flight import FlightRecord, FlightRecorder
from .lifecycle import (
    GateDecision,
    ModelHandle,
    ModelRegistry,
    ModelVersion,
    PromotionGate,
    RegistryError,
    RegistryIntegrityError,
    ShadowReport,
    ShadowScorer,
)
from .monitor import (
    DriftMonitor,
    build_reference,
    offline_drift_report,
    resolve_reference,
)
from .service import PredictionService
from .shard import SharedPatternBank, ShardedPredictionService
from .types import PredictionRequest, PredictionResult, ResultStatus, validate_series

__all__ = [
    "AdminServer",
    "CompiledModel",
    "DriftMonitor",
    "FlightRecord",
    "FlightRecorder",
    "GateDecision",
    "ModelHandle",
    "ModelRegistry",
    "ModelVersion",
    "PredictionService",
    "PredictionRequest",
    "PredictionResult",
    "PromotionGate",
    "RegistryError",
    "RegistryIntegrityError",
    "ResultStatus",
    "ServeConfig",
    "ShadowReport",
    "ShadowScorer",
    "SharedPatternBank",
    "ShardedPredictionService",
    "validate_series",
]
