"""One validated configuration object for every serving tier.

:class:`~repro.serve.service.PredictionService` and
:class:`~repro.serve.shard.ShardedPredictionService` grew their knobs
one PR at a time — micro-batching, deadlines, flight capture, admin
port, admission control — until each constructor carried ~10 sprawling
keyword arguments and the CLI mirrored every one as a flag. This module
consolidates all of them into a single **frozen** :class:`ServeConfig`
dataclass:

* one place validates every knob (``__post_init__``), so both tiers and
  the CLI reject bad values identically and immediately;
* ``from_args`` maps the ``rpm predict`` / ``rpm serve`` argparse
  namespace onto a config, so adding a knob is one field + one flag;
* ``to_dict`` / ``replace`` make configs loggable and derivable
  (``config.replace(max_batch=64)``) without mutation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Every serving knob, validated once, shared by both tiers.

    Single-process :class:`~repro.serve.service.PredictionService`
    ignores the sharding block (``n_shards`` and below);
    :class:`~repro.serve.shard.ShardedPredictionService` reads all of
    it (``n_shards=0`` there means "use the tier's default of 2").
    """

    #: Largest number of requests coalesced into one model call.
    max_batch: int = 32
    #: Longest a batch window stays open waiting for more requests
    #: (milliseconds); ``0`` disables coalescing.
    max_delay_ms: float = 2.0
    #: Deadline applied to requests that do not bring their own;
    #: ``None`` means no deadline.
    default_deadline_ms: float | None = None
    #: Strict input validation at submit time (length/NaN/dtype).
    validate: bool = True
    #: Run the model warm-up batch on start (readiness gates on it).
    warmup: bool = True
    #: OK requests at or above this latency are flight-recorded as
    #: slow; ``0`` disables slow capture.
    slow_ms: float = 250.0
    #: Flight-recorder ring size; ``0`` disables request capture.
    flight_capacity: int = 128
    #: Embedded admin endpoint port (``None`` = no admin server,
    #: ``0`` = ephemeral).
    admin_port: int | None = None
    #: Admin endpoint bind host (loopback by default).
    admin_host: str = "127.0.0.1"
    # -- sharded tier ------------------------------------------------------
    #: Worker process count for the sharded tier; ``0`` = "tier
    #: default" (single-process service ignores it, the sharded tier
    #: reads it as 2).
    n_shards: int = 0
    #: Shed requests with typed ``OVERLOAD`` when a shard's estimated
    #: queue wait exceeds this budget; ``None`` disables the estimate.
    admission_budget_ms: float | None = None
    #: Hard cap on in-flight requests per shard.
    max_queue_per_shard: int = 256
    #: Multiprocessing start method for shard workers.
    mp_context: str = "spawn"
    #: How long the sharded tier waits for every worker to warm up.
    start_timeout_s: float = 120.0
    # -- shadow scoring ----------------------------------------------------
    #: Fraction of OK traffic mirrored onto an attached shadow
    #: candidate (deterministic every-k-th sampling; ``1.0`` = all).
    shadow_fraction: float = 0.1
    # -- drift monitoring --------------------------------------------------
    #: Fold resolved OK traffic into live distribution sketches and
    #: compare against the model's training reference (requires a
    #: reference: a registry version published with ``reference=True``
    #: or one built from the artifact at attach time).
    drift: bool = False
    #: Recent-window half-life of the live sketches, in observations
    #: on the monitor's global clock (summed across shards) — after
    #: this many further rows, earlier traffic carries half its weight
    #: in the drift comparison, idle shards included.
    drift_window: int = 256
    #: Aggregate drift score (max per-column PSI) above which the
    #: monitor alerts; 0.25 is the conventional "significant shift"
    #: PSI reading.
    drift_threshold: float = 0.25

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {self.max_delay_ms}")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be > 0, got {self.default_deadline_ms}"
            )
        if self.slow_ms < 0:
            raise ValueError(f"slow_ms must be >= 0, got {self.slow_ms}")
        if self.flight_capacity < 0:
            raise ValueError(
                f"flight_capacity must be >= 0, got {self.flight_capacity}"
            )
        if self.admin_port is not None and self.admin_port < 0:
            raise ValueError(f"admin_port must be >= 0, got {self.admin_port}")
        if self.n_shards < 0:
            raise ValueError(f"n_shards must be >= 0, got {self.n_shards}")
        if self.admission_budget_ms is not None and self.admission_budget_ms <= 0:
            raise ValueError(
                f"admission_budget_ms must be > 0, got {self.admission_budget_ms}"
            )
        if self.max_queue_per_shard < 1:
            raise ValueError(
                f"max_queue_per_shard must be >= 1, got {self.max_queue_per_shard}"
            )
        if self.mp_context not in ("spawn", "fork", "forkserver"):
            raise ValueError(
                f"mp_context must be spawn/fork/forkserver, got {self.mp_context!r}"
            )
        if self.start_timeout_s <= 0:
            raise ValueError(
                f"start_timeout_s must be > 0, got {self.start_timeout_s}"
            )
        if not 0.0 < self.shadow_fraction <= 1.0:
            raise ValueError(
                f"shadow_fraction must be in (0, 1], got {self.shadow_fraction}"
            )
        if self.drift_window < 1:
            raise ValueError(
                f"drift_window must be >= 1, got {self.drift_window}"
            )
        if self.drift_threshold <= 0:
            raise ValueError(
                f"drift_threshold must be > 0, got {self.drift_threshold}"
            )

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_args(cls, args) -> "ServeConfig":
        """Build a config from the ``rpm predict`` / ``rpm serve``
        argparse namespace (missing attributes keep their defaults)."""
        defaults = cls()
        mapping = {
            "max_batch": getattr(args, "max_batch", defaults.max_batch),
            "max_delay_ms": getattr(args, "max_delay_ms", defaults.max_delay_ms),
            "default_deadline_ms": getattr(
                args, "deadline_ms", defaults.default_deadline_ms
            ),
            "warmup": not getattr(args, "no_warmup", False),
            "slow_ms": getattr(args, "slow_ms", defaults.slow_ms),
            "flight_capacity": getattr(
                args, "flight_size", defaults.flight_capacity
            ),
            "admin_port": getattr(args, "http_port", defaults.admin_port),
            "n_shards": getattr(args, "shards", defaults.n_shards),
            "admission_budget_ms": getattr(
                args, "admission_budget_ms", defaults.admission_budget_ms
            ),
            "max_queue_per_shard": getattr(
                args, "max_queue", defaults.max_queue_per_shard
            ),
            "shadow_fraction": getattr(
                args, "shadow_fraction", defaults.shadow_fraction
            ),
            "drift": getattr(args, "drift", defaults.drift),
            "drift_window": getattr(args, "drift_window", defaults.drift_window),
            "drift_threshold": getattr(
                args, "drift_threshold", defaults.drift_threshold
            ),
        }
        return cls(**mapping)

    def to_dict(self) -> dict:
        """The config as one JSON-safe ``{knob: value}`` dict."""
        return dataclasses.asdict(self)

    def replace(self, **changes) -> "ServeConfig":
        """A new config with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

