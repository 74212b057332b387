"""Drift monitoring: live feature/input sketches vs. a training reference.

The lifecycle registry archives every version's training features; this
module closes the loop the paper's medical-alarm deployment needs: the
serving tier continuously compares what it is *seeing* against what the
model was *mined on*, and raises a typed, observable alert when the two
diverge — before accuracy quietly rots.

* :func:`build_reference` computes a
  :class:`~repro.obs.sketch.ReferenceDistribution` from an archived
  model's ``train_features`` (and the raw training matrix when the
  caller has it); :meth:`ModelRegistry.publish(..., reference=True)
  <repro.serve.lifecycle.ModelRegistry.publish>` stores it as
  ``versions/<v>/reference.json`` under the registry's sha256
  integrity scheme.
* :class:`DriftMonitor` attaches to either serving tier and ingests
  resolved batches **off the latency path** — on the same
  :class:`~repro.serve.flight.BacklogThread` as
  :class:`~repro.serve.lifecycle.ShadowScorer`, so the prediction hot
  path never computes a sketch and predictions are bitwise identical
  monitor-on vs. monitor-off (pinned by the drift test suite and
  ``bench_drift.py``). Per-shard sketches are kept separately (the
  sharded collector offers rows tagged with their shard) and merged
  via :meth:`DistributionSketch.merge
  <repro.obs.sketch.DistributionSketch.merge>` at evaluation time.

On a row-count cadence the monitor computes per-column PSI against the
reference, publishes the ``serve.drift.*`` gauges (bracket labels:
``serve.drift.psi[column=3]``, ``serve.drift.best_match_rate[pattern=0]``),
and on an alert rising edge annotates the flight recorder with reason
``"drift"`` naming the most-shifted columns. ``GET /drift`` on the
admin endpoint serves :meth:`DriftMonitor.describe`.
"""

from __future__ import annotations

import json
import logging
import threading
from pathlib import Path

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.sketch import (
    MEAN_RANGE,
    STD_RANGE,
    DistributionSketch,
    ReferenceDistribution,
    psi,
)
from .flight import BacklogThread, FlightRecord, FlightRecorder

__all__ = [
    "DriftMonitor",
    "build_reference",
    "offline_drift_report",
    "resolve_reference",
]

_log = logging.getLogger("repro.serve.monitor")

#: Input-statistic keys shared by live sketches, reference, and the
#: ``serve.drift.input_psi[stat=…]`` gauge labels.
_INPUT_STATS = ("mean", "std", "length")


def build_reference(
    artifact: str | Path, X=None, *, source: str | None = None
) -> ReferenceDistribution:
    """Reference distribution of one ``save_model`` artifact.

    Reads the archived ``train_features`` matrix (every artifact
    carries it) and the ``series_length`` metadata; pass the raw
    training matrix ``X`` to additionally populate the input mean/std
    sketches — the archive stores features, not inputs, so without it
    those sketches stay empty and input PSI is simply not computed.
    """
    artifact = Path(artifact)
    with np.load(artifact, allow_pickle=False) as archive:
        if "meta_json" not in archive or "train_features" not in archive:
            raise ValueError(
                f"{artifact} is not an RPM model archive "
                f"(no train_features/metadata record)"
            )
        meta = json.loads(bytes(archive["meta_json"]).decode())
        features = np.asarray(archive["train_features"], dtype=float)
    return ReferenceDistribution.from_features(
        features,
        X,
        series_length=meta.get("series_length"),
        source=source if source is not None else str(artifact),
    )


def resolve_reference(
    target, handle=None, *, n_columns: int | None = None
) -> ReferenceDistribution:
    """Resolve the drift reference a serving tier should compare against.

    ``target`` may be a ready :class:`ReferenceDistribution`, a path to
    a ``reference.json`` or a model ``.npz`` (built on the spot), or
    ``None`` — which resolves through ``handle``'s registry: the
    version's published ``reference.json`` when it has one
    (integrity-verified), otherwise built from the version's archived
    train features. ``n_columns`` cross-checks the reference against
    the served model's pattern count, catching a reference that
    outlived a re-mine.
    """
    if isinstance(target, ReferenceDistribution):
        ref = target
    elif target is None:
        reg = getattr(handle, "registry", None)
        version = getattr(handle, "version", None)
        if reg is None or not version:
            raise ValueError(
                "cannot resolve a drift reference: pass a "
                "ReferenceDistribution, a reference.json / model .npz "
                "path, or serve a registry version"
            )
        ref = reg.reference(version)
        if ref is None:
            ref = build_reference(
                reg.get(version).path, source=f"{version}/model.npz"
            )
    else:
        path = Path(target)
        if path.suffix == ".json":
            ref = ReferenceDistribution.load(path)
        else:
            ref = build_reference(path)
    if n_columns is not None and ref.n_columns != n_columns:
        raise ValueError(
            f"reference carries {ref.n_columns} feature columns but the "
            f"served model has {n_columns} patterns"
        )
    return ref


def _compare_columns(
    reference: ReferenceDistribution, live_columns: list
) -> tuple[list[float], float, float]:
    """Per-column PSI vs. the reference plus two aggregates.

    The alert score is the **max** per-column PSI: a single strongly
    shifted pattern column must trip the alert no matter how many quiet
    columns the model carries (a mean dilutes it by ``n_columns`` and
    loses sensitivity as models grow). The mean is computed alongside
    as a breadth signal — "how much of the model has moved" — and
    exported as ``serve.drift.score_mean``.
    """
    per_column = [
        psi(ref_col, live_col)
        for ref_col, live_col in zip(reference.columns, live_columns)
    ]
    score = float(np.max(per_column)) if per_column else 0.0
    score_mean = float(np.mean(per_column)) if per_column else 0.0
    return per_column, score, score_mean


def offline_drift_report(
    reference: ReferenceDistribution,
    features,
    X=None,
    *,
    threshold: float = 0.25,
) -> dict:
    """One-shot drift comparison of a feature matrix against a reference.

    The offline twin of the live monitor (``rpm drift``): build the
    candidate side's sketches with the same binning, compare column by
    column, and report the same payload shape ``GET /drift`` serves.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(
            f"features must be 2-D (rows, columns), got {features.ndim}-D"
        )
    if features.shape[1] != reference.n_columns:
        raise ValueError(
            f"feature matrix has {features.shape[1]} columns but the "
            f"reference carries {reference.n_columns}"
        )
    live = ReferenceDistribution.from_features(features, X)
    per_column, score, score_mean = _compare_columns(reference, live.columns)
    input_psi = {}
    for stat in _INPUT_STATS:
        ref_sketch = getattr(reference, f"input_{stat}")
        live_sketch = getattr(live, f"input_{stat}")
        if ref_sketch.count > 0 and live_sketch.count > 0:
            input_psi[stat] = psi(ref_sketch, live_sketch)
    columns = [
        {
            "column": k,
            "psi": per_column[k],
            "best_match_rate": live.best_match_rate[k],
            "reference_best_match_rate": reference.best_match_rate[k],
        }
        for k in range(reference.n_columns)
    ]
    return {
        "score": score,
        "score_mean": score_mean,
        "threshold": threshold,
        "alert": score > threshold,
        "rows": int(features.shape[0]),
        "reference": reference.meta(),
        "columns": columns,
        "input_psi": input_psi,
        "top_offenders": _top_offenders(per_column),
    }


def _top_offenders(per_column: list, n: int = 3) -> list:
    """The ``n`` most-shifted columns, largest PSI first."""
    order = sorted(range(len(per_column)), key=lambda k: -per_column[k])
    return [
        {"column": k, "psi": per_column[k]} for k in order[:n] if per_column[k] > 0.0
    ]


class _ShardSketches:
    """Live sketch set for one shard (or the whole single-process tier).

    ``recent`` sketches track the recent window — the distribution PSI
    is computed on; ``lifetime`` sketches never decay — the "since
    start-up" view ``/drift`` shows beside it. Decay is *not* applied
    here per fold: the monitor drives :meth:`decay` for **every** shard
    on its global observed-row clock, so a shard that stops receiving
    traffic still forgets — otherwise an idle shard's stale mass would
    sit in the merged recent window forever, diluting the PSI signal
    from the live shards.
    """

    __slots__ = ("recent", "lifetime", "inputs_recent", "inputs_lifetime",
                 "best_counts")

    def __init__(self, n_columns: int) -> None:
        self.recent = [DistributionSketch.log_bins() for _ in range(n_columns)]
        self.lifetime = [DistributionSketch.log_bins() for _ in range(n_columns)]
        self.inputs_recent = {
            "mean": DistributionSketch.linear_bins(*MEAN_RANGE),
            "std": DistributionSketch.linear_bins(*STD_RANGE),
            "length": DistributionSketch.log_bins(),
        }
        self.inputs_lifetime = {
            "mean": DistributionSketch.linear_bins(*MEAN_RANGE),
            "std": DistributionSketch.linear_bins(*STD_RANGE),
            "length": DistributionSketch.log_bins(),
        }
        self.best_counts = np.zeros(n_columns)

    def decay(self, factor: float) -> None:
        """Scale the recent-window state (recent sketches, input
        sketches, best-match counts) by ``factor``; lifetime sketches
        are untouched."""
        for sketch in self.recent:
            sketch.scale(factor)
        for sketch in self.inputs_recent.values():
            sketch.scale(factor)
        self.best_counts *= factor

    def fold(self, features: np.ndarray, means, stds, lengths) -> None:
        for k in range(features.shape[1]):
            self.recent[k].extend(features[:, k])
            self.lifetime[k].extend(features[:, k])
        for key, values in (("mean", means), ("std", stds), ("length", lengths)):
            self.inputs_recent[key].extend(values)
            self.inputs_lifetime[key].extend(values)
        best = np.argmin(features, axis=1)
        for k, count in zip(*np.unique(best, return_counts=True)):
            self.best_counts[int(k)] += float(count)


def _merge_all(sketches: list) -> DistributionSketch:
    merged = sketches[0]
    for sketch in sketches[1:]:
        merged = merged.merge(sketch)
    return merged


class DriftMonitor(BacklogThread):
    """Streaming drift detector for one serving tier.

    The tier calls :meth:`observe` *after* a request's future has
    resolved (the in-process batcher, or the sharded collector thread)
    — an O(1) bounded-deque append. The backlog thread drains it,
    folds feature rows + input stats into per-shard sketches, and
    every ``eval_every`` rows merges the shards and
    compares the merged recent window against ``reference``:

    * ``serve.drift.score`` — aggregate drift score: the **max**
      per-column PSI, so one shifted pattern column trips the alert no
      matter how many quiet columns surround it;
    * ``serve.drift.score_mean`` — mean per-column PSI, the breadth
      companion ("how much of the model has moved");
    * ``serve.drift.psi[column=k]`` — per-feature-column PSI;
    * ``serve.drift.input_psi[stat=mean|std|length]`` — input-stat PSI
      (only for stats the reference carries);
    * ``serve.drift.best_match_rate[pattern=k]`` — recent-window
      fraction of rows whose best match is pattern ``k``;
    * ``serve.drift.alert`` — 1 while the score exceeds ``threshold``;
    * ``serve.drift.rows`` / ``dropped`` / ``fold_errors`` /
      ``evaluations`` / ``alerts`` counters.

    The recent window decays on the monitor's global observed-row
    clock: every drained batch scales **all** shards' recent sketches
    by ``0.5 ** (rows / window)``, so an idle shard's stale mass fades
    at the same rate as live traffic arrives instead of lingering in
    the merge forever.

    On the alert rising edge one flight-recorder entry with reason
    ``"drift"`` names the most-shifted columns, carrying the request
    and batch IDs of the row that crossed the line.
    """

    thread_name = "rpm-drift-monitor"
    dropped_metric = "serve.drift.dropped"

    def __init__(
        self,
        reference: ReferenceDistribution,
        *,
        window: int = 256,
        threshold: float = 0.25,
        eval_every: int = 32,
        max_backlog: int = 4096,
        batch: int = 64,
        metrics: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        if eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {eval_every}")
        super().__init__(max_backlog=max_backlog, batch=batch, metrics=metrics)
        self.reference = reference
        self.window = int(window)
        self.threshold = float(threshold)
        self.eval_every = int(eval_every)
        self.flight = flight
        self._fold_lock = threading.Lock()  # sketch state + evaluation
        self._shards: dict = {}  # shard key (int | None) -> _ShardSketches
        self._rows = 0
        self._fold_errors = 0
        self._evaluations = 0
        self._alerts = 0
        self._alerting = False
        self._rows_since_eval = 0
        self._last: dict | None = None  # most recent evaluation payload
        self._last_seen: tuple = (None, None, None)  # request_id, batch_id, shard

    # -- ingress (called by the serving tier, post-resolve) --------------------

    def observe(
        self,
        request_id: str,
        series,
        features,
        *,
        batch_id: int | None = None,
        shard: int | None = None,
    ) -> None:
        """Enqueue one resolved OK request's row (O(1), lossy).

        ``series`` is the validated input, ``features`` its per-pattern
        distance row from the :class:`PredictionResult`. A full backlog
        drops the row (counted in ``serve.drift.dropped``) — drift
        monitoring is best-effort by design; it never applies
        backpressure to the serving path.
        """
        self._enqueue((request_id, series, features, batch_id, shard))

    # -- fold thread -----------------------------------------------------------

    def _consume(self, batch: list) -> None:
        """Fold one drained batch, containing any failure.

        The fold thread has no supervisor: an uncaught exception would
        kill it silently and freeze every ``serve.drift.*`` gauge at
        its pre-crash value — the worst failure mode for a monitor,
        stale numbers that look healthy. Monitoring is best-effort by
        design, so a poisoned batch is counted, logged and dropped; the
        thread lives on.
        """
        try:
            self._fold(batch)
        except Exception:
            with self._lock:
                self._fold_errors += 1
            self.metrics.inc("serve.drift.fold_errors")
            _log.warning(
                "drift fold failed; dropping a batch of %d rows",
                len(batch),
                exc_info=True,
            )

    def _fold(self, batch: list) -> None:
        by_shard: dict = {}
        n_columns = self.reference.n_columns
        stale = 0
        for request_id, series, features, batch_id, shard in batch:
            row = np.asarray(features, dtype=float).ravel()
            if row.shape[0] != n_columns:
                # A hot-swap changed the pattern count under a stale
                # reference; rows of either width can share one drained
                # batch, so filter per row (never np.stack a mixed
                # batch) — count and drop rather than corrupt.
                stale += 1
                continue
            by_shard.setdefault(shard, []).append((series, row))
            self._last_seen = (request_id, batch_id, shard)
        if stale:
            self.metrics.inc("serve.drift.dropped", stale)
            with self._lock:
                self._dropped += stale
        if not by_shard:
            return
        total = sum(len(rows) for rows in by_shard.values())
        with self._fold_lock:
            # Decay every shard — including idle ones — on the global
            # observed-row clock before folding, so a shard that stops
            # receiving traffic forgets at the same rate as the live
            # ones instead of pinning stale mass in the merged window.
            factor = 0.5 ** (total / self.window)
            for sketches in self._shards.values():
                sketches.decay(factor)
            for shard, rows in by_shard.items():
                sketches = self._shards.get(shard)
                if sketches is None:
                    sketches = self._shards[shard] = _ShardSketches(n_columns)
                features = np.stack([row for _, row in rows])
                means = [float(np.mean(s)) for s, _ in rows]
                stds = [float(np.std(s)) for s, _ in rows]
                lengths = [float(np.size(s)) for s, _ in rows]
                sketches.fold(features, means, stds, lengths)
                n = features.shape[0]
                with self._lock:
                    self._rows += n
                    self._rows_since_eval += n
                self.metrics.inc("serve.drift.rows", n)
            if self._rows_since_eval >= self.eval_every:
                self._evaluate_locked()

    def flush(self) -> dict | None:
        """Fold everything queued and force an evaluation (for tests,
        shutdown reports and the serve-loop EOF path). Returns the
        evaluation payload, or ``None`` when nothing was ever folded."""
        while True:
            batch = self._take()
            if not batch:
                break
            self._consume(batch)
        with self._fold_lock:
            if self._shards:
                self._evaluate_locked()
            return self._last

    # -- evaluation ------------------------------------------------------------

    def _evaluate_locked(self) -> None:
        """Merge per-shard sketches, compare, export. ``_fold_lock`` held."""
        self._rows_since_eval = 0
        self._evaluations += 1
        self.metrics.inc("serve.drift.evaluations")
        shard_sets = list(self._shards.values())
        if not shard_sets:
            return
        merged_recent = [
            _merge_all([s.recent[k] for s in shard_sets])
            for k in range(self.reference.n_columns)
        ]
        merged_lifetime = [
            _merge_all([s.lifetime[k] for s in shard_sets])
            for k in range(self.reference.n_columns)
        ]
        merged_inputs = {
            stat: _merge_all([s.inputs_recent[stat] for s in shard_sets])
            for stat in _INPUT_STATS
        }
        best_counts = np.sum([s.best_counts for s in shard_sets], axis=0)
        per_column, score, score_mean = _compare_columns(
            self.reference, merged_recent
        )
        input_psi = {}
        for stat in _INPUT_STATS:
            ref_sketch = getattr(self.reference, f"input_{stat}")
            if ref_sketch.count > 0 and merged_inputs[stat].count > 0:
                input_psi[stat] = psi(ref_sketch, merged_inputs[stat])
        total_best = float(best_counts.sum())
        best_rates = (
            (best_counts / total_best).tolist()
            if total_best > 0
            else [0.0] * self.reference.n_columns
        )
        alerting = score > self.threshold
        self.metrics.set_gauge("serve.drift.score", score)
        self.metrics.set_gauge("serve.drift.score_mean", score_mean)
        self.metrics.set_gauge("serve.drift.alert", 1.0 if alerting else 0.0)
        for k, value in enumerate(per_column):
            self.metrics.set_gauge(f"serve.drift.psi[column={k}]", value)
        for stat, value in input_psi.items():
            self.metrics.set_gauge(f"serve.drift.input_psi[stat={stat}]", value)
        for k, rate in enumerate(best_rates):
            self.metrics.set_gauge(
                f"serve.drift.best_match_rate[pattern={k}]", rate
            )
        offenders = _top_offenders(per_column)
        if alerting and not self._alerting:
            self._alerts += 1
            self.metrics.inc("serve.drift.alerts")
            request_id, batch_id, shard = self._last_seen
            message = (
                f"drift score {score:.4f} exceeds threshold "
                f"{self.threshold:.4f}; most shifted columns: "
                + ", ".join(
                    f"{o['column']} (psi {o['psi']:.3f})" for o in offenders
                )
            )
            if self.flight is not None:
                self.flight.record(
                    FlightRecord(
                        request_id=request_id or "drift",
                        status="ok",
                        reason="drift",
                        batch_id=batch_id,
                        shard=shard,
                        error_message=message,
                    )
                )
            _log.warning(
                "drift alert raised",
                extra={
                    "score": round(score, 4),
                    "threshold": self.threshold,
                    "top_offenders": offenders,
                },
            )
        self._alerting = alerting
        self._last = {
            "score": score,
            "score_mean": score_mean,
            "threshold": self.threshold,
            "alert": alerting,
            "columns": [
                {
                    "column": k,
                    "psi": per_column[k],
                    "best_match_rate": best_rates[k],
                    "reference_best_match_rate": self.reference.best_match_rate[k],
                    "recent": merged_recent[k].summary(),
                    "lifetime": merged_lifetime[k].summary(),
                }
                for k in range(self.reference.n_columns)
            ],
            "input_psi": input_psi,
            "input": {
                stat: merged_inputs[stat].summary() for stat in _INPUT_STATS
            },
            "top_offenders": offenders,
        }

    # -- reporting -------------------------------------------------------------

    def describe(self) -> dict:
        """JSON-safe monitor state (the admin ``GET /drift`` body)."""
        with self._lock:
            rows = self._rows
            dropped = self._dropped
            fold_errors = self._fold_errors
            evaluations = self._evaluations
            alerts = self._alerts
            backlog = len(self._backlog)
        with self._fold_lock:
            last = self._last
            shards = sorted(
                (key for key in self._shards if key is not None), key=int
            )
        payload = {
            "window": self.window,
            "threshold": self.threshold,
            "eval_every": self.eval_every,
            "rows": rows,
            "dropped": dropped,
            "fold_errors": fold_errors,
            "evaluations": evaluations,
            "alerts": alerts,
            "backlog": backlog,
            "shards": shards,
            "reference": self.reference.meta(),
            "score": None if last is None else last["score"],
            "score_mean": None if last is None else last["score_mean"],
            "alert": False if last is None else last["alert"],
            "columns": [] if last is None else last["columns"],
            "input_psi": {} if last is None else last["input_psi"],
            "input": {} if last is None else last["input"],
            "top_offenders": [] if last is None else last["top_offenders"],
        }
        # The same values as flat metric names, so `rpm metrics --route
        # drift --format prometheus` renders through the standard
        # exporter without bespoke formatting.
        gauges = {
            "serve.drift.score": 0.0 if last is None else last["score"],
            "serve.drift.score_mean": 0.0 if last is None else last["score_mean"],
            "serve.drift.alert": 1.0 if payload["alert"] else 0.0,
        }
        if last is not None:
            for entry in last["columns"]:
                gauges[f"serve.drift.psi[column={entry['column']}]"] = entry["psi"]
                gauges[
                    f"serve.drift.best_match_rate[pattern={entry['column']}]"
                ] = entry["best_match_rate"]
            for stat, value in last["input_psi"].items():
                gauges[f"serve.drift.input_psi[stat={stat}]"] = value
        payload["gauges"] = gauges
        return payload
