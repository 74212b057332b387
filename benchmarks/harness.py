"""Shared machinery for the benchmark suite.

Every table and figure of the paper's evaluation has one bench module;
they all pull method/dataset runs from here so that e.g. Table 1
(accuracy) and Table 2 (runtime) reuse a single fit per method/dataset
pair, exactly like the paper reports both numbers from one run.

Scale control: set ``RPM_BENCH_SUITE`` to ``tiny`` (3 datasets, small
budgets — smoke test), ``small`` (8 datasets — the default) or ``full``
(all 16 UCR-like datasets).

Observability: set ``RPM_BENCH_METRICS`` to a path and every :func:`run`
is traced (``repro.obs.tracing``; only RPM opens spans); the spans plus
the process-wide metric counters are dumped there as JSON lines
whenever a report is written. CI uploads the resulting file as a build
artifact.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import RPMClassifier
from repro.baselines import (
    FastShapeletsClassifier,
    NearestNeighborDTW,
    NearestNeighborED,
    SaxVsmClassifier,
    TunedLearningShapelets,
)
from repro.data import load
from repro.ml.metrics import error_rate
from repro.obs import NOOP, Tracer, registry, tracing, write_jsonl

RESULTS_DIR = Path(__file__).parent / "results"

TINY_SUITE = ("CBF", "GunPointSim", "ItalyPowerSim")
SMALL_SUITE = (
    "CBF",
    "SyntheticControl",
    "TwoPatterns",
    "GunPointSim",
    "CoffeeSim",
    "ECGFiveDaysSim",
    "ItalyPowerSim",
    "MoteStrainSim",
)
FULL_SUITE = (
    "CBF",
    "SyntheticControl",
    "TwoPatterns",
    "GunPointSim",
    "CricketSim",
    "TraceSim",
    "CoffeeSim",
    "OliveOilSim",
    "ECGFiveDaysSim",
    "ECG200Sim",
    "FaceFourSim",
    "SwedishLeafSim",
    "OSULeafSim",
    "LightningSim",
    "WaferSim",
    "MoteStrainSim",
    "ItalyPowerSim",
)

#: Method column order matches the paper's Table 1.
METHOD_ORDER = ("NN-ED", "NN-DTWB", "SAX-VSM", "FS", "LS", "RPM")


def bench_scale() -> str:
    scale = os.environ.get("RPM_BENCH_SUITE", "small").lower()
    if scale not in ("tiny", "small", "full"):
        raise ValueError(f"RPM_BENCH_SUITE must be tiny/small/full, got {scale!r}")
    return scale


def bench_metrics_path() -> Path | None:
    """Where to dump spans + metrics (``RPM_BENCH_METRICS``), if anywhere."""
    path = os.environ.get("RPM_BENCH_METRICS")
    return Path(path) if path else None


#: One tracer active around every :func:`run`, so the dumped span
#: forest covers the whole suite. The zero-cost no-op tracer when
#: metrics are off.
BENCH_TRACER = Tracer() if bench_metrics_path() else NOOP


def flush_metrics() -> Path | None:
    """Dump the bench tracer + registry to ``RPM_BENCH_METRICS``.

    Called from :func:`write_report` so every table that lands in
    ``benchmarks/results/`` refreshes the metrics artifact alongside it.
    """
    path = bench_metrics_path()
    if path is None:
        return None
    return write_jsonl(
        path,
        tracer=BENCH_TRACER,
        metrics=registry(),
        meta={"suite": bench_scale()},
    )


def suite_names() -> tuple[str, ...]:
    return {"tiny": TINY_SUITE, "small": SMALL_SUITE, "full": FULL_SUITE}[bench_scale()]


def _budgets() -> dict:
    if bench_scale() == "tiny":
        return dict(
            saxvsm_budget=10,
            ls_epochs=150,
            ls_grid={"n_shapelets": (4,), "length_fraction": (0.15,), "l2": (0.01,)},
            rpm_budget=12,
            rpm_splits=2,
            dtw_windows=(0.0, 0.03, 0.1),
        )
    return dict(
        saxvsm_budget=30,
        ls_epochs=600,
        ls_grid=None,  # published default grid
        rpm_budget=40,
        rpm_splits=3,
        dtw_windows=(0.0, 0.01, 0.02, 0.03, 0.05, 0.08, 0.1, 0.15, 0.2),
    )


def make_method(name: str):
    """Fresh classifier instance for a method column."""
    b = _budgets()
    if name == "NN-ED":
        return NearestNeighborED()
    if name == "NN-DTWB":
        return NearestNeighborDTW(window_fractions=b["dtw_windows"])
    if name == "SAX-VSM":
        return SaxVsmClassifier(direct_budget=b["saxvsm_budget"], cv_folds=3, seed=0)
    if name == "FS":
        return FastShapeletsClassifier(seed=0)
    if name == "LS":
        return TunedLearningShapelets(grid=b["ls_grid"], epochs=b["ls_epochs"], seed=0)
    if name == "RPM":
        return RPMClassifier(direct_budget=b["rpm_budget"], n_splits=b["rpm_splits"], seed=0)
    raise KeyError(name)


@dataclass
class RunResult:
    method: str
    dataset: str
    error: float
    train_time: float
    test_time: float
    model: object = field(repr=False, default=None)

    @property
    def total_time(self) -> float:
        return self.train_time + self.test_time


_CACHE: dict[tuple[str, str], RunResult] = {}


def run(method: str, dataset_name: str) -> RunResult:
    """Fit + score one method on one dataset (cached per session)."""
    key = (method, dataset_name)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    dataset = load(dataset_name)
    model = make_method(method)
    with tracing(BENCH_TRACER):
        t0 = time.perf_counter()
        model.fit(dataset.X_train, dataset.y_train)
        train_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        predictions = model.predict(dataset.X_test)
        test_time = time.perf_counter() - t0
    result = RunResult(
        method=method,
        dataset=dataset_name,
        error=error_rate(dataset.y_test, predictions),
        train_time=train_time,
        test_time=test_time,
        model=model,
    )
    _CACHE[key] = result
    return result


def run_suite(methods=METHOD_ORDER) -> dict[tuple[str, str], RunResult]:
    out = {}
    for dataset_name in suite_names():
        for method in methods:
            out[(method, dataset_name)] = run(method, dataset_name)
    return out


def count_wins(errors_by_method: dict[str, list[float]]) -> dict[str, int]:
    """Number of datasets each method wins (ties count for all)."""
    methods = list(errors_by_method)
    n = len(next(iter(errors_by_method.values())))
    wins = {m: 0 for m in methods}
    for i in range(n):
        best = min(errors_by_method[m][i] for m in methods)
        for m in methods:
            if errors_by_method[m][i] <= best + 1e-12:
                wins[m] += 1
    return wins


def write_report(name: str, text: str) -> Path:
    """Persist a table to benchmarks/results/ and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(text)
    flush_metrics()
    return path


def format_table(header: list[str], rows: list[list], widths: list[int] | None = None) -> str:
    cells = [header] + [[_fmt(v) for v in row] for row in rows]
    if widths is None:
        widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for r, row in enumerate(cells):
        lines.append(
            "  ".join(
                (row[i].ljust(widths[i]) if i == 0 else row[i].rjust(widths[i]))
                for i in range(len(row))
            )
        )
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if np.isnan(value):
            return "-"
        return f"{value:.3f}"
    return str(value)
