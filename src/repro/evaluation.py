"""Library-level evaluation and method comparison.

The benchmark harness under ``benchmarks/`` drives the paper's tables;
this module exposes the same machinery as a reusable API so downstream
users can run their own comparisons (own datasets, own methods)
without the pytest scaffolding::

    from repro.evaluation import compare, evaluate
    from repro.data import load

    result = evaluate(RPMClassifier(seed=0), load("CBF"))
    table = compare(
        {"RPM": RPMClassifier(seed=0), "NN-ED": NearestNeighborED},
        [load("CBF"), load("GunPointSim")],
    )
    print(table.render())

Methods may be given as configured estimator *instances* (cloned per
run through the :mod:`repro.base` protocol), estimator classes, or
zero-argument factories — all three spawn a fresh model per
(method, dataset) pair so state never leaks between runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .base import clone
from .data.base import Dataset
from .ml.metrics import error_rate
from .ml.stats import wilcoxon_signed_rank

__all__ = ["EvalResult", "ComparisonTable", "evaluate", "compare"]


def _instantiate(method):
    """A fresh, unfitted model from an instance, class or factory.

    A configured estimator instance (anything cloneable through the
    :mod:`repro.base` protocol) is cloned so the caller's object is
    never mutated; classes and zero-argument factories are simply
    called.
    """
    if not isinstance(method, type) and hasattr(method, "fit") and (
        hasattr(method, "clone") or hasattr(method, "get_params")
    ):
        return clone(method)
    if callable(method):
        return method()
    raise TypeError(
        f"method must be an estimator instance, class or zero-argument "
        f"factory, got {method!r}"
    )


@dataclass(frozen=True)
class EvalResult:
    """One method on one dataset: error and wall-clock split."""

    method: str
    dataset: str
    error: float
    train_time: float
    test_time: float

    @property
    def total_time(self) -> float:
        """Train plus classify wall-clock seconds."""
        return self.train_time + self.test_time


@dataclass
class ComparisonTable:
    """Errors of several methods across several datasets."""

    methods: list[str]
    datasets: list[str]
    results: dict = field(default_factory=dict)  # (method, dataset) -> EvalResult

    def errors(self, method: str) -> list[float]:
        """Error column of one method across the datasets."""
        return [self.results[(method, ds)].error for ds in self.datasets]

    def wins(self) -> dict[str, int]:
        """Datasets each method wins; ties count for every winner."""
        out = {m: 0 for m in self.methods}
        for ds in self.datasets:
            best = min(self.results[(m, ds)].error for m in self.methods)
            for m in self.methods:
                if self.results[(m, ds)].error <= best + 1e-12:
                    out[m] += 1
        return out

    def wilcoxon(self, method_a: str, method_b: str) -> float:
        """Two-sided signed-rank p-value on the paired error vectors.

        Returns 1.0 when every paired difference is zero (methods
        indistinguishable on this suite).
        """
        a = np.array(self.errors(method_a))
        b = np.array(self.errors(method_b))
        try:
            return wilcoxon_signed_rank(a, b).p_value
        except ValueError:
            return 1.0

    def mean_errors(self) -> dict[str, float]:
        """Mean error per method over the suite."""
        return {m: float(np.mean(self.errors(m))) for m in self.methods}

    def render(self) -> str:
        """Plain-text table in the paper's Table-1 layout."""
        width = max(len(ds) for ds in self.datasets + ["#wins (incl. ties)"])
        header = f"{'dataset':<{width}}  " + "  ".join(f"{m:>8s}" for m in self.methods)
        lines = [header, "-" * len(header)]
        for ds in self.datasets:
            row = f"{ds:<{width}}  " + "  ".join(
                f"{self.results[(m, ds)].error:>8.3f}" for m in self.methods
            )
            lines.append(row)
        wins = self.wins()
        lines.append(
            f"{'#wins (incl. ties)':<{width}}  "
            + "  ".join(f"{wins[m]:>8d}" for m in self.methods)
        )
        return "\n".join(lines)


def evaluate(
    method: Callable | object,
    dataset: Dataset,
    *,
    name: str | None = None,
) -> EvalResult:
    """Fit a fresh model on the dataset's train split, score the test split.

    ``method`` is a configured estimator instance (cloned, never
    mutated), an estimator class, or a zero-argument factory.
    """
    model = _instantiate(method)
    label = name or type(model).__name__
    start = time.perf_counter()
    model.fit(dataset.X_train, dataset.y_train)
    train_time = time.perf_counter() - start
    start = time.perf_counter()
    predictions = model.predict(dataset.X_test)
    test_time = time.perf_counter() - start
    return EvalResult(
        method=label,
        dataset=dataset.name,
        error=error_rate(dataset.y_test, predictions),
        train_time=train_time,
        test_time=test_time,
    )


def compare(
    methods: dict[str, Callable | object],
    datasets: Sequence[Dataset],
    *,
    verbose: bool = False,
) -> ComparisonTable:
    """Evaluate every method on every dataset.

    ``methods`` maps display name to an estimator instance, class or
    zero-argument factory; a fresh model is spawned per
    (method, dataset) pair so state never leaks between runs.
    """
    if not methods:
        raise ValueError("methods must be non-empty")
    if not datasets:
        raise ValueError("datasets must be non-empty")
    table = ComparisonTable(
        methods=list(methods), datasets=[ds.name for ds in datasets]
    )
    for dataset in datasets:
        for name, method in methods.items():
            result = evaluate(method, dataset, name=name)
            table.results[(name, dataset.name)] = result
            if verbose:
                print(
                    f"{name} on {dataset.name}: error {result.error:.3f} "
                    f"({result.total_time:.1f}s)"
                )
    return table
