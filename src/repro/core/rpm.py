"""RPMClassifier — the paper's end-to-end classification pipeline.

Training (§3.2 + §4.3):

1. select per-class SAX parameters (DIRECT by default, grid optional,
   or fixed parameters supplied by the caller);
2. Algorithm 1: mine class-specific motif candidates per class with
   that class's parameters;
3. Algorithm 2 on the pooled candidates: τ de-duplication + CFS — this
   is also the "apply feature selection again" step of §4.3 that
   reconciles patterns found under different parameter sets;
4. fit a standard classifier (SVM by default) on the pattern-distance
   features.

Classification (§3.1): transform a series into its closest-match
distances to the representative patterns, feed the vector to the
classifier. With ``rotation_invariant=True`` the transform also matches
the halfway-rotated copy (§6.1).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..base import BaseEstimator
from ..ml.svm import SVC
from ..obs import resolve_tracer
from ..obs.metrics import registry
from ..runtime.cache import DiscretizationCache, WindowStatsCache
from ..runtime.executor import BACKENDS, ParallelExecutor
from ..runtime.kernel import KERNEL_BACKENDS
from ..sax.discretize import SaxParams
from ..sax.znorm import znorm
from .candidates import find_candidates
from .params import ParamRanges, ParamSelector, default_ranges
from .patterns import PatternCandidate, RepresentativePattern
from .selection import SelectionResult, find_distinct
from .transform import pattern_features

__all__ = ["RPMClassifier"]


def _require_finite(X: np.ndarray) -> None:
    """Reject NaN and infinity, naming the first row that holds one.

    The finiteness test of :func:`repro.serve.types.validate_series`.
    Without it one NaN in one training series yields a chance-level
    model and no error, and a NaN in a predicted row still gets a label.
    """
    finite_rows = np.isfinite(X).all(axis=1)
    if not finite_rows.all():
        row = int(np.flatnonzero(~finite_rows)[0])
        bad = int(np.count_nonzero(~np.isfinite(X[row])))
        raise ValueError(f"row {row} of X contains {bad} non-finite values")


class RPMClassifier(BaseEstimator):
    """Representative Pattern Mining classifier.

    Configuration is keyword-only; :class:`~repro.base.BaseEstimator`
    supplies ``get_params`` / ``set_params`` / ``clone``.

    Parameters
    ----------
    sax_params:
        ``None`` (default) — learn per-class parameters with
        ``param_search``; a single :class:`SaxParams` — use it for every
        class; or a ``{label: SaxParams}`` dict.
    param_search:
        ``'direct'`` (paper's choice) or ``'grid'``.
    gamma:
        Minimum motif support as a fraction of the class training size
        (the paper's experiments use 20 %).
    tau_percentile:
        Percentile of within-cluster distances used as the similarity
        threshold τ (paper: 30).
    prototype:
        Cluster prototype, ``'centroid'`` or ``'medoid'``.
    support_mode:
        ``'instances'`` (definition §2.1) or ``'occurrences'``
        (Algorithm 1 listing); see :func:`find_class_candidates`.
    rotation_invariant:
        Enable the two-copy closest-match transform of §6.1.
    classifier_factory:
        Zero-argument callable producing the downstream classifier
        (``fit``/``predict``); defaults to the RBF-kernel SVM.
    direct_budget / n_splits / cv_folds / validation_fraction:
        Algorithm 3 budget knobs (see :class:`ParamSelector`).
    n_jobs:
        Worker count for the parallel runtime: per-class candidate
        mining and the per-pattern transform columns fan out across
        this many workers (``-1`` = all CPUs, ``1`` = serial). Results
        are bitwise identical for every value — see ``docs/runtime.md``.
    parallel_backend:
        ``'thread'`` (default), ``'process'`` or ``'serial'``.
    kernel_backend:
        Distance-kernel cross-correlation implementation:
        ``'auto'`` (default — FFT above the calibrated crossover,
        exact mat-vec below it), ``'fft'``, or ``'matvec'``. See
        :func:`~repro.runtime.kernel.resolve_backend` and
        ``docs/runtime.md``.
    numerosity_reduction:
        ``True`` (paper default, collapse exact-duplicate consecutive
        words), ``False`` (keep all), or one of ``'exact'`` /
        ``'mindist'`` / ``'none'``.
    trace:
        Observability knob: ``None``/``False`` (default) runs with the
        zero-cost no-op tracer; ``True`` builds a fresh
        :class:`~repro.obs.tracer.Tracer`; an existing tracer is used
        as-is. The resolved tracer is available as ``self.tracer`` —
        render it with :func:`repro.obs.format_tree` or dump it with
        :func:`repro.obs.write_jsonl`. Tracing never changes results:
        traced runs are bitwise identical to untraced ones.
    """

    def __init__(
        self,
        *,
        sax_params: SaxParams | dict | None = None,
        param_search: str = "direct",
        ranges: ParamRanges | None = None,
        gamma: float = 0.2,
        tau_percentile: float = 30.0,
        prototype: str = "centroid",
        support_mode: str = "instances",
        rotation_invariant: bool = False,
        numerosity_reduction: bool = True,
        classifier_factory: Callable | None = None,
        direct_budget: int = 60,
        n_splits: int = 3,
        validation_fraction: float = 0.3,
        cv_folds: int = 5,
        seed: int = 0,
        n_jobs: int = 1,
        parallel_backend: str = "thread",
        kernel_backend: str = "auto",
        trace=None,
    ) -> None:
        if param_search not in ("direct", "grid"):
            raise ValueError(f"param_search must be 'direct' or 'grid', got {param_search!r}")
        if parallel_backend not in BACKENDS:
            raise ValueError(
                f"parallel_backend must be one of {BACKENDS}, got {parallel_backend!r}"
            )
        if kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"kernel_backend must be one of {KERNEL_BACKENDS}, got {kernel_backend!r}"
            )
        self.sax_params = sax_params
        self.param_search = param_search
        self.ranges = ranges
        self.gamma = gamma
        self.tau_percentile = tau_percentile
        self.prototype = prototype
        self.support_mode = support_mode
        self.rotation_invariant = rotation_invariant
        self.numerosity_reduction = numerosity_reduction
        self.classifier_factory = classifier_factory or (lambda: SVC(kernel="rbf", C=1.0))
        self.direct_budget = direct_budget
        self.n_splits = n_splits
        self.validation_fraction = validation_fraction
        self.cv_folds = cv_folds
        self.seed = seed
        self.n_jobs = n_jobs
        self.parallel_backend = parallel_backend
        self.kernel_backend = kernel_backend
        # ``trace`` is kept verbatim for get_params()/clone(); the
        # resolved tracer is what the pipeline actually uses.
        self.trace = trace
        self.tracer = resolve_tracer(trace)
        # The window-statistics cache is shared by this classifier's
        # transforms, the discretization cache by the parameter search
        # and mining.
        self._stats_cache = WindowStatsCache()
        self._discretize_cache = DiscretizationCache()

        self.patterns_: list[RepresentativePattern] = []
        self.params_by_class_: dict = {}
        self.selection_: SelectionResult | None = None
        self.classifier_ = None
        self.classes_: np.ndarray | None = None
        self.n_timesteps_: int | None = None
        self.n_param_evaluations_: int = 0
        self._train_labels: np.ndarray | None = None

    # -- runtime ----------------------------------------------------------------

    def _make_executor(self) -> ParallelExecutor:
        """A fresh executor honoring ``n_jobs``/``parallel_backend``.

        Created per fit/transform call and closed afterwards so the
        classifier object itself never holds a pool (and stays
        picklable/serializable). With tracing on, per-chunk timings go
        to the process-wide metrics registry.
        """
        metrics = registry() if self.tracer.enabled else None
        return ParallelExecutor(self.n_jobs, self.parallel_backend, metrics=metrics)

    # -- training ---------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RPMClassifier":
        """Run the full RPM training pipeline (Algorithms 1-3)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, m) with matching y")
        _require_finite(X)
        self.classes_ = np.unique(y)
        if self.classes_.size < 2:
            raise ValueError("need at least two classes")
        self.n_timesteps_ = int(X.shape[1])

        tracer = self.tracer
        with tracer.span("fit") as fit_span, tracer.adopt(fit_span):
            fit_span.add("fit.series", X.shape[0])
            with self._make_executor() as executor:
                with tracer.span("params"):
                    self.params_by_class_ = self._resolve_params(X, y, executor)
                candidates = self._mine_with_fallback(X, y, executor)
                self.selection_ = find_distinct(
                    X,
                    y,
                    candidates,
                    tau_percentile=self.tau_percentile,
                    rotation_invariant=self.rotation_invariant,
                    executor=executor,
                    cache=self._stats_cache,
                    tracer=tracer,
                    kernel_backend=self.kernel_backend,
                )
            self.patterns_ = self.selection_.patterns
            self._train_labels = y
            self.classifier_ = self.classifier_factory()
            with tracer.span("classifier"):
                self.classifier_.fit(self.selection_.train_features, y)
        return self

    def _resolve_params(
        self, X: np.ndarray, y: np.ndarray, executor: ParallelExecutor | None = None
    ) -> dict:
        if isinstance(self.sax_params, SaxParams):
            return {label: self.sax_params for label in self.classes_}
        if isinstance(self.sax_params, dict):
            missing = [label for label in self.classes_ if label not in self.sax_params]
            if missing:
                raise ValueError(f"sax_params missing classes: {missing}")
            return dict(self.sax_params)
        selector = ParamSelector(
            X,
            y,
            ranges=self.ranges or default_ranges(X.shape[1]),
            gamma=self.gamma,
            tau_percentile=self.tau_percentile,
            prototype=self.prototype,
            support_mode=self.support_mode,
            n_splits=self.n_splits,
            validation_fraction=self.validation_fraction,
            cv_folds=self.cv_folds,
            classifier_factory=self.classifier_factory,
            seed=self.seed,
            executor=executor,
            tracer=self.tracer,
            discretize_cache=self._discretize_cache,
        )
        if self.param_search == "direct":
            params = selector.select_direct(max_evaluations=self.direct_budget)
        else:
            params = selector.select_grid()
        self.n_param_evaluations_ = selector.n_evaluations
        return params

    def _mine_with_fallback(
        self,
        X: np.ndarray,
        y: np.ndarray,
        executor: ParallelExecutor | None = None,
    ) -> list[PatternCandidate]:
        """Algorithm 1, relaxing γ if nothing survives the threshold."""
        gamma = self.gamma
        for _ in range(3):
            candidates = find_candidates(
                X,
                y,
                self.params_by_class_,
                gamma=gamma,
                prototype=self.prototype,
                support_mode=self.support_mode,
                numerosity_reduction=self.numerosity_reduction,
                executor=executor,
                tracer=self.tracer,
                discretize_cache=self._discretize_cache,
            )
            if candidates:
                return candidates
            gamma /= 2.0
        # Last resort: one pattern per class — the z-normalized class
        # mean — so the pipeline always yields a working classifier.
        fallback: list[PatternCandidate] = []
        for label in self.classes_:
            mean_series = znorm(X[y == label].mean(axis=0))
            fallback.append(
                PatternCandidate(
                    values=mean_series,
                    label=label,
                    frequency=int(np.sum(y == label)),
                    support=int(np.sum(y == label)),
                    rule_id=-1,
                    words=(),
                    sax_params=self.params_by_class_[label],
                )
            )
        return fallback

    # -- inference ----------------------------------------------------------------

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Pattern-distance features of new series (n, K)."""
        if not self.patterns_:
            raise RuntimeError("classifier used before fit()")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        _require_finite(X)
        with self._make_executor() as executor:
            return pattern_features(
                X,
                self.patterns_,
                rotation_invariant=self.rotation_invariant,
                executor=executor,
                cache=self._stats_cache,
                tracer=self.tracer,
                kernel_backend=self.kernel_backend,
            )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for every row of ``X``."""
        if self.classifier_ is None:
            raise RuntimeError("classifier used before fit()")
        return self.classifier_.predict(self.transform(X))

    # -- reporting -------------------------------------------------------------------

    def patterns_for_class(self, label) -> list[RepresentativePattern]:
        return [p for p in self.patterns_ if p.label == label]

    def describe_patterns(self) -> str:
        lines = [f"{len(self.patterns_)} representative patterns:"]
        for pattern in self.patterns_:
            lines.append("  " + pattern.describe())
        return "\n".join(lines)
