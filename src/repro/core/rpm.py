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
from ..obs.metrics import registry
from ..obs.tracer import active_tracer, span
from ..runtime.cache import DiscretizationCache, WindowStatsCache
from ..runtime.executor import ParallelExecutor
from ..sax.discretize import SaxParams
from ..sax.znorm import znorm
from .candidates import find_candidates
from .params import ParamRanges, ParamSelector, default_ranges
from .patterns import PatternCandidate, RepresentativePattern
from .selection import SelectionResult, find_distinct
from .transform import PatternBank, pattern_features, pattern_values

__all__ = ["RPMClassifier"]


def _as_matrix(X) -> np.ndarray:
    """``X`` as a float array, naming the first row of a ragged input."""
    try:
        return np.asarray(X, dtype=float)
    except ValueError:
        lengths = [np.size(row) for row in X]
        for row, length in enumerate(lengths):
            if length != lengths[0]:
                raise ValueError(
                    f"row {row} of X has {length} points, but row 0 has {lengths[0]}"
                ) from None
        raise


def _require_trainable_classes(X: np.ndarray, y: np.ndarray, classes: np.ndarray) -> None:
    """Reject a class with fewer than two series or only constant ones.

    Such a class yields no pattern of its own, and the model then
    silently misclassifies every real series of it. A class of
    near-flat series (below the z-normalization threshold, but not
    constant) still fits: the other classes' patterns separate it.
    """
    constant = (X == X[:, :1]).all(axis=1)
    for label in classes:
        members = y == label
        count = int(np.count_nonzero(members))
        if count < 2:
            raise ValueError(
                f"class {label} has {count} training series; every class needs at least 2"
            )
        if constant[members].all():
            raise ValueError(f"every training series of class {label} is constant")


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
        Threads for the pattern bank's length buckets in
        ``transform``/``predict``, the calling thread included: ``2``
        runs buckets on the caller and one pool thread (``-1`` = all
        CPUs, ``1`` = serial). ``fit`` is one serial path whatever the
        value. Results are bitwise identical for every value — see
        ``docs/runtime.md``.
    numerosity_reduction:
        ``True`` (paper default, collapse exact-duplicate consecutive
        words), ``False`` (keep all), or one of ``'exact'`` /
        ``'mindist'`` / ``'none'``.

    ``fit`` and ``transform`` record their spans on the active tracer:
    run them inside ``with repro.obs.tracing(tracer):`` to trace them.
    Tracing never changes results: traced runs are bitwise identical to
    untraced ones.
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
    ) -> None:
        if param_search not in ("direct", "grid"):
            raise ValueError(f"param_search must be 'direct' or 'grid', got {param_search!r}")
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
        # Inference runs the pattern bank, built on first use.
        self._bank: tuple[list | None, PatternBank | None] = (None, None)

        self.patterns_: list[RepresentativePattern] = []
        self.params_by_class_: dict = {}
        self.selection_: SelectionResult | None = None
        self.classifier_ = None
        self.classes_: np.ndarray | None = None
        self.n_timesteps_: int | None = None
        self.n_param_evaluations_: int = 0
        self._train_labels: np.ndarray | None = None

    # -- training ---------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RPMClassifier":
        """Run the full RPM training pipeline (Algorithms 1-3)."""
        X = _as_matrix(X)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, m) with matching y")
        _require_finite(X)
        self.classes_ = np.unique(y)
        if self.classes_.size < 2:
            raise ValueError("need at least two classes")
        _require_trainable_classes(X, y, self.classes_)
        self.n_timesteps_ = int(X.shape[1])
        # The discretization cache serves the parameter search and
        # mining, the window-statistics cache the selection's transforms.
        # Both live only as long as this call: inference needs neither.
        discretize_cache = DiscretizationCache()

        with span("fit") as fit_span:
            fit_span.add("fit.series", X.shape[0])
            with span("params"):
                self.params_by_class_ = self._resolve_params(X, y, discretize_cache)
            candidates = self._mine_with_fallback(X, y, discretize_cache)
            self.selection_ = find_distinct(
                X,
                y,
                candidates,
                tau_percentile=self.tau_percentile,
                rotation_invariant=self.rotation_invariant,
                cache=WindowStatsCache(),
            )
            self.patterns_ = self.selection_.patterns
            self._train_labels = y
            self.classifier_ = self.classifier_factory()
            with span("classifier"):
                self.classifier_.fit(self.selection_.train_features, y)
        return self

    def _resolve_params(self, X: np.ndarray, y: np.ndarray, discretize_cache) -> dict:
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
            discretize_cache=discretize_cache,
        )
        if self.param_search == "direct":
            params = selector.select_direct(max_evaluations=self.direct_budget)
        else:
            params = selector.select_grid()
        self.n_param_evaluations_ = selector.n_evaluations
        return params

    def _mine_with_fallback(
        self, X: np.ndarray, y: np.ndarray, discretize_cache
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
                discretize_cache=discretize_cache,
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

    def _pattern_bank(self) -> PatternBank:
        """The compiled bank of ``patterns_``, rebuilt when they change."""
        patterns, bank = self._bank
        if patterns is not self.patterns_:
            bank = PatternBank([pattern_values(p) for p in self.patterns_])
            self._bank = (self.patterns_, bank)
        return bank

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Pattern-distance features of new series (n, K).

        Runs the pattern bank over one window-statistics prefix per
        batch: the path :class:`~repro.serve.CompiledModel` serves, so
        the two agree bitwise. The buckets fan out over ``n_jobs``
        threads: the calling thread runs the first bucket chunk, and a
        pool of ``n_jobs − 1`` threads, opened and closed per call (so
        the classifier never holds one), runs the rest. A bank of one
        bucket opens no pool. With a tracer active, per-chunk timings
        go to the process-wide metrics registry.
        """
        if not self.patterns_:
            raise RuntimeError("classifier used before fit()")
        X = _as_matrix(X)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        _require_finite(X)
        metrics = registry() if active_tracer().enabled else None
        with ParallelExecutor(self.n_jobs, metrics=metrics) as executor:
            return pattern_features(
                X,
                self._pattern_bank(),
                rotation_invariant=self.rotation_invariant,
                executor=executor,
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
