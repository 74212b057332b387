"""Algorithm 3 — SAX parameter selection (grid search and DIRECT).

Time series classes differ in character, so RPM learns one SAX
parameter triple (sliding window, PAA size, alphabet size) *per class*
(§4). A candidate triple is scored by:

1. splitting the training data into train/validation partitions
   ``n_splits`` times (the paper uses 5);
2. mining patterns on the train partition (Algorithms 1 + 2);
3. transforming the validation partition and measuring the per-class
   F-measure of a five-fold cross-validated classifier on it.

The expensive part — mining + scoring — depends only on the parameter
triple, not on which class we are optimizing, so a shared evaluator
caches triple → per-class-F1 and both search strategies (brute-force
grid with γ-pruning, and DIRECT with integer rounding) read from it.
The evaluator's unique-evaluation count is the ``R`` of §5.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ml.crossval import kfold_predictions, stratified_split
from ..ml.metrics import precision_recall_f1
from ..ml.svm import SVC
from ..obs.metrics import registry
from ..obs.tracer import NOOP
from ..opt.direct import direct_minimize
from ..opt.grid import PRUNED_VALUE, grid_search
from ..runtime.cache import DiscretizationCache, WindowStatsCache
from ..sax.discretize import SaxParams
from .candidates import find_candidates
from .selection import find_distinct
from .transform import pattern_features

__all__ = ["ParamRanges", "ParamSelector", "default_ranges"]


@dataclass(frozen=True)
class ParamRanges:
    """Inclusive integer bounds for the three SAX parameters."""

    window: tuple[int, int]
    paa: tuple[int, int]
    alphabet: tuple[int, int]

    def clip(self, window: int, paa: int, alphabet: int) -> tuple[int, int, int]:
        """Clamp a raw integer triple into the legal parameter box."""
        window = int(np.clip(window, *self.window))
        paa = int(np.clip(paa, *self.paa))
        paa = min(paa, window)
        alphabet = int(np.clip(alphabet, *self.alphabet))
        return window, paa, alphabet

    def grid_axes(self, n_window: int = 6, n_paa: int = 4, n_alpha: int = 3) -> list[list[int]]:
        """Evenly spaced integer axes for the brute-force search."""

        def axis(bounds: tuple[int, int], count: int) -> list[int]:
            lo, hi = bounds
            return sorted({int(round(v)) for v in np.linspace(lo, hi, count)})

        return [axis(self.window, n_window), axis(self.paa, n_paa), axis(self.alphabet, n_alpha)]


def default_ranges(series_length: int) -> ParamRanges:
    """Sensible UCR-scale bounds: window 10-60 % of the series, PAA up
    to 12 segments, alphabet 3-9 (granularities past these add little,
    per the SAX literature)."""
    lo_w = max(8, int(round(0.1 * series_length)))
    hi_w = max(lo_w + 2, int(round(0.6 * series_length)))
    return ParamRanges(window=(lo_w, hi_w), paa=(3, 12), alphabet=(3, 9))


@dataclass
class _Evaluation:
    f1_by_class: dict
    pruned: bool = False


class ParamSelector:
    """Shared, cached evaluator + the two search strategies of §4."""

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        ranges: ParamRanges | None = None,
        gamma: float = 0.2,
        tau_percentile: float = 30.0,
        prototype: str = "centroid",
        support_mode: str = "instances",
        n_splits: int = 3,
        validation_fraction: float = 0.3,
        cv_folds: int = 5,
        classifier_factory=None,
        seed: int = 0,
        executor=None,
        tracer=NOOP,
        discretize_cache=None,
    ) -> None:
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y)
        self.ranges = ranges or default_ranges(self.X.shape[1])
        self.gamma = gamma
        self.tau_percentile = tau_percentile
        self.prototype = prototype
        self.support_mode = support_mode
        self.n_splits = n_splits
        self.validation_fraction = validation_fraction
        self.cv_folds = cv_folds
        self.classifier_factory = classifier_factory or (lambda: SVC(kernel="rbf", C=1.0))
        self.seed = seed
        # Shared parallel runtime: per-class mining and validation
        # transforms inside each evaluation fan out over this executor.
        self.executor = executor
        self.tracer = tracer
        self._stats_cache = WindowStatsCache()
        # Shared discretization pre-work: evaluations revisiting a
        # (class series, window size) pair skip sliding/z-norm/PAA.
        self._discretize_cache = (
            discretize_cache if discretize_cache is not None else DiscretizationCache()
        )
        self.classes_ = np.unique(self.y)
        self._cache: dict[tuple[int, int, int], _Evaluation] = {}
        # Running best triple per label, updated as evaluations land —
        # replaces a full-cache rescan per class at selection time.
        self._best: dict = {}
        # Fixed splits shared by every evaluation keeps the comparison fair.
        self._splits = [
            stratified_split(self.y, validation_fraction, seed=seed + 1000 * s)
            for s in range(n_splits)
        ]

    # -- the cached objective --------------------------------------------------

    @property
    def n_evaluations(self) -> int:
        """Unique parameter triples evaluated — the paper's R (§5.3)."""
        return len(self._cache)

    def evaluate(self, window: int, paa: int, alphabet: int) -> _Evaluation:
        """Score one integer parameter triple (cached)."""
        key = self.ranges.clip(window, paa, alphabet)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        evaluation = self._evaluate_uncached(SaxParams(*key))
        self._record(key, evaluation)
        return evaluation

    def evaluate_batch(self, points) -> list[_Evaluation]:
        """Score a batch of raw (float) parameter points, in order.

        Points are rounded and clipped to integer triples; distinct
        uncached triples are evaluated — concurrently over the thread
        executor when one is attached — and merged into the cache in
        first-appearance order, exactly where the serial loop would
        have inserted them. The per-label running best therefore sees
        the same insertion sequence as serial evaluation, so tie-breaks
        (strict improvement, earliest triple wins) are identical.
        """
        keys = [self.ranges.clip(*(int(round(v)) for v in point)) for point in points]
        new_keys: list[tuple[int, int, int]] = []
        seen: set[tuple[int, int, int]] = set()
        for key in keys:
            if key in self._cache or key in seen:
                continue
            seen.add(key)
            new_keys.append(key)
        fan_out = (
            self.executor is not None
            and self.executor.backend == "thread"
            and len(new_keys) > 1
        )
        if fan_out:
            registry().inc("direct.parallel_points", len(new_keys))
            evaluations = self.executor.map(self._evaluate_batch_job, new_keys)
        else:
            evaluations = [self._evaluate_uncached(SaxParams(*key)) for key in new_keys]
        for key, evaluation in zip(new_keys, evaluations):
            self._record(key, evaluation)
        return [self._cache[key] for key in keys]

    def _evaluate_batch_job(self, key: tuple[int, int, int]) -> _Evaluation:
        # Worker threads must not re-enter the shared pool (the outer
        # map already owns every slot): inner stages run serially.
        return self._evaluate_uncached(SaxParams(*key), executor=None)

    def _record(self, key: tuple[int, int, int], evaluation: _Evaluation) -> None:
        """Insert an evaluation and maintain the per-label running best."""
        self._cache[key] = evaluation
        if evaluation.pruned:
            return
        for label in self.classes_:
            f1 = float(evaluation.f1_by_class.get(label, 0.0))
            current = self._best.get(label)
            if current is None or f1 > current[0]:
                self._best[label] = (f1, key)

    _UNSET = object()

    def _evaluate_uncached(self, params: SaxParams, *, executor=_UNSET) -> _Evaluation:
        # The R of §5.3: one increment per *unique* triple actually mined.
        registry().inc("direct.evaluations")
        with self.tracer.span("evaluate", params=params.as_tuple()):
            return self._run_evaluation(params, executor=executor)

    def _run_evaluation(self, params: SaxParams, *, executor=_UNSET) -> _Evaluation:
        executor = self.executor if executor is ParamSelector._UNSET else executor
        sums = {label: 0.0 for label in self.classes_}
        useful_splits = 0
        for train_idx, val_idx in self._splits:
            X_tr, y_tr = self.X[train_idx], self.y[train_idx]
            X_val, y_val = self.X[val_idx], self.y[val_idx]
            if params.window_size > self.X.shape[1]:
                continue
            params_by_class = {label: params for label in self.classes_}
            try:
                candidates = find_candidates(
                    X_tr,
                    y_tr,
                    params_by_class,
                    gamma=self.gamma,
                    prototype=self.prototype,
                    support_mode=self.support_mode,
                    executor=executor,
                    tracer=self.tracer,
                    discretize_cache=self._discretize_cache,
                )
            except ValueError:
                continue
            if not candidates:
                # γ-pruning (paper §4.1): nothing frequent enough.
                continue
            selection = find_distinct(
                X_tr,
                y_tr,
                candidates,
                tau_percentile=self.tau_percentile,
                executor=executor,
                cache=self._stats_cache,
                tracer=self.tracer,
            )
            X_val_t = pattern_features(
                X_val,
                selection.patterns,
                executor=executor,
                cache=self._stats_cache,
                tracer=self.tracer,
            )

            def fit_predict(Xa, ya, Xb):
                if np.unique(ya).size < 2:
                    return np.full(Xb.shape[0], ya[0])
                return self.classifier_factory().fit(Xa, ya).predict(Xb)

            folds = min(self.cv_folds, X_val_t.shape[0])
            if folds < 2:
                continue
            preds = kfold_predictions(
                fit_predict, X_val_t, y_val, n_folds=folds, seed=self.seed
            )
            scores = precision_recall_f1(y_val, preds, labels=self.classes_)
            for label, f1 in zip(scores.labels, scores.f1):
                sums[label] += float(f1)
            useful_splits += 1
        if useful_splits == 0:
            return _Evaluation(f1_by_class={}, pruned=True)
        return _Evaluation(
            f1_by_class={label: sums[label] / useful_splits for label in self.classes_}
        )

    # -- search strategies --------------------------------------------------------

    def select_direct(
        self,
        *,
        max_evaluations: int = 60,
        max_iterations: int = 25,
    ) -> dict:
        """Per-class best SAX parameters via DIRECT (§4.2).

        One DIRECT run per class; the shared cache means a triple
        visited while optimizing class A is free for class B. Each
        DIRECT iteration hands its full batch of candidate points to
        :meth:`evaluate_batch`, which fans distinct uncached triples
        over the attached thread executor — the search trajectory is
        identical to the serial path (see :func:`direct_minimize`).
        """
        bounds = [
            (float(self.ranges.window[0]), float(self.ranges.window[1])),
            (float(self.ranges.paa[0]), float(self.ranges.paa[1])),
            (float(self.ranges.alphabet[0]), float(self.ranges.alphabet[1])),
        ]
        best: dict = {}
        with self.tracer.span("direct") as span, self.tracer.adopt(span):
            for label in self.classes_:

                def objective(x: np.ndarray, _label=label) -> float:
                    w, p, a = (int(round(v)) for v in x)
                    evaluation = self.evaluate(w, p, a)
                    if evaluation.pruned:
                        return PRUNED_VALUE
                    return 1.0 - evaluation.f1_by_class.get(_label, 0.0)

                def batch_objective(points, _label=label) -> list[float]:
                    return [
                        PRUNED_VALUE
                        if evaluation.pruned
                        else 1.0 - evaluation.f1_by_class.get(_label, 0.0)
                        for evaluation in self.evaluate_batch(points)
                    ]

                result = direct_minimize(
                    objective,
                    bounds,
                    max_evaluations=max_evaluations,
                    max_iterations=max_iterations,
                    batch_evaluate=batch_objective,
                )
                key = self.ranges.clip(*(int(round(v)) for v in result.x))
                best[label] = SaxParams(*self._best_key_for(label, fallback=key))
            span.add("direct.evaluations", self.n_evaluations)
        return best

    def select_grid(self, axes: list[list[int]] | None = None) -> dict:
        """Per-class best SAX parameters via exhaustive grid (§4.1)."""
        axes = axes or self.ranges.grid_axes()

        def objective(key: tuple[int, ...]) -> float:
            evaluation = self.evaluate(*key)
            if evaluation.pruned:
                return PRUNED_VALUE
            # Grid minimizes the mean error; per-class readout follows.
            values = list(evaluation.f1_by_class.values())
            return 1.0 - float(np.mean(values))

        with self.tracer.span("grid") as span:
            grid_search(objective, axes)
            span.add("direct.evaluations", self.n_evaluations)
        return {
            label: SaxParams(*self._best_key_for(label, fallback=None))
            for label in self.classes_
        }

    def _best_key_for(self, label, fallback) -> tuple[int, int, int]:
        """The cached triple with the highest F1 for *label*.

        Reads the running best maintained by :meth:`_record` — an O(1)
        lookup with the same semantics as scanning the whole cache in
        insertion order with strict improvement (ties keep the earliest
        triple).
        """
        current = self._best.get(label)
        best_key = current[1] if current is not None else None
        if best_key is None:
            best_key = fallback or self.ranges.clip(
                (self.ranges.window[0] + self.ranges.window[1]) // 2, 6, 5
            )
        return best_key
