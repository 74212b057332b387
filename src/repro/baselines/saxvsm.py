"""SAX-VSM baseline (Senin & Malinchik, ICDM 2013).

The paper's closest rival in spirit: every training series is broken
into SAX words (sliding window + numerosity reduction), the words of
each class form one *bag*, bags are weighted with tf·idf, and a test
series is labelled by cosine similarity between its own term-frequency
vector and the class weight vectors.

Differences from RPM that the paper calls out (§2.2): SAX-VSM patterns
all share the sliding-window length, and no pruning is applied — the
class vectors keep every word.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..base import BaseEstimator
from ..opt.direct import direct_minimize
from ..sax.discretize import SaxParams, discretize
from ..ml.crossval import stratified_kfold
from ..ml.metrics import accuracy

__all__ = ["SaxVsmClassifier"]


def _series_bag(series: np.ndarray, params: SaxParams) -> Counter:
    record = discretize(np.asarray(series, dtype=float), params)
    return Counter(record.words)


class SaxVsmClassifier(BaseEstimator):
    """tf·idf bag-of-SAX-words classifier.

    Parameters
    ----------
    params:
        SAX parameters to use. When ``None``, ``fit`` selects them with
        a small DIRECT search over cross-validated accuracy — the same
        treatment the original SAX-VSM paper applies.
    direct_budget:
        Maximum objective evaluations for the parameter search.
    """

    def __init__(
        self,
        *,
        params: SaxParams | None = None,
        direct_budget: int = 40,
        cv_folds: int = 3,
        seed: int = 0,
    ) -> None:
        self.params = params
        self.direct_budget = direct_budget
        self.cv_folds = cv_folds
        self.seed = seed
        self.classes_: np.ndarray | None = None
        self.weights_: dict = {}
        self.vocabulary_: list[str] = []

    # -- model building ------------------------------------------------------

    def _build_weights(self, X: np.ndarray, y: np.ndarray, params: SaxParams) -> tuple:
        classes = np.unique(y)
        bags = {label: Counter() for label in classes}
        for series, label in zip(X, y):
            bags[label].update(_series_bag(series, params))
        vocabulary = sorted(set().union(*[set(b) for b in bags.values()]))
        index = {word: i for i, word in enumerate(vocabulary)}
        n_classes = classes.size
        tf = np.zeros((n_classes, len(vocabulary)))
        for c, label in enumerate(classes):
            for word, count in bags[label].items():
                tf[c, index[word]] = 1.0 + np.log(count)
        df = (tf > 0).sum(axis=0)
        idf = np.log(n_classes / np.maximum(df, 1))
        weights = tf * idf[None, :]
        return classes, vocabulary, index, weights

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SaxVsmClassifier":
        """Fit the model on training series ``X`` with labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        params = self.params
        if params is None:
            params = self._select_params(X, y)
        self.params = params
        self.classes_, self.vocabulary_, self._index, self.weights_ = self._build_weights(
            X, y, params
        )
        return self

    # -- parameter selection ---------------------------------------------------

    def _select_params(self, X: np.ndarray, y: np.ndarray) -> SaxParams:
        m = X.shape[1]
        lo_w = max(8, int(0.08 * m))
        hi_w = max(lo_w + 2, int(0.6 * m))

        def params_at(point) -> SaxParams:
            window, paa, alpha = (int(round(v)) for v in point)
            window = int(np.clip(window, 4, m))
            paa = int(np.clip(paa, 2, min(window, 16)))
            alpha = int(np.clip(alpha, 3, 12))
            return SaxParams(window, paa, alpha)

        def cv_error(params: SaxParams) -> float:
            errors = []
            for train_idx, test_idx in stratified_kfold(y, self.cv_folds, seed=self.seed):
                try:
                    classes, vocab, index, weights = self._build_weights(
                        X[train_idx], y[train_idx], params
                    )
                except ValueError:
                    return 1.0
                preds = self._predict_with(X[test_idx], params, classes, index, weights)
                errors.append(1.0 - accuracy(y[test_idx], preds))
            return float(np.mean(errors))

        # DIRECT's points round onto few integer triples: score each once.
        scores: dict[SaxParams, float] = {}

        def objective(points) -> list[float]:
            values = []
            for params in map(params_at, points):
                if params not in scores:
                    scores[params] = cv_error(params)
                values.append(scores[params])
            return values

        result = direct_minimize(
            objective,
            bounds=[(lo_w, hi_w), (2, 16), (3, 12)],
            max_evaluations=self.direct_budget,
            max_iterations=30,
        )
        return params_at(result.x)

    # -- prediction --------------------------------------------------------------

    def _predict_with(self, X, params, classes, index, weights) -> np.ndarray:
        norms = np.linalg.norm(weights, axis=1)
        norms[norms < 1e-12] = 1.0
        out = []
        for series in np.asarray(X, dtype=float):
            bag = _series_bag(series, params)
            vec = np.zeros(weights.shape[1])
            for word, count in bag.items():
                pos = index.get(word)
                if pos is not None:
                    vec[pos] = count
            vnorm = np.linalg.norm(vec)
            if vnorm < 1e-12:
                out.append(classes[0])
                continue
            cosine = (weights @ vec) / (norms * vnorm)
            out.append(classes[int(np.argmax(cosine))])
        return np.asarray(out)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for every row of ``X``."""
        if self.classes_ is None:
            raise RuntimeError("classifier used before fit()")
        return self._predict_with(X, self.params, self.classes_, self._index, self.weights_)
