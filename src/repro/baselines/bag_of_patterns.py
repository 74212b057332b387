"""Bag-of-Patterns baseline (Lin, Khade & Li, 2012).

The structure-based classifier that preceded SAX-VSM: every series
becomes a histogram over its SAX words (sliding window + numerosity
reduction) and classification is nearest-neighbour between histograms.
Included as the simplest member of the SAX-word family the paper's
related work (§2.2, [21]) situates RPM in — useful as an ablation
anchor: RPM ≥ SAX-VSM ≥ BOP on data whose signal is localized.
"""

from __future__ import annotations

import numpy as np

from ..base import BaseEstimator
from ..sax.discretize import SaxParams, discretize

__all__ = ["BagOfPatternsClassifier"]


class BagOfPatternsClassifier(BaseEstimator):
    """1-NN over SAX-word histograms.

    Parameters
    ----------
    params:
        SAX parameters for the word extraction (required,
        keyword-only).
    metric:
        ``'euclidean'`` on raw counts or ``'cosine'`` similarity.
    """

    def __init__(self, *, params: SaxParams, metric: str = "euclidean") -> None:
        if metric not in ("euclidean", "cosine"):
            raise ValueError(f"metric must be euclidean or cosine, got {metric!r}")
        self.params = params
        self.metric = metric
        self.vocabulary_: dict[str, int] = {}
        self.train_histograms_: np.ndarray | None = None
        self.y_: np.ndarray | None = None

    def _bag(self, series: np.ndarray) -> dict[str, int]:
        record = discretize(np.asarray(series, dtype=float), self.params)
        bag: dict[str, int] = {}
        for word in record.words:
            bag[word] = bag.get(word, 0) + 1
        return bag

    def _vectorize(self, bags: list[dict[str, int]]) -> np.ndarray:
        out = np.zeros((len(bags), len(self.vocabulary_)))
        for i, bag in enumerate(bags):
            for word, count in bag.items():
                j = self.vocabulary_.get(word)
                if j is not None:
                    out[i, j] = count
        return out

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BagOfPatternsClassifier":
        """Fit the model on training series ``X`` with labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of instances")
        bags = [self._bag(row) for row in X]
        vocabulary = sorted({word for bag in bags for word in bag})
        self.vocabulary_ = {word: i for i, word in enumerate(vocabulary)}
        self.train_histograms_ = self._vectorize(bags)
        self.y_ = y
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Histogram representation of new series over the train vocabulary."""
        if self.train_histograms_ is None:
            raise RuntimeError("classifier used before fit()")
        return self._vectorize([self._bag(row) for row in np.asarray(X, dtype=float)])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for every row of ``X``."""
        if self.train_histograms_ is None or self.y_ is None:
            raise RuntimeError("classifier used before fit()")
        queries = self.transform(X)
        train = self.train_histograms_
        if self.metric == "euclidean":
            d2 = (
                np.sum(queries**2, axis=1)[:, None]
                + np.sum(train**2, axis=1)[None, :]
                - 2.0 * queries @ train.T
            )
            nearest = np.argmin(d2, axis=1)
        else:
            qn = np.linalg.norm(queries, axis=1, keepdims=True)
            tn = np.linalg.norm(train, axis=1, keepdims=True)
            qn[qn < 1e-12] = 1.0
            tn[tn < 1e-12] = 1.0
            similarity = (queries / qn) @ (train / tn).T
            nearest = np.argmax(similarity, axis=1)
        return self.y_[nearest]
