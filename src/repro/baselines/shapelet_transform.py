"""Shapelet Transform baseline (Hills et al. / Lines et al., 2012-2014).

§2.2 of the paper: "The Shapelet Transform technique finds the best
K-shapelets and transforms the original time series into a vector of K
features, each of which represents the distance between a time series
and a shapelet. This technique can thus be used with virtually any
classification algorithm."

This is the closest structural relative of RPM's own transform — the
difference the paper emphasizes is *how the patterns are found*
(exhaustive IG-scored candidates here vs. grammar-induced class motifs
in RPM). Implementation:

* candidate subsequences sampled on a stride over several lengths;
* each scored by the information gain of its best distance split;
* top-K kept with self-similarity pruning (no two from overlapping
  positions of the same series);
* the distance transform feeds a pluggable classifier (default: our
  RBF SVM), exactly like RPM's stage 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import BaseEstimator
from ..distance.best_match import batch_best_distances
from ..ml.svm import SVC
from ..sax.znorm import znorm, znorm_rows
from .fast_shapelets import _best_split

__all__ = ["ShapeletTransformClassifier", "Shapelet"]


@dataclass(frozen=True)
class Shapelet:
    """A scored shapelet: values plus provenance for pruning/reporting."""

    values: np.ndarray
    gain: float
    source_series: int
    position: int

    @property
    def length(self) -> int:
        """Number of points."""
        return int(self.values.size)


class ShapeletTransformClassifier(BaseEstimator):
    """K-shapelet transform + classifier.

    Parameters
    ----------
    n_shapelets:
        Number of features (K) kept for the transform.
    length_fractions:
        Candidate lengths as fractions of the series length.
    stride_fraction:
        Sampling stride for candidate start positions.
    classifier_factory:
        Downstream classifier (default RBF SVM).
    """

    def __init__(
        self,
        *,
        n_shapelets: int = 10,
        length_fractions: tuple[float, ...] = (0.1, 0.2, 0.3),
        stride_fraction: float = 0.1,
        classifier_factory=None,
        seed: int = 0,
    ) -> None:
        self.n_shapelets = n_shapelets
        self.length_fractions = length_fractions
        self.stride_fraction = stride_fraction
        self.classifier_factory = classifier_factory or (lambda: SVC(kernel="rbf", C=1.0))
        self.seed = seed
        self.shapelets_: list[Shapelet] = []
        self.classifier_ = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ShapeletTransformClassifier":
        """Fit the model on training series ``X`` with labels ``y``."""
        X = znorm_rows(np.asarray(X, dtype=float))
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of instances")
        n, m = X.shape
        stride = max(1, int(self.stride_fraction * m))

        scored: list[Shapelet] = []
        for fraction in self.length_fractions:
            length = max(4, int(round(fraction * m)))
            if length >= m:
                continue
            for i in range(n):
                for start in range(0, m - length + 1, stride):
                    candidate = znorm(X[i, start : start + length])
                    distances = batch_best_distances(candidate, X)
                    gain, _ = _best_split(y, distances)
                    scored.append(
                        Shapelet(
                            values=candidate,
                            gain=gain,
                            source_series=i,
                            position=start,
                        )
                    )
        scored.sort(key=lambda s: s.gain, reverse=True)

        # Self-similarity pruning: skip candidates overlapping an
        # already-kept shapelet from the same series.
        kept: list[Shapelet] = []
        for shapelet in scored:
            overlaps = any(
                k.source_series == shapelet.source_series
                and abs(k.position - shapelet.position) < min(k.length, shapelet.length)
                for k in kept
            )
            if overlaps:
                continue
            kept.append(shapelet)
            if len(kept) == self.n_shapelets:
                break
        if not kept:  # degenerate (e.g. single-class input)
            kept = scored[:1] if scored else [
                Shapelet(values=znorm(X[0, : max(4, m // 4)]), gain=0.0,
                         source_series=0, position=0)
            ]
        self.shapelets_ = kept

        features = self.transform(X, already_znormed=True)
        self.classifier_ = self.classifier_factory()
        if np.unique(y).size >= 2:
            self.classifier_.fit(features, y)
        else:
            self.classifier_ = _ConstantClassifier(y[0])
        return self

    def transform(self, X: np.ndarray, *, already_znormed: bool = False) -> np.ndarray:
        """K shapelet distances per series (the 'shapelet transform')."""
        if not self.shapelets_:
            raise RuntimeError("classifier used before fit()")
        X = np.asarray(X, dtype=float)
        if not already_znormed:
            X = znorm_rows(X)
        return np.column_stack(
            [batch_best_distances(s.values, X) for s in self.shapelets_]
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for every row of ``X``."""
        if self.classifier_ is None:
            raise RuntimeError("classifier used before fit()")
        return self.classifier_.predict(self.transform(X))


class _ConstantClassifier:
    def __init__(self, label) -> None:
        self._label = label

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for every row of ``X``."""
        return np.full(np.asarray(X).shape[0], self._label)
