"""Logical Shapelets baseline (Mueen, Keogh & Young, KDD 2011).

§2.2 of the paper: "The Logical Shapelets extends the original work by
improving the efficiency and introducing an augmented, more expressive
shapelet representation based on conjunctions or disjunctions of
shapelets."

This implementation keeps the expressive core: a decision-tree node may
test a *logical combination* of up to two shapelets —

* ``d(S1) ≤ t1``                       (plain shapelet),
* ``d(S1) ≤ t1  AND  d(S2) ≤ t2``      (conjunction),
* ``d(S1) ≤ t1  OR   d(S2) ≤ t2``      (disjunction) —

choosing whichever maximizes information gain. Candidates come from the
same stride-sampled pool as our Shapelet Transform; the second shapelet
of a combination is greedily picked to improve the first's split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import BaseEstimator
from ..distance.best_match import batch_best_distances
from ..sax.znorm import znorm, znorm_rows
from .fast_shapelets import _best_split, information_gain

__all__ = ["LogicalShapeletsClassifier", "LogicalNode"]


@dataclass
class LogicalNode:
    """One tree node: a 1- or 2-shapelet logical predicate, or a leaf."""

    label: object = None
    op: str | None = None  # None (single), 'and', 'or'
    shapelet_a: np.ndarray | None = None
    threshold_a: float = 0.0
    shapelet_b: np.ndarray | None = None
    threshold_b: float = 0.0
    left: "LogicalNode | None" = None  # predicate true
    right: "LogicalNode | None" = None

    @property
    def is_leaf(self) -> bool:
        """True when this node carries a label, not a split."""
        return self.shapelet_a is None

    def evaluate(self, series: np.ndarray) -> bool:
        """Evaluate the node's logical predicate on one series."""
        from ..distance.best_match import best_match

        a = best_match(self.shapelet_a, series).distance <= self.threshold_a
        if self.op is None:
            return bool(a)
        b = best_match(self.shapelet_b, series).distance <= self.threshold_b
        return bool(a and b) if self.op == "and" else bool(a or b)


class LogicalShapeletsClassifier(BaseEstimator):
    """Decision tree over logical combinations of shapelets.

    Parameters mirror :class:`ShapeletTransformClassifier`; ``top_k``
    bounds how many base shapelets are considered for combination at
    each node (combination search is quadratic in it).
    """

    def __init__(
        self,
        *,
        length_fractions: tuple[float, ...] = (0.15, 0.3),
        stride_fraction: float = 0.15,
        top_k: int = 5,
        max_depth: int = 6,
        min_leaf: int = 2,
        seed: int = 0,
    ) -> None:
        self.length_fractions = length_fractions
        self.stride_fraction = stride_fraction
        self.top_k = top_k
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.seed = seed
        self.root_: LogicalNode | None = None
        self.n_logical_nodes_: int = 0

    # -- fitting ------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogicalShapeletsClassifier":
        """Fit the model on training series ``X`` with labels ``y``."""
        X = znorm_rows(np.asarray(X, dtype=float))
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of instances")
        self.n_logical_nodes_ = 0
        self.root_ = self._build(X, y, depth=0)
        return self

    def _candidates(self, X: np.ndarray) -> list[np.ndarray]:
        n, m = X.shape
        stride = max(1, int(self.stride_fraction * m))
        out = []
        for fraction in self.length_fractions:
            length = max(4, int(round(fraction * m)))
            if length >= m:
                continue
            for i in range(n):
                for start in range(0, m - length + 1, stride):
                    out.append(znorm(X[i, start : start + length]))
        return out

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> LogicalNode:
        labels, counts = np.unique(y, return_counts=True)
        majority = labels[int(np.argmax(counts))]
        if labels.size == 1 or depth >= self.max_depth or y.size <= self.min_leaf:
            return LogicalNode(label=majority)

        candidates = self._candidates(X)
        if not candidates:
            return LogicalNode(label=majority)
        scored = []
        for candidate in candidates:
            distances = batch_best_distances(candidate, X)
            gain, threshold = _best_split(y, distances)
            scored.append((gain, candidate, threshold, distances))
        scored.sort(key=lambda item: item[0], reverse=True)
        top = scored[: self.top_k]
        best_gain, best_s, best_t, best_d = top[0]
        node = LogicalNode(
            shapelet_a=best_s, threshold_a=best_t, op=None
        )
        best_mask = best_d <= best_t

        # Try augmenting the best single split with a second shapelet.
        for gain_b, s_b, t_b, d_b in top[1:]:
            for op in ("and", "or"):
                mask = (
                    best_mask & (d_b <= t_b) if op == "and" else best_mask | (d_b <= t_b)
                )
                if mask.all() or (~mask).all():
                    continue
                gain = information_gain(y, (~mask).astype(float), 0.5)
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    node = LogicalNode(
                        shapelet_a=best_s,
                        threshold_a=best_t,
                        shapelet_b=s_b,
                        threshold_b=t_b,
                        op=op,
                    )
                    best_mask = mask

        if best_gain <= 0.0 or best_mask.all() or (~best_mask).all():
            return LogicalNode(label=majority)
        if node.op is not None:
            self.n_logical_nodes_ += 1
        node.left = self._build(X[best_mask], y[best_mask], depth + 1)
        node.right = self._build(X[~best_mask], y[~best_mask], depth + 1)
        return node

    # -- prediction ------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for every row of ``X``."""
        if self.root_ is None:
            raise RuntimeError("classifier used before fit()")
        X = znorm_rows(np.asarray(X, dtype=float))
        out = []
        for series in X:
            node = self.root_
            while not node.is_leaf:
                node = node.left if node.evaluate(series) else node.right
            out.append(node.label)
        return np.asarray(out)
