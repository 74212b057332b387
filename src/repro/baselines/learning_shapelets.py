"""Learning Shapelets baseline (Grabocka et al., KDD 2014).

The most accurate rival in the paper's Table 1 (and the slowest in
Table 2). Instead of searching candidate subsequences, LS treats the
shapelets themselves as model parameters: the distance of series *i*
to shapelet *k* is pooled over all alignments with a differentiable
soft-minimum, a linear one-vs-all logistic layer sits on top, and
shapelets + weights are learned jointly by gradient descent.

Faithful ingredients kept here: multiple shapelet scales, k-means
segment initialization, soft-min pooling with sharpness ``alpha``,
one-vs-all logistic loss with L2 regularization, full-batch Adagrad,
and — in :class:`TunedLearningShapelets` — the published protocol's
cross-validated hyperparameter grid (the grid search is what makes LS
by far the slowest method in the paper's Table 2).
"""

from __future__ import annotations

import itertools

import numpy as np

from ..base import BaseEstimator
from ..ml.crossval import stratified_kfold
from ..sax.znorm import znorm_rows

__all__ = ["LearningShapeletsClassifier", "TunedLearningShapelets"]


def _segment_windows(X: np.ndarray, length: int) -> np.ndarray:
    """(n, J, L) tensor of all sliding windows of every series."""
    return np.lib.stride_tricks.sliding_window_view(X, length, axis=1)


def _kmeans_segments(
    segments: np.ndarray, k: int, rng: np.random.Generator, iterations: int = 10
) -> np.ndarray:
    """Lightweight Lloyd's k-means used to initialize shapelets."""
    n = segments.shape[0]
    k = min(k, n)
    centers = segments[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(iterations):
        d2 = (
            np.sum(segments**2, axis=1)[:, None]
            + np.sum(centers**2, axis=1)[None, :]
            - 2.0 * segments @ centers.T
        )
        assign = np.argmin(d2, axis=1)
        for c in range(k):
            members = segments[assign == c]
            if members.size:
                centers[c] = members.mean(axis=0)
    return centers


class LearningShapeletsClassifier(BaseEstimator):
    """Jointly learned shapelets + linear classifier.

    Parameters
    ----------
    n_shapelets:
        Shapelets per scale (K).
    length_fraction:
        Base shapelet length L as a fraction of the series length.
    n_scales:
        Scales r = 1..R use length r·L.
    alpha:
        Soft-min sharpness (negative; -30 approximates the hard min
        well on z-normalized data).
    l2:
        Weight regularization λ.
    epochs / learning_rate:
        Full-batch Adagrad schedule.
    """

    def __init__(
        self,
        *,
        n_shapelets: int = 8,
        length_fraction: float = 0.15,
        n_scales: int = 2,
        alpha: float = -30.0,
        l2: float = 0.01,
        epochs: int = 400,
        learning_rate: float = 0.5,
        seed: int = 0,
    ) -> None:
        if alpha >= 0:
            raise ValueError("alpha must be negative (soft-min)")
        self.n_shapelets = n_shapelets
        self.length_fraction = length_fraction
        self.n_scales = n_scales
        self.alpha = alpha
        self.l2 = l2
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed
        self.shapelets_: list[np.ndarray] = []  # one (K, L_r) block per scale
        self.W_: np.ndarray | None = None
        self.b_: np.ndarray | None = None
        self.classes_: np.ndarray | None = None
        self.loss_history_: list[float] = []

    # -- internals -------------------------------------------------------------

    def _scale_lengths(self, m: int) -> list[int]:
        base = max(4, int(round(self.length_fraction * m)))
        lengths = []
        for r in range(1, self.n_scales + 1):
            length = r * base
            if length < m:
                lengths.append(length)
        return lengths or [max(4, m // 2)]

    def _soft_min(self, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Soft-minimum over the alignment axis.

        ``D`` is (n, K, J); returns ``(M, P)`` with ``M`` the (n, K)
        pooled distances and ``P`` the (n, K, J) softmax weights
        ``e^{αD} / Σ e^{αD}`` needed for the backward pass.
        """
        z = self.alpha * D
        z -= z.max(axis=2, keepdims=True)
        e = np.exp(z)
        P = e / e.sum(axis=2, keepdims=True)
        M = np.sum(P * D, axis=2)
        return M, P

    def _distances(self, windows: np.ndarray, S: np.ndarray) -> np.ndarray:
        """Mean squared distance of every shapelet to every window.

        ``windows`` is (n, J, L), ``S`` is (K, L); returns (n, K, J).
        """
        n, J, L = windows.shape
        flat = windows.reshape(n * J, L)
        cross = flat @ S.T  # (nJ, K)
        w2 = np.sum(flat * flat, axis=1)[:, None]
        s2 = np.sum(S * S, axis=1)[None, :]
        D = (w2 - 2.0 * cross + s2) / L
        return np.maximum(D, 0.0).reshape(n, J, S.shape[0]).transpose(0, 2, 1)

    # -- training ---------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LearningShapeletsClassifier":
        """Fit the model on training series ``X`` with labels ``y``."""
        X = znorm_rows(np.asarray(X, dtype=float))
        y = np.asarray(y)
        n, m = X.shape
        rng = np.random.default_rng(self.seed)
        self.classes_ = np.unique(y)
        C = self.classes_.size
        Y = (y[:, None] == self.classes_[None, :]).astype(float)

        lengths = self._scale_lengths(m)
        windows = [_segment_windows(X, L) for L in lengths]
        self.shapelets_ = []
        for L, win in zip(lengths, windows):
            segments = win.reshape(-1, L)
            sample = segments[rng.choice(segments.shape[0], size=min(2000, segments.shape[0]), replace=False)]
            self.shapelets_.append(_kmeans_segments(sample, self.n_shapelets, rng))

        K_total = sum(s.shape[0] for s in self.shapelets_)
        W = rng.normal(0.0, 0.01, size=(K_total, C))
        b = np.zeros(C)
        gW = np.zeros_like(W)
        gb = np.zeros_like(b)
        gS = [np.zeros_like(s) for s in self.shapelets_]
        eps = 1e-8
        lr = self.learning_rate
        self.loss_history_ = []

        for _ in range(self.epochs):
            Ms, Ps, Ds = [], [], []
            for S, win in zip(self.shapelets_, windows):
                D = self._distances(win, S)
                M, P = self._soft_min(D)
                Ms.append(M)
                Ps.append(P)
                Ds.append(D)
            M_all = np.concatenate(Ms, axis=1)  # (n, K_total)

            logits = M_all @ W + b
            probs = 1.0 / (1.0 + np.exp(-logits))
            loss = float(
                -np.mean(Y * np.log(probs + eps) + (1 - Y) * np.log(1 - probs + eps))
                + self.l2 * np.sum(W * W)
            )
            self.loss_history_.append(loss)

            G = (probs - Y) / n  # (n, C)
            dW = M_all.T @ G + 2.0 * self.l2 * W
            db = G.sum(axis=0)
            dM_all = G @ W.T  # (n, K_total)

            offset = 0
            for idx, (S, win, M, P, D) in enumerate(
                zip(self.shapelets_, windows, Ms, Ps, Ds)
            ):
                K, L = S.shape
                dM = dM_all[:, offset : offset + K]  # (n, K)
                offset += K
                # dM/dD via the soft-min quotient rule:
                # ∂M/∂D_j = P_j · (1 + α·(D_j − M)).
                T = dM[:, :, None] * P * (1.0 + self.alpha * (D - M[:, :, None]))
                # dD/dS: 2/L · (S_l − X_{j+l}); assemble with one matmul.
                t_sum = T.sum(axis=(0, 2))  # (K,)
                nwin, J, _ = win.shape
                flat = win.reshape(nwin * J, L)
                TX = T.transpose(1, 0, 2).reshape(K, nwin * J) @ flat  # (K, L)
                dS = (2.0 / L) * (t_sum[:, None] * S - TX)
                gS[idx] += dS * dS
                self.shapelets_[idx] = S - lr * dS / (np.sqrt(gS[idx]) + eps)

            gW += dW * dW
            gb += db * db
            W -= lr * dW / (np.sqrt(gW) + eps)
            b -= lr * db / (np.sqrt(gb) + eps)

        self.W_ = W
        self.b_ = b
        self._lengths = lengths
        return self

    # -- prediction ---------------------------------------------------------------

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Soft-min shapelet distances (n, K_total) for new series."""
        if self.W_ is None:
            raise RuntimeError("classifier used before fit()")
        X = znorm_rows(np.asarray(X, dtype=float))
        Ms = []
        for S, L in zip(self.shapelets_, self._lengths):
            win = _segment_windows(X, L)
            D = self._distances(win, S)
            M, _ = self._soft_min(D)
            Ms.append(M)
        return np.concatenate(Ms, axis=1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for every row of ``X``."""
        M = self.transform(X)
        logits = M @ self.W_ + self.b_
        assert self.classes_ is not None
        return self.classes_[np.argmax(logits, axis=1)]


#: The hyperparameter grid cross-validated by the published protocol
#: (Grabocka et al. search K, the length scale and λ the same way).
DEFAULT_LS_GRID = {
    "n_shapelets": (4, 8),
    "length_fraction": (0.1, 0.2),
    "l2": (0.01, 0.1),
}


class TunedLearningShapelets(BaseEstimator):
    """Learning Shapelets with the published cross-validated grid search.

    Every grid point trains a full model per CV fold, so the cost is
    ``|grid| × folds + 1`` gradient-descent runs — the reason LS is the
    slowest entry of the paper's Table 2 by orders of magnitude.
    """

    def __init__(
        self,
        *,
        grid: dict | None = None,
        cv_folds: int = 3,
        epochs: int = 600,
        seed: int = 0,
    ) -> None:
        self.grid = grid or DEFAULT_LS_GRID
        self.cv_folds = cv_folds
        self.epochs = epochs
        self.seed = seed
        self.best_params_: dict | None = None
        self.model_: LearningShapeletsClassifier | None = None
        self.cv_errors_: dict[tuple, float] = {}

    def _configurations(self):
        keys = sorted(self.grid)
        for combo in itertools.product(*(self.grid[k] for k in keys)):
            yield dict(zip(keys, combo))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "TunedLearningShapelets":
        """Fit the model on training series ``X`` with labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        best_error = np.inf
        best_config: dict = {}
        for config in self._configurations():
            errors = []
            folds = min(self.cv_folds, int(np.unique(y, return_counts=True)[1].min()), 5)
            folds = max(folds, 2)
            try:
                splits = list(stratified_kfold(y, folds, seed=self.seed))
            except ValueError:
                splits = []
            for train_idx, test_idx in splits:
                if np.unique(y[train_idx]).size < 2:
                    continue
                model = LearningShapeletsClassifier(
                    epochs=self.epochs, seed=self.seed, **config
                )
                model.fit(X[train_idx], y[train_idx])
                preds = model.predict(X[test_idx])
                errors.append(float(np.mean(preds != y[test_idx])))
            error = float(np.mean(errors)) if errors else 1.0
            self.cv_errors_[tuple(sorted(config.items()))] = error
            if error < best_error:
                best_error = error
                best_config = config
        self.best_params_ = best_config
        self.model_ = LearningShapeletsClassifier(
            epochs=self.epochs, seed=self.seed, **best_config
        )
        self.model_.fit(X, y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for every row of ``X``."""
        if self.model_ is None:
            raise RuntimeError("classifier used before fit()")
        return self.model_.predict(X)
