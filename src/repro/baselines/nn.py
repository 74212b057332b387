"""Nearest-neighbour baselines: 1NN-ED and 1NN-DTW with best window.

These are the two global-distance rivals of the paper's evaluation
(columns *NN-ED* and *NN-DTWB* in Table 1). NN-DTWB selects its
Sakoe-Chiba warping window by leave-one-out cross-validation on the
training set — the classic Ratanamahatana & Keogh recipe — and speeds
up both the selection and prediction with the LB_Keogh lower bound and
early-abandoning DTW.

Series are z-normalized before distance computation, matching the UCR
evaluation protocol.
"""

from __future__ import annotations

import numpy as np

from ..base import BaseEstimator
from ..distance.dtw import dtw_distance, envelope, lb_keogh
from ..sax.znorm import znorm_rows

__all__ = ["NearestNeighborED", "NearestNeighborDTW", "DEFAULT_WINDOW_FRACTIONS"]

#: Candidate warping windows, as fractions of the series length. UCR's
#: published best windows are almost always below 20 %.
DEFAULT_WINDOW_FRACTIONS: tuple[float, ...] = (
    0.0,
    0.01,
    0.02,
    0.03,
    0.04,
    0.05,
    0.06,
    0.08,
    0.10,
    0.15,
    0.20,
)


class NearestNeighborED(BaseEstimator):
    """1-NN with Euclidean distance on z-normalized series."""

    def __init__(self) -> None:
        self.X_: np.ndarray | None = None
        self.y_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NearestNeighborED":
        """Fit the model on training series ``X`` with labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, m) with matching y")
        self.X_ = znorm_rows(X)
        self.y_ = y
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict by the nearest training neighbour."""
        if self.X_ is None or self.y_ is None:
            raise RuntimeError("classifier used before fit()")
        Q = znorm_rows(np.asarray(X, dtype=float))
        d2 = _squared_cross_distances(Q, self.X_)
        return self.y_[np.argmin(d2, axis=1)]


def _squared_cross_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    d2 = a2 + b2 - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


class NearestNeighborDTW(BaseEstimator):
    """1-NN DTW with the warping window learned on the training set.

    Parameters
    ----------
    window_fractions:
        Candidate Sakoe-Chiba half-widths as fractions of the series
        length. ``None`` skips selection and uses ``fixed_window``.
    fixed_window:
        Window (in samples) to use without selection.
    """

    def __init__(
        self,
        *,
        window_fractions: tuple[float, ...] | None = DEFAULT_WINDOW_FRACTIONS,
        fixed_window: int | None = None,
    ) -> None:
        self.window_fractions = window_fractions
        self.fixed_window = fixed_window
        self.X_: np.ndarray | None = None
        self.y_: np.ndarray | None = None
        self.best_window_: int | None = None
        self.loocv_accuracy_: dict[int, float] = {}

    # -- training ---------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NearestNeighborDTW":
        """Fit the model on training series ``X`` with labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, m) with matching y")
        self.X_ = znorm_rows(X)
        self.y_ = y
        if self.window_fractions is None:
            if self.fixed_window is None:
                raise ValueError("provide window_fractions or fixed_window")
            self.best_window_ = int(self.fixed_window)
            return self
        m = X.shape[1]
        candidates = sorted({int(round(f * m)) for f in self.window_fractions})
        best_window = candidates[0]
        best_acc = -1.0
        for window in candidates:
            acc = self._loocv_accuracy(window)
            self.loocv_accuracy_[window] = acc
            if acc > best_acc + 1e-12:
                best_acc = acc
                best_window = window
        self.best_window_ = best_window
        return self

    def _loocv_accuracy(self, window: int) -> float:
        assert self.X_ is not None and self.y_ is not None
        n = self.X_.shape[0]
        correct = 0
        d2 = _squared_cross_distances(self.X_, self.X_)
        np.fill_diagonal(d2, np.inf)
        envelopes = [envelope(self.X_[i], window) for i in range(n)] if window > 0 else None
        for i in range(n):
            label = self._nearest_label(
                self.X_[i],
                window,
                exclude=i,
                ed_order=np.argsort(d2[i]),
                query_envelope=envelopes[i] if envelopes else None,
            )
            if label == self.y_[i]:
                correct += 1
        return correct / n

    # -- prediction --------------------------------------------------------

    def _nearest_label(
        self,
        query: np.ndarray,
        window: int,
        *,
        exclude: int | None = None,
        ed_order: np.ndarray | None = None,
        query_envelope: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        assert self.X_ is not None and self.y_ is not None
        n = self.X_.shape[0]
        order = ed_order if ed_order is not None else np.arange(n)
        if window > 0 and query_envelope is None:
            query_envelope = envelope(query, window)
        best = np.inf
        best_idx = -1
        for j in order:
            if j == exclude:
                continue
            if window > 0:
                assert query_envelope is not None
                lb = lb_keogh(self.X_[j], *query_envelope)
                if lb >= best:
                    continue
            dist = dtw_distance(query, self.X_[j], window, cutoff=best if np.isfinite(best) else None)
            if dist < best:
                best = dist
                best_idx = int(j)
        return self.y_[best_idx]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict by the nearest training neighbour."""
        if self.X_ is None or self.y_ is None or self.best_window_ is None:
            raise RuntimeError("classifier used before fit()")
        Q = znorm_rows(np.asarray(X, dtype=float))
        window = self.best_window_
        d2 = _squared_cross_distances(Q, self.X_)
        out = np.empty(Q.shape[0], dtype=self.y_.dtype)
        for i in range(Q.shape[0]):
            out[i] = self._nearest_label(Q[i], window, ed_order=np.argsort(d2[i]))
        return out
