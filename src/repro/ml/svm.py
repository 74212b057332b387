"""Support vector machine trained with SMO (maximal-violating-pair).

The paper classifies the pattern-distance feature vectors with an SVM
(§3.1). No external ML library is available here, so this module
implements a soft-margin kernel SVM from scratch:

* the dual problem is solved by sequential minimal optimization with
  LIBSVM's first-order working-set selection (maximal violating pair);
* linear and RBF kernels;
* multi-class via one-vs-rest on the decision values;
* a :class:`StandardScaler` companion, since pattern distances live on
  very different scales across patterns.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StandardScaler", "BinarySVM", "SVC"]


class StandardScaler:
    """Per-feature standardization to zero mean / unit variance."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        """Fit the model on training series ``X`` with labels ``y``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"expected 2-D data, got shape {X.shape}")
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale < 1e-12] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler used before fit()")
        return (np.asarray(X, dtype=float) - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit on ``X`` and return the transformed copy."""
        return self.fit(X).transform(X)


def _kernel_matrix(
    A: np.ndarray, B: np.ndarray, kernel: str, gamma: float
) -> np.ndarray:
    if kernel == "linear":
        return A @ B.T
    if kernel == "rbf":
        a2 = np.sum(A * A, axis=1)[:, None]
        b2 = np.sum(B * B, axis=1)[None, :]
        d2 = a2 + b2 - 2.0 * (A @ B.T)
        np.maximum(d2, 0.0, out=d2)
        return np.exp(-gamma * d2)
    raise ValueError(f"unknown kernel {kernel!r}")


#: Largest training set solved by the scalar SMO loop. Both loops make
#: the same float operations in the same order, so the choice changes
#: only speed: on a few rows numpy's per-call overhead dominates each
#: iteration, and the numpy loop catches up at about 110 rows
#: (``benchmarks/bench_smo.py``).
SCALAR_SMO_MAX_ROWS = 96


def _smo_numpy(
    K: np.ndarray, y: np.ndarray, C: float, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """SMO with maximal-violating-pair selection, vectorized per iteration.

    Returns ``(alpha, grad, iterations)``.
    """
    n = y.size
    alpha = np.zeros(n)
    grad = -np.ones(n)  # G = Qα − e with α = 0
    it = 0
    for it in range(1, max_iter + 1):
        # I_up: α can increase along +y; I_low: can decrease.
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        if not up.any() or not low.any():
            break
        yg = -y * grad
        i = int(np.flatnonzero(up)[np.argmax(yg[up])])
        j = int(np.flatnonzero(low)[np.argmin(yg[low])])
        if yg[i] - yg[j] < tol:
            break
        # Two-variable subproblem along the feasible direction
        # (α_i moves by +y_i·t, α_j by −y_j·t, preserving yᵀα = 0).
        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if quad <= 1e-12:
            quad = 1e-12
        delta = (yg[i] - yg[j]) / quad
        t_max_i = (C - alpha[i]) if y[i] > 0 else alpha[i]
        t_max_j = alpha[j] if y[j] > 0 else (C - alpha[j])
        t = min(delta, t_max_i, t_max_j)
        if t <= 0:
            break
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        # ΔG = Q[:, i]·Δα_i + Q[:, j]·Δα_j = t · y ⊙ (K[:, i] − K[:, j]).
        grad += t * y * (K[:, i] - K[:, j])
    return alpha, grad, it


def _smo_scalar(
    K: np.ndarray, y: np.ndarray, C: float, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`_smo_numpy` as a plain Python loop over floats.

    Every value is computed by the same IEEE double operations in the
    same order, and ties go to the lowest index as with ``argmax`` and
    ``argmin``, so α, the gradient and the iteration count are bitwise
    equal. ``K`` must be finite (``argmax`` would pick a NaN first).
    """
    n = y.size
    columns = K.T.tolist()
    labels = y.tolist()
    alpha = [0.0] * n
    grad = [-1.0] * n
    it = 0
    for it in range(1, max_iter + 1):
        i = j = -1
        yg_i = yg_j = 0.0
        for k in range(n):
            yk = labels[k]
            ak = alpha[k]
            ygk = -yk * grad[k]
            # I_up: α can increase along +y; I_low: can decrease.
            if (ak < C) if yk > 0 else (ak > 0):
                if i < 0 or ygk > yg_i:
                    i, yg_i = k, ygk
            if (ak > 0) if yk > 0 else (ak < C):
                if j < 0 or ygk < yg_j:
                    j, yg_j = k, ygk
        if i < 0 or j < 0:
            break
        if yg_i - yg_j < tol:
            break
        col_i = columns[i]
        col_j = columns[j]
        quad = col_i[i] + col_j[j] - 2.0 * col_j[i]
        if quad <= 1e-12:
            quad = 1e-12
        delta = (yg_i - yg_j) / quad
        t_max_i = (C - alpha[i]) if labels[i] > 0 else alpha[i]
        t_max_j = alpha[j] if labels[j] > 0 else (C - alpha[j])
        t = min(delta, t_max_i, t_max_j)
        if t <= 0:
            break
        alpha[i] += labels[i] * t
        alpha[j] -= labels[j] * t
        for k in range(n):
            grad[k] += t * labels[k] * (col_i[k] - col_j[k])
    return np.array(alpha), np.array(grad), it


class BinarySVM:
    """Soft-margin binary SVM; labels must be -1 / +1.

    Solves ``min 0.5 αᵀQα − eᵀα`` s.t. ``0 ≤ α ≤ C``, ``yᵀα = 0`` with
    ``Q_ij = y_i y_j K(x_i, x_j)`` by SMO. The kernel matrix is
    precomputed — training sets in this problem are small (UCR scale).
    """

    def __init__(
        self,
        C: float = 1.0,
        kernel: str = "rbf",
        gamma: float | str = "scale",
        tol: float = 1e-3,
        max_iter: int = 20000,
    ) -> None:
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = float(C)
        self.kernel = kernel
        self.gamma = gamma
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.alpha_: np.ndarray | None = None
        self.bias_: float = 0.0
        self.support_vectors_: np.ndarray | None = None
        self.support_coef_: np.ndarray | None = None
        self.gamma_: float = 1.0
        self.iterations_: int = 0

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if isinstance(self.gamma, str):
            if self.gamma != "scale":
                raise ValueError(f"unknown gamma spec {self.gamma!r}")
            var = X.var()
            return 1.0 / (X.shape[1] * var) if var > 1e-12 else 1.0
        return float(self.gamma)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BinarySVM":
        """Fit the model on training series ``X`` with labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) and y (n,)")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if np.unique(y).size < 2:
            raise ValueError("both classes must be present")
        n = X.shape[0]
        self.gamma_ = self._resolve_gamma(X)
        K = _kernel_matrix(X, X, self.kernel, self.gamma_)

        if n <= SCALAR_SMO_MAX_ROWS and np.isfinite(K).all():
            alpha, grad, it = _smo_scalar(K, y, self.C, self.tol, self.max_iter)
        else:
            alpha, grad, it = _smo_numpy(K, y, self.C, self.tol, self.max_iter)
        self.iterations_ = it
        C = self.C

        # Bias from the KKT conditions: average over free vectors.
        free = (alpha > 1e-8) & (alpha < C - 1e-8)
        decision_wo_bias = (alpha * y) @ K
        if free.any():
            self.bias_ = float(np.mean(y[free] - decision_wo_bias[free]))
        else:
            up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
            low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
            yg = -y * grad
            hi = yg[up].max() if up.any() else 0.0
            lo = yg[low].min() if low.any() else 0.0
            self.bias_ = float((hi + lo) / 2.0)

        support = alpha > 1e-8
        self.alpha_ = alpha
        self.support_vectors_ = X[support]
        self.support_coef_ = (alpha * y)[support]
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw decision value(s) for every row of ``X``."""
        if self.support_vectors_ is None or self.support_coef_ is None:
            raise RuntimeError("BinarySVM used before fit()")
        X = np.asarray(X, dtype=float)
        if self.support_vectors_.shape[0] == 0:
            return np.full(X.shape[0], self.bias_)
        K = _kernel_matrix(X, self.support_vectors_, self.kernel, self.gamma_)
        return K @ self.support_coef_ + self.bias_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for every row of ``X``."""
        return np.where(self.decision_function(X) >= 0.0, 1.0, -1.0)


class SVC:
    """Multi-class SVM via one-vs-rest over :class:`BinarySVM`.

    Input features are standardized internally (``scale=True``), which
    the pattern-distance feature space needs since distances to long
    patterns dominate distances to short ones.
    """

    def __init__(
        self,
        C: float = 1.0,
        kernel: str = "rbf",
        gamma: float | str = "scale",
        tol: float = 1e-3,
        max_iter: int = 20000,
        scale: bool = True,
    ) -> None:
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.tol = tol
        self.max_iter = max_iter
        self.scale = scale
        self.classes_: np.ndarray | None = None
        self.machines_: list[BinarySVM] = []
        self.scaler_: StandardScaler | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SVC":
        """Fit the model on training series ``X`` with labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of instances")
        if self.scale:
            self.scaler_ = StandardScaler()
            X = self.scaler_.fit_transform(X)
        self.classes_ = np.unique(y)
        if self.classes_.size < 2:
            raise ValueError("need at least two classes")
        self.machines_ = []
        for label in self.classes_:
            target = np.where(y == label, 1.0, -1.0)
            machine = BinarySVM(
                C=self.C,
                kernel=self.kernel,
                gamma=self.gamma,
                tol=self.tol,
                max_iter=self.max_iter,
            )
            machine.fit(X, target)
            self.machines_.append(machine)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw decision value(s) for every row of ``X``."""
        if self.classes_ is None:
            raise RuntimeError("SVC used before fit()")
        X = np.asarray(X, dtype=float)
        if self.scaler_ is not None:
            X = self.scaler_.transform(X)
        return np.column_stack([m.decision_function(X) for m in self.machines_])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for every row of ``X``."""
        scores = self.decision_function(X)
        assert self.classes_ is not None
        return self.classes_[np.argmax(scores, axis=1)]
