"""Cross-validation utilities: stratified folds and splits.

Algorithm 3 repeatedly (i) splits the training data into train and
validation partitions and (ii) runs five-fold cross-validation on the
transformed validation data; both helpers keep class proportions by
stratifying.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "stratified_kfold",
    "stratified_split",
    "kfold_predictions",
]


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def stratified_kfold(
    y: np.ndarray,
    n_folds: int,
    *,
    seed: int | np.random.Generator | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(train_idx, test_idx)`` for stratified k-fold CV.

    Every class's instances are shuffled and dealt round-robin over the
    folds, so each fold's class mix matches the whole set as closely as
    integer counts allow. Classes with fewer members than folds simply
    appear in fewer folds (no error), which matters for the paper's
    tiny UCR-style training sets.
    """
    labels = np.asarray(y)
    if labels.ndim != 1:
        raise ValueError("y must be 1-D")
    if n_folds < 2:
        raise ValueError(f"n_folds must be >= 2, got {n_folds}")
    if n_folds > labels.size:
        raise ValueError(f"n_folds ({n_folds}) exceeds number of instances ({labels.size})")
    rng = _rng(seed)
    fold_of = np.empty(labels.size, dtype=int)
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label)
        rng.shuffle(members)
        fold_of[members] = np.arange(members.size) % n_folds
    all_idx = np.arange(labels.size)
    for fold in range(n_folds):
        test = all_idx[fold_of == fold]
        if test.size == 0:
            continue
        train = all_idx[fold_of != fold]
        yield train, test


def stratified_split(
    y: np.ndarray,
    test_fraction: float,
    *,
    seed: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One stratified shuffle split into ``(train_idx, test_idx)``.

    Each class keeps at least one instance on the training side, and —
    when it has two or more members — at least one on the test side, so
    both partitions always cover every class as far as possible.
    """
    labels = np.asarray(y)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = _rng(seed)
    train_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label)
        rng.shuffle(members)
        n_test = int(round(members.size * test_fraction))
        if members.size >= 2:
            n_test = min(max(n_test, 1), members.size - 1)
        else:
            n_test = 0
        test_parts.append(members[:n_test])
        train_parts.append(members[n_test:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return train, test


def kfold_predictions(
    fit_predict,
    X: np.ndarray,
    y: np.ndarray,
    n_folds: int = 5,
    *,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Out-of-fold predictions for the whole dataset.

    ``fit_predict(X_train, y_train, X_test) -> y_pred`` is called once
    per fold; the returned array aligns with ``y``. Used to compute the
    per-class F-measure that drives parameter selection.
    """
    X = np.asarray(X)
    labels = np.asarray(y)
    predictions = np.empty(labels.size, dtype=labels.dtype)
    seen = np.zeros(labels.size, dtype=bool)
    for train_idx, test_idx in stratified_kfold(labels, n_folds, seed=seed):
        predictions[test_idx] = fit_predict(X[train_idx], labels[train_idx], X[test_idx])
        seen[test_idx] = True
    if not seen.all():  # pragma: no cover - stratified_kfold covers everything
        raise RuntimeError("some instances were never assigned to a test fold")
    return predictions

