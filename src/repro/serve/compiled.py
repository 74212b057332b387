"""A fitted RPM model compiled for serving.

A :class:`CompiledModel` wraps the fitted model's
:class:`~repro.core.transform.PatternBank`: the patterns are
z-normalized once at load time and grouped into length buckets, and
per request batch the bank builds one window-statistics prefix and
makes one batched kernel call per bucket. ``RPMClassifier.transform``
and ``predict`` run the same bank, so served features and labels are
bitwise equal to theirs for every executor configuration. The fit's
per-pattern training transform is another path: it agrees bitwise
below the FFT crossover and by FFT rounding above it (see
``docs/runtime.md``).

The model adds a *persistent*
:class:`~repro.runtime.executor.ParallelExecutor` that fans the
buckets out. Its ``compiled.*`` spans go to the active tracer.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core.transform import LengthBucket, PatternBank, pattern_values
from ..obs.tracer import span
from ..runtime.executor import ParallelExecutor

__all__ = ["CompiledModel"]


class CompiledModel:
    """A loaded RPM artifact with its pattern bank precompiled.

    Parameters
    ----------
    patterns:
        The fitted model's representative patterns (anything accepted
        by :func:`~repro.core.transform.pattern_values`), in feature
        order.
    classifier:
        The fitted downstream classifier (``predict`` over the
        pattern-distance feature matrix).
    rotation_invariant:
        Whether the transform also matches the halfway-rotated copy.
    classes:
        Class labels, for reporting.
    series_length:
        Training series length when the artifact records it; used for
        warm-up shapes and strict input validation upstream.
    n_jobs:
        Threads for the per-bucket transform, the calling thread
        included: each batch's first bucket chunk runs on the thread
        that calls :meth:`transform`, the rest on ``n_jobs − 1`` pool
        threads. Unlike ``RPMClassifier.transform``, the pool is
        *persistent* — a serving process must not pay pool start-up per
        request. Call :meth:`close` (or use the model as a context
        manager) to tear it down.
    """

    def __init__(
        self,
        patterns,
        classifier,
        *,
        rotation_invariant: bool = False,
        classes=None,
        series_length: int | None = None,
        n_jobs: int = 1,
    ) -> None:
        if not patterns:
            raise ValueError("CompiledModel needs a non-empty pattern bank")
        self._init_runtime(
            [pattern_values(p) for p in patterns],
            classifier,
            rotation_invariant=rotation_invariant,
            classes=classes,
            series_length=series_length,
            n_jobs=n_jobs,
        )

    def _init_runtime(
        self,
        values: list[np.ndarray],
        classifier,
        *,
        rotation_invariant: bool,
        classes,
        series_length: int | None,
        n_jobs: int,
        native_plan: list[LengthBucket] | None = None,
    ) -> None:
        """Shared by :meth:`__init__` and :meth:`from_shared_bank`, which
        injects an already-built native plan."""
        self.classifier = classifier
        self.rotation_invariant = bool(rotation_invariant)
        self.classes = None if classes is None else np.asarray(classes)
        self.series_length = None if series_length is None else int(series_length)
        self.bank = PatternBank(values, native_plan)
        self.n_patterns = len(self.bank)
        self.max_pattern_length = self.bank.max_pattern_length
        self._executor = ParallelExecutor(n_jobs)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_classifier(cls, clf, **runtime) -> "CompiledModel":
        """Compile a fitted :class:`~repro.core.rpm.RPMClassifier`."""
        if not getattr(clf, "patterns_", None) or clf.classifier_ is None:
            raise RuntimeError("cannot compile an unfitted RPMClassifier")
        return cls(
            clf.patterns_,
            clf.classifier_,
            rotation_invariant=clf.rotation_invariant,
            classes=clf.classes_,
            series_length=getattr(clf, "n_timesteps_", None),
            **runtime,
        )

    @classmethod
    def load(cls, path: str | Path, **runtime) -> "CompiledModel":
        """Load a :func:`~repro.core.io.save_model` artifact and compile it.

        Application code should prefer the unified
        :meth:`repro.serve.lifecycle.ModelHandle.open` entry point,
        which also resolves registry versions and supports hot-swap;
        this classmethod remains as the low-level building block (see
        ``docs/api.md`` § Deprecated loading paths).
        """
        from ..core.io import load_model

        return cls.from_classifier(load_model(path), **runtime)

    @classmethod
    def from_shared_bank(
        cls,
        values: list[np.ndarray],
        native_plan: list[LengthBucket],
        classifier,
        *,
        rotation_invariant: bool = False,
        classes=None,
        series_length: int | None = None,
        n_jobs: int = 1,
    ) -> "CompiledModel":
        """Wrap an already-compiled bank (e.g. shared-memory views).

        ``values`` and ``native_plan`` are adopted as-is — no copy, no
        re-normalization — so a shard worker can serve straight out of
        read-only :mod:`multiprocessing.shared_memory` views built once
        by the parent (see :class:`repro.serve.shard.SharedPatternBank`).
        The caller owns the backing buffers' lifetime; they must outlive
        the model. Plans for *shorter* inputs are still compiled lazily
        (they resample, so they allocate fresh private arrays).
        """
        if not values:
            raise ValueError("CompiledModel needs a non-empty pattern bank")
        model = cls.__new__(cls)
        model._init_runtime(
            list(values),
            classifier,
            rotation_invariant=rotation_invariant,
            classes=classes,
            series_length=series_length,
            n_jobs=n_jobs,
            native_plan=native_plan,
        )
        return model

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut the persistent executor down (idempotent)."""
        self._executor.close()

    def __enter__(self) -> "CompiledModel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- inference -------------------------------------------------------------

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Pattern-distance features ``(n, K)`` of a request batch.

        Bitwise identical to ``RPMClassifier.transform`` on the same
        rows, for every executor configuration.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        with span("compiled.transform") as transform_span:
            transform_span.add("transform.series", X.shape[0])
            transform_span.add("transform.patterns", self.n_patterns)
            return self.bank.transform(
                X,
                rotation_invariant=self.rotation_invariant,
                executor=self._executor,
            )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class labels for every row of ``X``."""
        with span("compiled.predict"):
            return self.classifier.predict(self.transform(X))

    def warmup(self, n: int = 4, length: int | None = None) -> None:
        """Push one deterministic dummy batch through the full path.

        Touches plan compilation, window statistics, the per-pattern
        mat-vecs and the classifier so the first real request does not
        pay first-call costs (allocator warm-up, BLAS thread spin-up,
        lazy pool creation).
        """
        length = length or self.series_length or self.max_pattern_length
        t = np.arange(int(length), dtype=float)
        batch = np.stack([np.sin(0.1 * t + k) for k in range(max(1, n))])
        with span("compiled.warmup"):
            self.predict(batch)

    def describe(self) -> str:
        """One-line bank summary for logs."""
        lengths = ", ".join(
            f"{b.length}×{len(b.cols)}" for b in self.bank.native_plan
        )
        return (
            f"CompiledModel({self.n_patterns} patterns, "
            f"buckets [{lengths}], rotation_invariant={self.rotation_invariant})"
        )
