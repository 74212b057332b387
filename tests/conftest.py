"""Shared fixtures: tiny deterministic datasets that keep tests fast."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.data import Dataset, cbf, gun_point_sim
from repro.runtime import kernel


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh generator per test, so no test's data depend on test order."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_cbf() -> Dataset:
    """A small CBF split (3 classes) for pipeline-level tests."""
    return cbf(n_train_per_class=8, n_test_per_class=10, length=96, seed=7)


@pytest.fixture(scope="session")
def tiny_gun() -> Dataset:
    """A small 2-class dataset with a localized discriminative pattern."""
    return gun_point_sim(n_train_per_class=10, n_test_per_class=12, length=120, seed=7)


@pytest.fixture
def force_backend(monkeypatch):
    """Move the kernel's ``auto`` crossover so every bucket takes one backend.

    ``force_backend("fft")`` sends every kernel call to the FFT,
    ``force_backend("matvec")`` every one to the mat-vec, and
    ``force_backend("auto")`` keeps the calibrated crossover. The
    backend follows from the input, so tests move the crossover instead
    of passing a backend through the pipeline.
    """

    def force(backend: str) -> None:
        if backend == "fft":
            monkeypatch.setattr(kernel, "FFT_MIN_SERIES_LENGTH", 0)
            monkeypatch.setattr(kernel, "FFT_MIN_BATCH_WORK", 0)
            monkeypatch.setattr(kernel, "FFT_LENGTH_CROSSOVER", 0.0)
        elif backend == "matvec":
            monkeypatch.setattr(kernel, "FFT_MIN_SERIES_LENGTH", float("inf"))
        elif backend != "auto":
            raise ValueError(f"unknown backend {backend!r}")

    return force


@pytest.fixture
def stall_offers():
    """Hold a serving tier between resolving results and offering them.

    Wraps the tier's ``_offer`` seam (flight capture, then the shadow
    and drift offers) with a sleep before it runs: the caller sees its
    futures resolved while the offers are still to come, which is the
    window a detach must wait out.
    """

    def stall(service, seconds: float = 0.02) -> None:
        offer = service._offer

        def slow_offer(*args):
            time.sleep(seconds)
            offer(*args)

        service._offer = slow_offer

    return stall
