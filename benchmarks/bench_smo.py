"""SMO crossover benchmark: scalar loop vs numpy loop.

``BinarySVM.fit`` solves its dual with a plain Python loop up to
``repro.ml.svm.SCALAR_SMO_MAX_ROWS`` training rows and with the
vectorized numpy loop above it. Both make the same float operations in
the same order, so the constant only trades speed. This bench times
both loops on one RBF problem per size (two offset Gaussian classes,
four features, C = 1) and prints where the scalar loop stops winning.
Bitwise equality of α, the gradient and the iteration count is asserted
on every size.

The table goes to ``benchmarks/results/smo.txt``. Run stand-alone with
``python benchmarks/bench_smo.py`` or through pytest-benchmark.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

import harness  # noqa: E402
from repro.ml.svm import (  # noqa: E402
    SCALAR_SMO_MAX_ROWS,
    _kernel_matrix,
    _smo_numpy,
    _smo_scalar,
)

SIZES = (6, 16, 32, 64, 96, 112, 128, 192)
REPEATS = 5


def _problem(n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 4))
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    X[y > 0] += 1.0
    return _kernel_matrix(X, X, "rbf", 0.25), y


def _best_of(solver, K, y) -> tuple[float, tuple]:
    best, out = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = solver(K, y, 1.0, 1e-3, 20000)
        best = min(best, time.perf_counter() - start)
    return best, out


def run_bench() -> list[list]:
    rows = []
    for n in SIZES:
        K, y = _problem(n)
        scalar_s, (a1, g1, it1) = _best_of(_smo_scalar, K, y)
        numpy_s, (a2, g2, it2) = _best_of(_smo_numpy, K, y)
        assert a1.tobytes() == a2.tobytes() and g1.tobytes() == g2.tobytes() and it1 == it2
        chosen = "scalar" if n <= SCALAR_SMO_MAX_ROWS else "numpy"
        rows.append([n, it1, 1e3 * scalar_s, 1e3 * numpy_s, f"{numpy_s / scalar_s:.2f}x", chosen])
    return rows


def _report(rows: list[list]) -> str:
    table = harness.format_table(
        ["rows", "iterations", "scalar ms", "numpy ms", "numpy/scalar", "fit uses"], rows
    )
    return "\n".join(
        [
            f"SMO loops: scalar vs numpy (RBF, 4 features, C=1, best of {REPEATS}, "
            f"{os.cpu_count()} CPUs); SCALAR_SMO_MAX_ROWS = {SCALAR_SMO_MAX_ROWS}",
            table,
            "",
            "equivalence: alpha, gradient and iteration count bitwise equal (asserted every run)",
        ]
    )


def test_smo_crossover(benchmark):
    rows = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    harness.write_report("smo", _report(rows))


def main() -> int:
    harness.write_report("smo", _report(run_bench()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
