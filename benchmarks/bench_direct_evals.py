"""Paper §5.3: DIRECT's evaluation count R versus exhaustive search.

The complexity analysis hinges on R — the number of unique SAX
parameter triples DIRECT evaluates — being small: "the average value
for R is less than 200, which is smaller than the average time series
length 363", and most evaluations terminating early via the γ-support
pruning. This bench measures R on the suite and compares it against
the exhaustive grid size.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parents[1]))  # for tests.oracles

import harness  # noqa: E402
from repro.core.candidates import find_candidates  # noqa: E402
from repro.core.params import ParamSelector  # noqa: E402
from repro.core.selection import find_distinct  # noqa: E402
from repro.core.transform import pattern_features  # noqa: E402
from repro.data import load  # noqa: E402
from repro.grammar import inference  # noqa: E402
from repro.runtime import DiscretizationCache, ParallelExecutor  # noqa: E402
from repro.sax.discretize import SaxRecord  # noqa: E402
from tests.oracles import legacy_discretize  # noqa: E402

SPEEDUP_GATE_MIN_CPUS = 4
GATE_FACTOR = 2.0


def _direct_vs_grid():
    rows = []
    r_values = []
    for name in harness.suite_names():
        dataset = load(name)
        selector = ParamSelector(
            dataset.X_train, dataset.y_train, n_splits=2, cv_folds=3, seed=0
        )
        selector.select_direct(max_evaluations=40, max_iterations=20)
        r = selector.n_evaluations
        r_values.append(r)
        ranges = selector.ranges
        grid_size = (
            (ranges.window[1] - ranges.window[0] + 1)
            * (ranges.paa[1] - ranges.paa[0] + 1)
            * (ranges.alphabet[1] - ranges.alphabet[0] + 1)
        )
        pruned = sum(1 for e in selector._cache.values() if e.pruned)
        rows.append([name, dataset.series_length, r, pruned, grid_size])
    return rows, r_values


def test_direct_evaluation_count(benchmark):
    rows, r_values = benchmark.pedantic(_direct_vs_grid, rounds=1, iterations=1)
    report = "\n".join(
        [
            "§5.3 — DIRECT unique evaluations R vs exhaustive grid size",
            harness.format_table(
                ["dataset", "series len", "R", "pruned", "full grid"], rows
            ),
            "",
            f"average R = {np.mean(r_values):.1f} "
            "(paper: average R < 200, below the mean series length 363)",
        ]
    )
    harness.write_report("direct_evals", report)

    # Shape assertions: R must be far below the exhaustive grid and
    # below the paper's bound.
    for name, length, r, pruned, grid_size in rows:
        assert r < 200
        assert r < grid_size / 5


def _legacy_record(
    series, params, *, numerosity_reduction=True, valid_start=None, cache=None
):
    """The string-per-window reference, repacked as the record mining reads.

    Takes :func:`repro.sax.discretize.discretize`'s arguments (the cache
    is ignored) so it can stand in for it during the legacy run.
    """
    legacy = legacy_discretize(
        series,
        params,
        numerosity_reduction=numerosity_reduction,
        valid_start=valid_start,
    )
    letters = np.frombuffer("".join(legacy.words).encode("ascii"), dtype=np.uint8)
    codes = (letters - ord("a")).reshape(len(legacy.words), params.paa_size)
    return SaxRecord(
        legacy.offsets, params, legacy.series_length, legacy.dropped, codes=codes
    )


def _mine_and_transform(dataset, *, legacy: bool, executor, discretize_cache):
    """One full Algorithm 3 run + downstream mining/transform.

    Returns ``(seconds, selected params, transformed test features)``.
    ``legacy=True`` reproduces the pre-vectorization pipeline: string
    discretization, no discretization cache, serial DIRECT.
    """

    def run():
        selector = ParamSelector(
            dataset.X_train,
            dataset.y_train,
            n_splits=2,
            cv_folds=3,
            seed=0,
            executor=executor,
            discretize_cache=discretize_cache,
        )
        t0 = time.perf_counter()
        params = selector.select_direct(max_evaluations=40, max_iterations=20)
        candidates = find_candidates(
            dataset.X_train,
            dataset.y_train,
            params,
            executor=executor,
            discretize_cache=discretize_cache,
        )
        selection = find_distinct(
            dataset.X_train, dataset.y_train, candidates, executor=executor
        )
        features = pattern_features(
            dataset.X_test, selection.patterns, executor=executor
        )
        return time.perf_counter() - t0, params, features

    if not legacy:
        return run()
    vectorized = inference.discretize
    inference.discretize = _legacy_record
    try:
        return run()
    finally:
        inference.discretize = vectorized


def test_direct_mining_speedup(benchmark):
    """Pre-PR mining path vs vectorized + cached + parallel DIRECT.

    The equivalence assertions (identical selected ``SaxParams`` per
    class, bitwise-identical transformed features) are always on; the
    ≥2× wall-clock gate only arms on hosts with at least
    ``SPEEDUP_GATE_MIN_CPUS`` CPUs — elsewhere the measured ratio is
    still reported.
    """
    dataset = load("SyntheticControl")  # 6 classes — widest fan-out

    def run_both():
        old_time, old_params, old_features = _mine_and_transform(
            dataset, legacy=True, executor=None,
            discretize_cache=DiscretizationCache(0),
        )
        with ParallelExecutor(4, "thread") as executor:
            new_time, new_params, new_features = _mine_and_transform(
                dataset, legacy=False, executor=executor,
                discretize_cache=DiscretizationCache(),
            )
        return old_time, old_params, old_features, new_time, new_params, new_features

    old_time, old_params, old_features, new_time, new_params, new_features = (
        benchmark.pedantic(run_both, rounds=1, iterations=1)
    )

    # Equivalence first — a fast different answer is a bug, not a win.
    assert old_params == new_params, "selected SaxParams diverged"
    np.testing.assert_array_equal(old_features, new_features)

    speedup = old_time / max(new_time, 1e-9)
    cpus = os.cpu_count() or 1
    gated = cpus >= SPEEDUP_GATE_MIN_CPUS
    harness.write_report(
        "direct_mining_speedup",
        "\n".join(
            [
                f"Algorithm 3 mining: pre-PR path vs vectorized+cached+parallel "
                f"({cpus} CPUs)",
                harness.format_table(
                    ["path", "seconds"],
                    [
                        ["legacy strings, no cache, serial", f"{old_time:.2f}"],
                        ["integer codes, cache, 4 threads", f"{new_time:.2f}"],
                    ],
                ),
                f"\nspeedup: {speedup:.2f}x "
                f"(gate {'armed' if gated else 'off — <4 CPUs'}; "
                "params + features asserted identical)",
            ]
        ),
    )
    if gated:
        assert speedup >= GATE_FACTOR, (
            f"mining speedup only {speedup:.2f}x (gate requires >= {GATE_FACTOR}x)"
        )
