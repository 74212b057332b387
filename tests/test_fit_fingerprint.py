"""Fit fingerprints of the benchmark's training sets.

``rpmbench/fingerprints.json`` pins what a fit decides on each of the
benchmark's training sets: the per-class SAX triples, the number of
DIRECT evaluations R and a hash of the selected patterns. Speed-ups must
leave all three unchanged, so tier-1 refits the tiny training sets on
every run and the full fits in the slow lane. The training sets and the
reference values are read from the benchmark's own files.

``table2_fingerprints.json`` pins the same fingerprint for the eight
Table 2 datasets at the benchmark harness's tiny budget
(``direct_budget=12``, ``n_splits=2``), so the long-series rows
(CoffeeSim, ECGFiveDaysSim) are checked too.

The determinism matrix refits the tiny training sets in every cell that
must not change a decision: tracing on, every window-statistics and
discretization cache the fit builds disabled, and two interpreters with
different hash seeds. The fit is one serial path, so ``n_jobs`` is not
a fit axis: it threads only the pattern bank, and ``predict`` must be
bitwise equal for every value.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import RPMClassifier
from repro.core import params as params_module
from repro.core import rpm as rpm_module
from repro.core import transform as transform_module
from repro.data.registry import GENERATORS
from repro.obs import Tracer, tracing
from repro.runtime.cache import DiscretizationCache, WindowStatsCache

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "rpmbench"
REFERENCES = json.loads((BENCH / "fingerprints.json").read_text())
TABLE2_REFERENCES = json.loads(
    (Path(__file__).with_name("table2_fingerprints.json")).read_text()
)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "rpmbench_workloads", BENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their module through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


def fingerprint(clf) -> dict:
    """Per-class SAX triples, R and a hash of the selected pattern values.

    The same definition as the benchmark's ``bench.fingerprint``: pattern
    values rounded to 1e-9, ``-0.0`` folded into ``0.0``.
    """
    digest = hashlib.sha256()
    for pattern in clf.patterns_:
        digest.update((np.round(np.asarray(pattern.values, float), 9) + 0.0).tobytes())
        digest.update(b"|")
    return {
        "triples": {
            str(k): list(v.as_tuple()) for k, v in sorted(clf.params_by_class_.items())
        },
        "R": int(clf.n_param_evaluations_),
        "patterns": len(clf.patterns_),
        "pattern_sha256": digest.hexdigest()[:16],
    }


def _fit(training_set, **overrides):
    data = training_set.make()
    kwargs = {**training_set.classifier_kwargs(), **overrides}
    return RPMClassifier(**kwargs).fit(data.X_train, data.y_train), data


def _fit_and_check(training_set, size: str, **overrides) -> RPMClassifier:
    clf, _ = _fit(training_set, **overrides)
    assert fingerprint(clf) == REFERENCES[size][training_set.key]
    return clf


def tiny_fingerprints() -> dict:
    """Fingerprint of every tiny training set, keyed like the references."""
    return {
        ts.key: fingerprint(_fit(ts)[0])
        for workload in WORKLOADS.TINY.values()
        for ts in workload.fits
    }


def _training_sets(workloads, names):
    return [
        pytest.param(ts, id=f"{name}-{ts.key}")
        for name in names
        for ts in workloads[name].fits
    ]


TINY_SETS = _training_sets(WORKLOADS.TINY, ("direct-ucr", "fixed-long"))


@pytest.mark.parametrize("training_set", TINY_SETS)
def test_tiny_fit_matches_pinned_fingerprint(training_set):
    _fit_and_check(training_set, "tiny")


class TestDeterminismMatrix:
    """Every cell reproduces the pinned tiny fingerprints."""

    @pytest.mark.parametrize("training_set", TINY_SETS)
    def test_traced(self, training_set):
        tracer = Tracer()
        with tracing(tracer):
            _fit_and_check(training_set, "tiny")
        assert [span.name for span in tracer.roots] == ["fit"]

    @pytest.mark.parametrize("training_set", TINY_SETS)
    def test_caches_off(self, training_set, monkeypatch):
        built = []

        def uncached(cls):
            def make(max_entries=None):
                built.append(cls(0))
                return built[-1]

            return make

        for module in (rpm_module, params_module):
            monkeypatch.setattr(module, "WindowStatsCache", uncached(WindowStatsCache))
            monkeypatch.setattr(
                module, "DiscretizationCache", uncached(DiscretizationCache)
            )
        monkeypatch.setattr(transform_module, "default_cache", uncached(WindowStatsCache))
        _fit_and_check(training_set, "tiny")
        assert {type(cache) for cache in built} == {WindowStatsCache, DiscretizationCache}
        assert all(len(cache) == cache.hits == 0 for cache in built)
        assert sum(cache.misses for cache in built) > 0

    def test_hash_seeds(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")])
        )
        script = (
            "import json\n"
            "from tests.test_fit_fingerprint import tiny_fingerprints\n"
            "print(json.dumps(tiny_fingerprints()))\n"
        )
        for seed in ("1", "2718"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={**env, "PYTHONHASHSEED": seed},
                cwd=ROOT,
                check=True,
            )
            assert json.loads(proc.stdout) == REFERENCES["tiny"], f"PYTHONHASHSEED={seed}"

    @pytest.mark.parametrize("training_set", TINY_SETS)
    def test_predict_equal_for_n_jobs_1_and_2(self, training_set):
        clf, data = _fit(training_set, n_jobs=1)
        labels = clf.predict(data.X_test)
        clf.set_params(n_jobs=2)
        np.testing.assert_array_equal(clf.predict(data.X_test), labels)


@pytest.mark.slow
@pytest.mark.parametrize(
    "training_set", _training_sets(WORKLOADS.WORKLOADS, ("direct-ucr", "fixed-long"))
)
def test_full_direct_fit_matches_pinned_fingerprint(training_set):
    _fit_and_check(training_set, "full")


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(TABLE2_REFERENCES))
def test_table2_fit_matches_pinned_fingerprint(name):
    # The synthetic generator itself: ``repro.data.load`` would swap in a
    # UCR file when RPM_UCR_ROOT is set.
    data = GENERATORS[name]()
    clf = RPMClassifier(direct_budget=12, n_splits=2, seed=0)
    clf.fit(data.X_train, data.y_train)
    assert fingerprint(clf) == TABLE2_REFERENCES[name]
