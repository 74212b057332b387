"""Fit fingerprints of the benchmark's training sets.

``rpmbench/fingerprints.json`` pins what a fit decides on each of the
benchmark's training sets: the per-class SAX triples, the number of
DIRECT evaluations R and a hash of the selected patterns. Speed-ups must
leave all three unchanged, so tier-1 refits the tiny training sets on
every run and the full DIRECT fits in the slow lane. The training sets
and the reference values are read from the benchmark's own files.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import RPMClassifier

BENCH = Path(__file__).resolve().parents[1] / "rpmbench"
REFERENCES = json.loads((BENCH / "fingerprints.json").read_text())


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


def _fit_and_check(training_set, size: str) -> None:
    data = training_set.make()
    clf = RPMClassifier(**training_set.classifier_kwargs()).fit(data.X_train, data.y_train)
    assert fingerprint(clf) == REFERENCES[size][training_set.key]


def _training_sets(workloads, names):
    return [
        pytest.param(ts, id=f"{name}-{ts.key}")
        for name in names
        for ts in workloads[name].fits
    ]


@pytest.mark.parametrize(
    "training_set", _training_sets(WORKLOADS.TINY, ("direct-ucr", "fixed-long"))
)
def test_tiny_fit_matches_pinned_fingerprint(training_set):
    _fit_and_check(training_set, "tiny")


@pytest.mark.slow
@pytest.mark.parametrize(
    "training_set", _training_sets(WORKLOADS.WORKLOADS, ("direct-ucr",))
)
def test_full_direct_fit_matches_pinned_fingerprint(training_set):
    _fit_and_check(training_set, "full")
