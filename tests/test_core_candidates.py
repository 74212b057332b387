import numpy as np
import pytest

from repro.core import candidates as candidates_module
from repro.core.candidates import find_candidates, find_class_candidates
from repro.core.patterns import PatternCandidate
from repro.data import cbf, italy_power_sim
from repro.sax.discretize import SaxParams
from tests import oracles

PARAMS = SaxParams(16, 4, 4)


def _bump_class(rng, n=8, length=80, pos=30, width=18, sign=1.0):
    out = []
    for _ in range(n):
        series = rng.standard_normal(length) * 0.05
        p = pos + int(rng.integers(-3, 4))
        series[p : p + width] += sign * np.hanning(width) * 3.0
        out.append(series)
    return out


class TestFindClassCandidates:
    def test_finds_shared_motif(self, rng):
        instances = _bump_class(rng)
        candidates = find_class_candidates(instances, "A", PARAMS, gamma=0.3)
        assert candidates
        assert all(isinstance(c, PatternCandidate) for c in candidates)
        assert all(c.label == "A" for c in candidates)

    def test_support_respects_gamma(self, rng):
        instances = _bump_class(rng, n=10)
        for candidate in find_class_candidates(instances, 0, PARAMS, gamma=0.5):
            assert candidate.support >= 5

    def test_occurrence_support_mode(self, rng):
        instances = _bump_class(rng, n=10)
        occ = find_class_candidates(
            instances, 0, PARAMS, gamma=0.4, support_mode="occurrences"
        )
        for candidate in occ:
            assert candidate.frequency >= 4

    def test_candidates_are_znormed(self, rng):
        instances = _bump_class(rng)
        for candidate in find_class_candidates(instances, 0, PARAMS, gamma=0.3):
            assert abs(candidate.values.mean()) < 1e-6
            assert abs(candidate.values.std() - 1.0) < 1e-6

    def test_medoid_prototype(self, rng):
        instances = _bump_class(rng)
        candidates = find_class_candidates(
            instances, 0, PARAMS, gamma=0.3, prototype="medoid"
        )
        assert candidates  # medoids are aligned members, also z-normed

    def test_pattern_length_at_least_window(self, rng):
        instances = _bump_class(rng)
        for candidate in find_class_candidates(instances, 0, PARAMS, gamma=0.3):
            # Aligned to the median occurrence length, never shorter
            # than the discretization window.
            assert candidate.length >= PARAMS.window_size

    def test_rejects_bad_gamma(self, rng):
        with pytest.raises(ValueError, match="gamma"):
            find_class_candidates(_bump_class(rng, n=3), 0, PARAMS, gamma=0.0)

    def test_rejects_bad_prototype(self, rng):
        with pytest.raises(ValueError, match="prototype"):
            find_class_candidates(_bump_class(rng, n=3), 0, PARAMS, prototype="mean")

    def test_rejects_bad_support_mode(self, rng):
        with pytest.raises(ValueError, match="support_mode"):
            find_class_candidates(_bump_class(rng, n=3), 0, PARAMS, support_mode="x")

    def test_pure_noise_fewer_candidates_than_structured(self, rng):
        structured = find_class_candidates(_bump_class(rng, n=8), 0, PARAMS, gamma=0.5)
        noise = find_class_candidates(
            [rng.standard_normal(80) for _ in range(8)], 0, PARAMS, gamma=0.5
        )
        assert len(noise) <= len(structured) + 2


class TestFindCandidates:
    def test_per_class_labels(self, rng):
        X = np.array(_bump_class(rng, n=6) + _bump_class(rng, n=6, sign=-1.0))
        y = np.array([0] * 6 + [1] * 6)
        candidates = find_candidates(X, y, {0: PARAMS, 1: PARAMS}, gamma=0.3)
        labels = {c.label for c in candidates}
        assert labels == {0, 1}

    def test_class_specific_params(self, rng):
        X = np.array(_bump_class(rng, n=6) + _bump_class(rng, n=6, sign=-1.0))
        y = np.array([0] * 6 + [1] * 6)
        params = {0: SaxParams(16, 4, 4), 1: SaxParams(24, 6, 5)}
        candidates = find_candidates(X, y, params, gamma=0.3)
        for candidate in candidates:
            assert candidate.sax_params == params[candidate.label]


def _tiny_classes():
    """(name, instances, params) for every class of tiny CBF and ItalyPowerSim."""
    out = []
    for name, data, params in [
        ("cbf", cbf(n_train_per_class=8, n_test_per_class=2, length=96, seed=7),
         SaxParams(24, 5, 4)),
        ("italy", italy_power_sim(n_train_per_class=12, n_test_per_class=2, seed=12),
         SaxParams(9, 4, 4)),
    ]:
        for label in np.unique(data.y_train):
            out.append((f"{name}-{label}", list(data.X_train[data.y_train == label]), params))
    return out


TINY_CLASSES = _tiny_classes()


def _fields(candidate) -> tuple:
    return (
        candidate.values.tobytes(),
        candidate.label,
        candidate.frequency,
        candidate.support,
        candidate.rule_id,
        candidate.words,
        candidate.within_distances.tobytes(),
    )


class _CountingRefine:
    def __init__(self, refine):
        self.refine = refine
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.refine(*args, **kwargs)


class TestSupportPruning:
    """Rules covering fewer than min_support series are never refined."""

    @pytest.mark.parametrize("prototype", ["centroid", "medoid"])
    @pytest.mark.parametrize("gamma", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("support_mode", ["instances", "occurrences"])
    def test_equals_unpruned_loop(self, support_mode, gamma, prototype):
        options = dict(gamma=gamma, prototype=prototype, support_mode=support_mode)
        total = 0
        for name, instances, params in TINY_CLASSES:
            got = find_class_candidates(instances, name, params, **options)
            want = oracles.unpruned_class_candidates(instances, name, params, **options)
            assert [_fields(c) for c in got] == [_fields(c) for c in want], name
            total += len(got)
        if gamma < 1.0:
            assert total > 0

    @pytest.mark.parametrize("support_mode", ["instances", "occurrences"])
    def test_refines_fewer_rules(self, support_mode, monkeypatch):
        pruned = _CountingRefine(candidates_module.bisect_refine)
        unpruned = _CountingRefine(oracles.bisect_refine)
        monkeypatch.setattr(candidates_module, "bisect_refine", pruned)
        monkeypatch.setattr(oracles, "bisect_refine", unpruned)
        for name, instances, params in TINY_CLASSES:
            options = dict(gamma=0.5, support_mode=support_mode)
            find_class_candidates(instances, name, params, **options)
            oracles.unpruned_class_candidates(instances, name, params, **options)
        assert 0 < pruned.calls < unpruned.calls

    def test_no_refinement_when_no_rule_is_supported(self, monkeypatch):
        # Two instances with nothing in common: every rule lives in one.
        counting = _CountingRefine(candidates_module.bisect_refine)
        monkeypatch.setattr(candidates_module, "bisect_refine", counting)
        rng = np.random.default_rng(3)
        instances = [np.sin(np.arange(80) / 3.0), rng.standard_normal(80)]
        out = find_class_candidates(instances, 0, PARAMS, gamma=1.0)
        assert out == []
        assert counting.calls == 0


class _RecordingRefine:
    """``bisect_refine`` that records the bits of every aligned matrix."""

    def __init__(self, refine):
        self.refine = refine
        self.inputs = []

    def __call__(self, aligned, *args, **kwargs):
        self.inputs.append(np.ascontiguousarray(aligned).tobytes())
        return self.refine(aligned, *args, **kwargs)


class TestArrayProgram:
    """One occurrence table and one aligned matrix per length reproduce
    the per-rule mining path bit for bit."""

    @pytest.mark.parametrize("prototype", ["centroid", "medoid"])
    @pytest.mark.parametrize("gamma", [0.2, 0.5])
    @pytest.mark.parametrize("support_mode", ["instances", "occurrences"])
    def test_equals_the_per_rule_path(self, support_mode, gamma, prototype):
        options = dict(gamma=gamma, prototype=prototype, support_mode=support_mode)
        for name, instances, params in TINY_CLASSES:
            got = find_class_candidates(instances, name, params, **options)
            want = oracles.per_rule_class_candidates(instances, name, params, **options)
            assert [_fields(c) for c in got] == [_fields(c) for c in want], name

    def test_refines_each_rule_once_on_its_own_rows(self, monkeypatch):
        array = _RecordingRefine(candidates_module.bisect_refine)
        per_rule = _RecordingRefine(oracles.bisect_refine)
        monkeypatch.setattr(candidates_module, "bisect_refine", array)
        monkeypatch.setattr(oracles, "bisect_refine", per_rule)
        for name, instances, params in TINY_CLASSES:
            find_class_candidates(instances, name, params)
            oracles.per_rule_class_candidates(instances, name, params)
        assert array.inputs
        assert array.inputs == per_rule.inputs
