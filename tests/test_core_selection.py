import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.core.selection as selection
from repro.core.patterns import PatternCandidate
from repro.core.selection import (
    SelectionResult,
    _cap_candidates,
    _closest_match_matrix,
    compute_tau,
    find_distinct,
    remove_similar,
)
from repro.sax.discretize import SaxParams

from tests.oracles import greedy_remove_similar, probe_distance

PARAMS = SaxParams(8, 4, 4)


def _candidate(values, label=0, frequency=2, within=()):
    return PatternCandidate(
        values=np.asarray(values, dtype=float),
        label=label,
        frequency=frequency,
        support=frequency,
        rule_id=1,
        words=("ab",),
        sax_params=PARAMS,
        within_distances=np.asarray(within, dtype=float),
    )


class TestComputeTau:
    def test_percentile_of_pooled_distances(self):
        candidates = [
            _candidate(np.arange(5.0), within=[1.0, 2.0, 3.0]),
            _candidate(np.arange(5.0), within=[4.0, 5.0]),
        ]
        # pooled = [1,2,3,4,5]; 30th percentile
        assert compute_tau(candidates, 30) == pytest.approx(np.percentile([1, 2, 3, 4, 5], 30))

    def test_no_distances_gives_zero(self):
        assert compute_tau([_candidate(np.arange(4.0))]) == 0.0

    def test_monotone_in_percentile(self):
        candidates = [_candidate(np.arange(5.0), within=np.linspace(0.1, 3, 20))]
        taus = [compute_tau(candidates, p) for p in (10, 30, 50, 70, 90)]
        assert taus == sorted(taus)

    def test_rejects_bad_percentile(self):
        with pytest.raises(ValueError, match="percentile"):
            compute_tau([], 150)


class TestRemoveSimilar:
    def test_keeps_more_frequent_of_similar_pair(self, rng):
        shape = np.sin(np.linspace(0, 3, 20))
        a = _candidate(shape, frequency=10)
        b = _candidate(shape + rng.standard_normal(20) * 0.01, frequency=3)
        kept = remove_similar([b, a], tau=1.0)
        assert len(kept) == 1
        assert kept[0].frequency == 10

    def test_dissimilar_patterns_both_kept(self):
        a = _candidate(np.sin(np.linspace(0, 3, 20)), frequency=5)
        b = _candidate(np.linspace(-1, 1, 20), frequency=4)
        kept = remove_similar([a, b], tau=0.5)
        assert len(kept) == 2

    def test_zero_tau_keeps_everything(self, rng):
        candidates = [_candidate(rng.standard_normal(15), frequency=i) for i in range(5)]
        assert len(remove_similar(candidates, 0.0)) == 5

    def test_different_length_comparison(self, rng):
        long_shape = np.sin(np.linspace(0, 4, 40))
        short_shape = long_shape[10:28]  # contained in the long one
        a = _candidate(long_shape, frequency=9)
        b = _candidate(short_shape, frequency=2)
        kept = remove_similar([a, b], tau=1.0)
        assert len(kept) == 1 and kept[0].frequency == 9

    def test_empty_input(self):
        assert remove_similar([], 1.0) == []


def _random_pool(local, n):
    """Mixed lengths, repeated frequencies, flat and near-duplicate shapes."""
    base = np.cumsum(local.standard_normal(80))
    pool = []
    for _ in range(n):
        length = int(local.integers(4, 20))
        kind = local.random()
        if kind < 0.1:
            values = np.full(length, float(local.integers(-2, 3)))
        elif kind < 0.6:
            start = int(local.integers(0, base.size - length))
            values = base[start : start + length] + local.standard_normal(length) * 0.05
        else:
            values = local.standard_normal(length)
        pool.append(_candidate(values, frequency=int(local.integers(1, 5))))
    return pool


def _assert_same_kept(candidates, tau):
    got = remove_similar(candidates, tau)
    want = greedy_remove_similar(candidates, tau)
    assert [id(c) for c in got] == [id(c) for c in want]


class TestRemoveSimilarParity:
    """The matrix walk must keep exactly what the per-probe scan keeps."""

    def test_random_pools(self):
        local = np.random.default_rng(400)
        for _ in range(40):
            pool = _random_pool(local, int(local.integers(1, 30)))
            for tau in (0.0, 0.3, 1.0, 2.5, 1e6):
                _assert_same_kept(pool, tau)

    def test_equal_frequencies_keep_input_order(self):
        local = np.random.default_rng(401)
        pool = [_candidate(local.standard_normal(12), frequency=3) for _ in range(8)]
        for tau in (1.0, 3.0, 5.0):
            _assert_same_kept(pool, tau)
            _assert_same_kept(pool[::-1], tau)

    def test_distances_equal_per_probe_kernel(self):
        local = np.random.default_rng(402)
        for _ in range(15):
            ordered = sorted(
                _random_pool(local, int(local.integers(2, 25))),
                key=lambda c: c.frequency,
                reverse=True,
            )
            got = _closest_match_matrix(ordered)
            for a in range(len(ordered)):
                assert np.isinf(got[a, : a + 1]).all()
                for b in range(a + 1, len(ordered)):
                    want = probe_distance(ordered[a], ordered[b])
                    assert got[a, b] == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_scratch_is_chunked(self, monkeypatch):
        # A one-byte budget forces one pattern per chunk.
        monkeypatch.setattr(selection, "_DEDUP_SCRATCH_BYTES", 1)
        pool = _random_pool(np.random.default_rng(403), 20)
        for tau in (0.5, 2.0):
            _assert_same_kept(pool, tau)

    def test_pools_recorded_from_a_direct_fit(self, monkeypatch):
        from repro import RPMClassifier
        from repro.data import cbf

        pools = []
        original = selection.remove_similar

        def record(candidates, tau):
            pools.append((list(candidates), tau))
            return original(candidates, tau)

        monkeypatch.setattr(selection, "remove_similar", record)
        data = cbf(n_train_per_class=5, n_test_per_class=1, length=96, seed=1)
        RPMClassifier(direct_budget=6, n_splits=2, seed=0).fit(data.X_train, data.y_train)
        assert len(pools) > 5
        for candidates, tau in pools:
            _assert_same_kept(candidates, tau)


def _feature_dataset(rng, n_per_class=12, length=60):
    """Two classes with distinct embedded bumps."""
    X, y = [], []
    for label, sign in ((0, 1.0), (1, -1.0)):
        for _ in range(n_per_class):
            series = rng.standard_normal(length) * 0.1
            pos = 15 + int(rng.integers(-3, 4))
            series[pos : pos + 16] += sign * np.hanning(16) * 3
            X.append(series)
            y.append(label)
    return np.array(X), np.array(y)


class TestFindDistinct:
    def _candidates(self, rng):
        up = np.hanning(16) * 3
        down = -np.hanning(16) * 3
        return [
            _candidate(up, label=0, frequency=8, within=[0.3, 0.5, 0.7]),
            _candidate(down, label=1, frequency=8, within=[0.4, 0.6]),
            _candidate(rng.standard_normal(16), label=0, frequency=2, within=[1.0]),
        ]

    def test_returns_selection_result(self, rng):
        X, y = _feature_dataset(rng)
        result = find_distinct(X, y, self._candidates(rng))
        assert isinstance(result, SelectionResult)
        assert result.patterns
        assert result.train_features.shape == (X.shape[0], len(result.patterns))

    def test_discriminative_patterns_survive(self, rng):
        X, y = _feature_dataset(rng)
        result = find_distinct(X, y, self._candidates(rng))
        labels = {p.label for p in result.patterns}
        # At least one of the two class-defining bumps must be kept.
        assert labels & {0, 1}

    def test_feature_indices_sequential(self, rng):
        X, y = _feature_dataset(rng)
        result = find_distinct(X, y, self._candidates(rng))
        assert [p.feature_index for p in result.patterns] == list(
            range(len(result.patterns))
        )

    def test_counts_recorded(self, rng):
        X, y = _feature_dataset(rng)
        result = find_distinct(X, y, self._candidates(rng))
        assert result.n_candidates_in == 3
        assert 1 <= result.n_after_dedup <= 3

    def test_candidate_cap_applies(self, rng):
        X, y = _feature_dataset(rng, n_per_class=6)
        candidates = [
            _candidate(rng.standard_normal(16), label=i % 2, frequency=i)
            for i in range(40)
        ]
        result = find_distinct(X, y, candidates, max_candidates=10)
        assert result.n_after_dedup <= 10

    def test_rejects_empty_candidates(self, rng):
        X, y = _feature_dataset(rng, n_per_class=3)
        with pytest.raises(ValueError, match="no candidates"):
            find_distinct(X, y, [])


_CAP_ORDER_SCRIPT = """\
import numpy as np
from repro.core.patterns import PatternCandidate
from repro.core.selection import _cap_candidates
from repro.sax.discretize import SaxParams

rng = np.random.default_rng(99)
labels = ["gun", "point", "noise", "drift"]
candidates = [
    PatternCandidate(
        values=rng.standard_normal(8),
        label=labels[i % 4],
        frequency=i % 7,
        support=1,
        rule_id=i,
        words=("ab",),
        sax_params=SaxParams(8, 4, 4),
        within_distances=np.empty(0),
    )
    for i in range(40)
]
for c in _cap_candidates(candidates, 12):
    print(c.rule_id, c.label, c.frequency)
"""


class TestCapCandidates:
    def test_first_appearance_label_order(self):
        candidates = [
            _candidate(np.arange(8.0), label=label, frequency=f)
            for label, f in [("b", 5), ("a", 9), ("b", 1), ("a", 2), ("c", 7)]
        ]
        capped = _cap_candidates(candidates, 3)
        assert [c.label for c in capped] == ["b", "a", "c"]
        assert [c.frequency for c in capped] == [5, 9, 7]

    def test_no_cap_below_limit(self):
        candidates = [_candidate(np.arange(8.0), label="x")]
        assert _cap_candidates(candidates, 5) is candidates

    def test_order_independent_of_hash_seed(self):
        # String labels once flowed through a set(), so the capped pool
        # depended on PYTHONHASHSEED. Two interpreters with different
        # seeds must now produce the identical pool.
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for seed in ("0", "424242"):
            env = os.environ.copy()
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", _CAP_ORDER_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].strip()
