"""The FFT distance-profile backend vs mat-vec vs the naive oracle.

Property-based coverage of the MASS-style batched kernel: on random
shapes, scales, offsets and degenerate inputs, the three
implementations must produce distances within the shared tolerance
model and *identical* best-match positions under the tie-break
contract. Also pins backend dispatch — ``resolve_backend`` boundaries,
the ``kernel.backend.*`` counters, spectrum reuse, and
:class:`~repro.serve.CompiledModel`'s per-bucket routing under
``auto``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import scoped_registry
from repro.runtime import kernel
from repro.runtime.kernel import (
    SlidingWindowStats,
    prenormalize_pattern,
    resample_pattern,
    resolve_backend,
    sliding_best_distances,
    tie_break_argmin,
)
from repro.serve import CompiledModel
from tests.oracles import (
    assert_argmin_equal,
    assert_profiles_close,
    naive_best_distances,
    naive_profiles,
    profile_min_best_distances,
)


def _all_backends(stats: SlidingWindowStats, pattern: np.ndarray):
    pre = prenormalize_pattern(pattern)
    return (
        stats.profiles_prenormalized(pre, backend="matvec"),
        stats.profiles_prenormalized(pre, backend="fft"),
    )


def _check_case(X: np.ndarray, pattern: np.ndarray) -> None:
    """The core cross-backend contract for one (matrix, pattern) case."""
    stats = SlidingWindowStats(X, pattern.size)
    mat, fft = _all_backends(stats, pattern)
    naive = naive_profiles(pattern, X)
    assert_profiles_close(fft, mat, err_msg="fft vs matvec")
    assert_profiles_close(mat, naive, err_msg="matvec vs naive")
    assert_argmin_equal(fft, mat, err_msg="fft vs matvec argmin")
    assert_argmin_equal(mat, naive, err_msg="matvec vs naive argmin")


class TestFftPropertySuite:
    """Randomized cross-backend agreement (hypothesis-driven shapes)."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        m=st.integers(8, 96),
        length_frac=st.floats(0.02, 1.0),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        offset_factor=st.sampled_from([0.0, 1.0, 1e4]),
        flat_row=st.booleans(),
        flat_run=st.booleans(),
    )
    # Exact matches of a length-2 pattern, one on a window with sd 2% of
    # the row's scale: the prefix-sum identity alone read 1.26e-6 there.
    @example(
        seed=4895, n=2, m=16, length_frac=0.125, scale=1000.0,
        offset_factor=0.0, flat_row=False, flat_run=True,
    )
    def test_random_inputs_agree_across_backends(
        self, seed, n, m, length_frac, scale, offset_factor, flat_row, flat_run
    ):
        # Offsets scale with the data so conditioning stays within the
        # kernels' shared magnitude-relative flatness floor — an
        # offset/noise ratio beyond ~1e7 makes window flatness itself
        # ill-defined, which is a different property than backend
        # agreement.
        length = max(2, min(m, round(length_frac * m)))
        rng = np.random.default_rng(seed)
        X = (rng.standard_normal((n, m)) + offset_factor) * scale
        if flat_row:
            X[0] = offset_factor * scale
        if flat_run:
            X[-1, : min(m, length + 2)] = X[-1, 0]
        pattern = rng.standard_normal(length) * scale
        _check_case(X, pattern)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(8, 64),
        length=st.integers(2, 16),
        value=st.sampled_from([0.0, 1.0, -7.5]),
    )
    def test_flat_pattern_agrees_across_backends(self, seed, m, length, value):
        length = min(length, m)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((3, m))
        _check_case(X, np.full(length, value))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(8, 48),
        extra=st.integers(1, 40),
    )
    def test_resample_path_agrees_across_backends(self, seed, m, extra):
        # Pattern longer than the series: every backend must hit the
        # same linear-resample-then-single-alignment path.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((4, m))
        pattern = rng.standard_normal(m + extra)
        mat = sliding_best_distances(pattern, X, backend="matvec")
        fft = sliding_best_distances(pattern, X, backend="fft")
        assert_profiles_close(fft, mat, err_msg="fft vs matvec")
        assert_profiles_close(mat, naive_best_distances(pattern, X))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), value=st.floats(-100.0, 100.0))
    def test_constant_series_agrees_across_backends(self, seed, value):
        X = np.full((3, 40), value)
        rng = np.random.default_rng(seed)
        _check_case(X, rng.standard_normal(9))

    def test_non_divisible_lengths(self):
        # Prime series length × prime window length: nfft (next power
        # of two) shares no factors with either, so retained-lag
        # indexing is exercised off every convenient boundary.
        rng = np.random.default_rng(11)
        X = rng.standard_normal((4, 97))
        _check_case(X, rng.standard_normal(31))

    def test_planted_duplicate_match_ties_break_low(self):
        # Two affine copies of the motif → two (near-)zero alignments;
        # every backend must report the *first* one.
        rng = np.random.default_rng(5)
        motif = rng.standard_normal(16)
        X = rng.standard_normal((2, 64))
        for row in X:
            row[5:21] = 2.0 * motif + 3.0
            row[40:56] = 0.5 * motif - 1.0
        stats = SlidingWindowStats(X, 16)
        mat, fft = _all_backends(stats, motif)
        naive = naive_profiles(motif, X)
        for profiles in (mat, fft, naive):
            for row_profile in profiles:
                assert tie_break_argmin(row_profile) == 5
                assert row_profile[5] == pytest.approx(0.0, abs=1e-6)

    def test_batch_matvec_bitwise_equals_single_calls(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((5, 60))
        stats = SlidingWindowStats(X, 12)
        pres = [prenormalize_pattern(rng.standard_normal(12)) for _ in range(6)]
        batch = stats.batch_profiles_prenormalized(pres, backend="matvec")
        singles = np.stack(
            [stats.profiles_prenormalized(pre, backend="matvec") for pre in pres]
        )
        np.testing.assert_array_equal(batch, singles)

    def test_single_pattern_fft_bitwise_equals_batch_row(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 60))
        stats = SlidingWindowStats(X, 12)
        pre = prenormalize_pattern(rng.standard_normal(12))
        single = stats.profiles_prenormalized(pre, backend="fft")
        batch = stats.batch_profiles_prenormalized([pre], backend="fft")
        np.testing.assert_array_equal(single, batch[0])


def _assert_bitwise(actual: np.ndarray, expected: np.ndarray, err_msg: str) -> None:
    assert actual.shape == expected.shape, err_msg
    np.testing.assert_array_equal(
        actual.view(np.uint64), expected.view(np.uint64), err_msg=err_msg
    )


class TestBestDistanceReduction:
    """The closest-match reduction against the profile-then-minimum oracle.

    ``batch_best_distances_prenormalized`` and ``best_distances`` reduce
    the dot products to one maximum per (pattern, row) and finish only
    the pairs with a flat window, a flat pattern or a near-perfect match
    window by window; the result must be the profiles' row minima, bit
    for bit, on every backend.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        m=st.integers(8, 160),
        length_frac=st.floats(0.02, 1.0),
        k=st.integers(1, 6),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        offset=st.sampled_from([0.0, 1.0, 1e4, 1e6]),
        plant=st.sampled_from(["none", "exact", "affine"]),
        flat_row=st.booleans(),
        flat_run=st.booleans(),
        flat_pattern=st.booleans(),
        backend=st.sampled_from(["matvec", "fft", "auto"]),
    )
    def test_equals_profile_minimum_bitwise(
        self, seed, n, m, length_frac, k, scale, offset, plant, flat_row, flat_run,
        flat_pattern, backend,
    ):
        length = max(2, min(m, round(length_frac * m)))
        rng = np.random.default_rng(seed)
        X = (rng.standard_normal((n, m)) + offset) * scale
        patterns = [rng.standard_normal(length) * scale for _ in range(k)]
        for row in range(n):
            pos = int(rng.integers(0, m - length + 1))
            if plant == "exact":
                X[row, pos : pos + length] = patterns[row % k]
            elif plant == "affine":
                X[row, pos : pos + length] = 2.5 * patterns[row % k] - 7.0 * scale
        if flat_row:
            X[0] = offset * scale
        if flat_run:
            X[-1, : min(m, length + 2)] = X[-1, 0]
        if flat_pattern:
            patterns[-1] = np.full(length, offset * scale)
        stats = SlidingWindowStats(X, length)
        pres = [prenormalize_pattern(p) for p in patterns]
        expected = profile_min_best_distances(stats, pres, backend)
        _assert_bitwise(
            stats.batch_best_distances_prenormalized(pres, backend=backend),
            expected,
            f"batch, {backend}",
        )
        # Under 'auto' one pattern is a bucket of one, which can resolve
        # to the other backend than the bucket of k: its oracle is the
        # one-pattern profile minimum.
        _assert_bitwise(
            stats.best_distances(patterns[-1], backend=backend),
            profile_min_best_distances(stats, pres[-1:], backend)[0],
            f"one pattern, {backend}",
        )

    @pytest.mark.parametrize("backend", ["matvec", "fft"])
    def test_chunked_bucket_equals_profile_minimum_bitwise(self, backend, monkeypatch):
        # A scratch budget of one byte puts every pattern in a chunk of
        # its own; the reduction must not depend on the chunking.
        rng = np.random.default_rng(13)
        X = rng.standard_normal((3, 200))
        X[1, 50:80] = 4.0
        stats = SlidingWindowStats(X, 30)
        pres = [prenormalize_pattern(rng.standard_normal(30)) for _ in range(5)]
        whole = stats.batch_best_distances_prenormalized(pres, backend=backend)
        monkeypatch.setattr(kernel, "_SCRATCH_BYTES", 1)
        _assert_bitwise(
            stats.batch_best_distances_prenormalized(pres, backend=backend), whole, backend
        )
        _assert_bitwise(profile_min_best_distances(stats, pres, backend), whole, backend)


class TestResampleEdgeCases:
    def test_rejects_single_point_pattern(self):
        with pytest.raises(ValueError, match="at least 2"):
            resample_pattern(np.array([3.0]), 10)

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError, match="at least 2"):
            resample_pattern(np.empty(0), 10)

    def test_rejects_target_below_two(self):
        with pytest.raises(ValueError, match=">= 2"):
            resample_pattern(np.arange(8.0), 1)

    def test_rejects_2d_pattern(self):
        with pytest.raises(ValueError, match="1-D"):
            resample_pattern(np.ones((2, 4)), 8)

    def test_same_length_is_identity(self):
        pattern = np.array([1.0, -2.0, 0.5, 4.0])
        np.testing.assert_array_equal(resample_pattern(pattern, 4), pattern)

    def test_two_point_pattern_becomes_linear_ramp(self):
        np.testing.assert_allclose(
            resample_pattern(np.array([0.0, 1.0]), 5), np.linspace(0.0, 1.0, 5)
        )

    def test_endpoints_and_range_preserved(self):
        rng = np.random.default_rng(9)
        pattern = rng.standard_normal(13)
        for target in (2, 5, 7, 40):
            out = resample_pattern(pattern, target)
            assert out.size == target
            assert out[0] == pattern[0] and out[-1] == pattern[-1]
            assert out.min() >= pattern.min() and out.max() <= pattern.max()


class TestResolveBackend:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("simd", length=32, series_length=1024)

    def test_explicit_backends_pass_through(self):
        # Even on workloads where auto would choose the opposite.
        assert resolve_backend("fft", length=2, series_length=8) == "fft"
        assert (
            resolve_backend("matvec", length=256, series_length=4096, batch_size=64)
            == "matvec"
        )

    def test_auto_short_series_stays_matvec(self):
        assert (
            resolve_backend("auto", length=64, series_length=120, batch_size=64)
            == "matvec"
        )

    def test_auto_small_batch_work_stays_matvec(self):
        assert (
            resolve_backend("auto", length=63, series_length=1024, batch_size=1)
            == "matvec"
        )

    def test_auto_short_pattern_stays_matvec(self):
        # 16 < 6·log2(1024) = 60, regardless of bucket size.
        assert (
            resolve_backend("auto", length=16, series_length=1024, batch_size=64)
            == "matvec"
        )

    def test_auto_long_pattern_big_batch_goes_fft(self):
        assert (
            resolve_backend("auto", length=64, series_length=1024, batch_size=8)
            == "fft"
        )


class TestBackendMetrics:
    def test_dispatch_counters_and_spectrum_reuse(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((4, 50))
        with scoped_registry() as reg:
            stats = SlidingWindowStats(X, 10)
            stats.profiles(rng.standard_normal(10), backend="matvec")
            stats.profiles(rng.standard_normal(10), backend="fft")
            stats.profiles(rng.standard_normal(10), backend="fft")
            assert reg.counter_value("kernel.backend.matvec") == 1
            assert reg.counter_value("kernel.backend.fft") == 2
            # The series spectrum is built once and shared by both FFT
            # calls.
            assert reg.counter_value("kernel.fft.series_ffts") == 1


class _StubClassifier:
    def predict(self, features):
        return np.zeros(features.shape[0], dtype=int)


class TestCompiledModelDispatch:
    """Per-length bucket routing through the compiled serving path."""

    #: Pattern lengths → native buckets 8×3, 12×2, 20×1.
    LENGTHS = (8, 8, 8, 12, 12, 20)

    def _patterns(self):
        rng = np.random.default_rng(7)
        return [rng.standard_normal(n) for n in self.LENGTHS]

    def _model(self, **kw):
        return CompiledModel(self._patterns(), _StubClassifier(), **kw)

    def _transform(self, force_backend, backend, X, **kw):
        """``transform`` with every bucket forced onto ``backend``."""
        force_backend(backend)
        other = "fft" if backend == "matvec" else "matvec"
        with scoped_registry() as reg, self._model(**kw) as model:
            out = model.transform(X)
            assert reg.counter_value(f"kernel.backend.{backend}") > 0
            assert reg.counter_value(f"kernel.backend.{other}") == 0
        return out

    def test_mixed_length_buckets_fft_matches_matvec_and_oracle(self, force_backend):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((6, 32))
        mat = self._transform(force_backend, "matvec", X)
        fft = self._transform(force_backend, "fft", X)
        assert_profiles_close(fft, mat, err_msg="compiled fft vs matvec")
        for j, pattern in enumerate(self._patterns()):
            assert_profiles_close(
                mat[:, j], naive_best_distances(pattern, X), err_msg=f"col {j}"
            )

    def test_rotation_invariant_buckets_agree(self, force_backend):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((5, 32))
        mat = self._transform(force_backend, "matvec", X, rotation_invariant=True)
        fft = self._transform(force_backend, "fft", X, rotation_invariant=True)
        assert_profiles_close(fft, mat)
        for j, pattern in enumerate(self._patterns()):
            assert_profiles_close(
                mat[:, j],
                naive_best_distances(pattern, X, rotation_invariant=True),
                err_msg=f"col {j}",
            )

    def test_auto_stays_matvec_below_crossover(self):
        # m = 32 < FFT_MIN_SERIES_LENGTH: every bucket dispatches as
        # mat-vec, keeping compiled output bitwise identical to
        # training.
        rng = np.random.default_rng(33)
        X = rng.standard_normal((4, 32))
        with scoped_registry() as reg, self._model() as model:
            model.transform(X)
            assert reg.counter_value("kernel.backend.matvec") == 3
            assert reg.counter_value("kernel.backend.fft") == 0

    def test_auto_crossover_splits_buckets_by_workload(self, monkeypatch, force_backend):
        # Force the crossover onto tiny data: buckets with >= 24
        # pattern-points of work go FFT (8×3, 12×2), the lone length-20
        # pattern (20 points) stays mat-vec.
        monkeypatch.setattr(kernel, "FFT_MIN_SERIES_LENGTH", 16)
        monkeypatch.setattr(kernel, "FFT_MIN_BATCH_WORK", 24)
        monkeypatch.setattr(kernel, "FFT_LENGTH_CROSSOVER", 0.0)
        rng = np.random.default_rng(34)
        X = rng.standard_normal((4, 32))
        with scoped_registry() as reg, self._model() as model:
            auto = model.transform(X)
            assert reg.counter_value("kernel.backend.fft") == 2
            assert reg.counter_value("kernel.backend.matvec") == 1
        assert_profiles_close(auto, self._transform(force_backend, "matvec", X))
