"""Vectorized sliding-window distance kernel.

The z-normalized distance profile of a pattern ``q`` against every
window of every series decomposes into three parts:

* statistics that depend only on the *series matrix*: the centred rows,
  their cumulative sums and sums of squares, the RMS flatness floor and
  the FFT series spectrum (:class:`SeriesPrefix`, one per matrix);
* statistics that also depend on the *window length*: the rolling
  window sd, the flat-window mask and the strided window view
  (:class:`SlidingWindowStats`, a cheap view over the prefix);
* a per-pattern cross-correlation ``⟨w, q⟩`` plus O(1) arithmetic.

Every pattern of a given length pays only the cross-correlation, and
every length of a pattern bank shares one prefix and one spectrum (the
paper's transform evaluates *all* patterns against *all* series, so the
reuse factor is the number of patterns per matrix).
``SlidingWindowStats(X, L)`` builds a private prefix, so its arrays are
bitwise those of ``SlidingWindowStats(SeriesPrefix(X), L)``.

Two backends compute the cross-correlation:

``matvec``
    One ``(n, J, L) @ (L,)`` mat-vec per pattern. The arithmetic is
    identical, expression for expression, to the reference
    implementation in ``repro.distance.best_match`` — results are
    bitwise equal, which the transform parity tests rely on.
``fft``
    The MASS trick: ``QT = irfft(rfft(X) · rfft(reverse(q)))`` computes
    every alignment of every pattern in O(n log n) per series instead
    of O(n·L) per pattern. ``nfft`` depends only on the series length,
    so the prefix computes the series spectrum once per matrix and
    every per-length bucket shares it; a bucket's patterns are stacked
    into one ``(k, L)`` matrix and transformed in a single batched FFT.
    Downstream arithmetic (the ``2L − 2·QT/σ_w`` distance identity,
    flat-window/flat-pattern branches) is the exact mat-vec expression
    — only the dot products differ, by FFT rounding (relative error
    ~1e-12), so distances agree to ~1e-9 relative with a small absolute
    floor near zero (see ``docs/runtime.md``).

``resolve_backend`` picks between them: ``auto`` selects FFT only above
a calibrated series-length × pattern-length × bucket-size crossover, so
short series keep the bitwise-exact mat-vec path.

The closest-match reductions (:meth:`SlidingWindowStats.best_distances`
and :meth:`~SlidingWindowStats.batch_best_distances_prenormalized`)
build no profiles. They keep each row's largest ``⟨w, q⟩/σ_w`` and
subtract once; only the (pattern, row) pairs with a flat window, a flat
pattern or a near-perfect match are finished window by window. The
result is the profiles' row minima, bit for bit.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

import numpy as np

from ..obs.metrics import registry
from ..sax.znorm import NORM_THRESHOLD, is_flat, znorm

__all__ = [
    "KERNEL_BACKENDS",
    "PrenormalizedPattern",
    "SeriesPrefix",
    "SlidingWindowStats",
    "prenormalize_pattern",
    "resample_pattern",
    "resolve_backend",
    "sliding_best_distances",
    "tie_break_argmin",
    "tie_break_argmin_rows",
]

#: Accepted values for the kernel's ``backend`` argument.
KERNEL_BACKENDS = ("auto", "fft", "matvec")

#: ``auto`` crossover, calibrated on the batched transform benchmark
#: (``benchmarks/bench_transform.py``): FFT cost per pattern is
#: ~``nfft·log2(nfft)`` independent of the pattern length ``L``, while
#: the mat-vec costs ``J·L``, so FFT wins once ``L`` clears a few
#: multiples of ``log2(m)`` — and never pays off on short series or
#: tiny (bucket × length) workloads where its fixed overhead dominates.
#: Module-level on purpose: tests monkeypatch them to force the
#: crossover on tiny data.
FFT_MIN_SERIES_LENGTH = 128
FFT_MIN_BATCH_WORK = 64  # bucket size k × pattern length L
FFT_LENGTH_CROSSOVER = 6.0  # use FFT when L ≥ crossover · log2(m)

#: Scratch budget for one chunk of a bucket's dot products. Patterns are
#: processed in chunks so the ``(chunk, n, nfft/2+1)`` spectrum product
#: of the FFT, or the ``(chunk, n, J)`` block of the mat-vec, never
#: balloons with the bucket size. Each row's products are computed on
#: their own, so the chunking never changes a bit. Small chunks stay in
#: cache: on a 2-vCPU Xeon VM, a 14-pattern FFT bucket of length 129
#: against 512 rows of 1,024 points took 71-79 ms per call at 1-4 MB
#: against 118 ms at 32 MB, and batches of a few rows still stack many
#: patterns per chunk.
_SCRATCH_BYTES = 2 * 1024 * 1024

#: Tie-breaking tolerance for best-match positions: every alignment
#: whose distance is within ``TIE_ATOL + TIE_RTOL·min`` of the row
#: minimum counts as tied, and the *smallest index* wins. The absolute
#: floor absorbs the sqrt-amplified backend noise near perfect matches
#: (dist² ~1e-13 of FFT rounding becomes ~3e-7 in the distance), so all
#: backends resolve ties identically.
TIE_RTOL = 1e-8
TIE_ATOL = 1e-6

#: Near-perfect matches: a squared distance below this, per pattern
#: point, is recomputed from the explicitly z-normalized window. The
#: prefix-sum variance carries cancellation noise of about
#: eps · (row energy) / (window variance) into ``2L − 2·dot/σ``, which
#: the square root lifts past ``TIE_ATOL`` near zero, where ties between
#: exact matches must resolve alike on every backend and in the oracle.
NEAR_MATCH_D2 = 1e-6


def resolve_backend(
    backend: str,
    *,
    length: int,
    series_length: int,
    batch_size: int = 1,
) -> str:
    """Resolve an ``auto``/``fft``/``matvec`` request to a concrete backend.

    ``auto`` applies the calibrated crossover: FFT only for series of at
    least :data:`FFT_MIN_SERIES_LENGTH` points, buckets with at least
    :data:`FFT_MIN_BATCH_WORK` pattern-points of work, and patterns long
    enough (``length ≥ FFT_LENGTH_CROSSOVER · log2(series_length)``)
    that the O(L)→O(log m) per-window saving beats the FFT's fixed
    overhead. Everything else keeps the exact mat-vec path.
    """
    if backend not in KERNEL_BACKENDS:
        raise ValueError(f"backend must be one of {KERNEL_BACKENDS}, got {backend!r}")
    if backend != "auto":
        return backend
    if series_length < FFT_MIN_SERIES_LENGTH:
        return "matvec"
    if batch_size * length < FFT_MIN_BATCH_WORK:
        return "matvec"
    if length < FFT_LENGTH_CROSSOVER * math.log2(max(series_length, 2)):
        return "matvec"
    return "fft"


def tie_break_argmin(profile: np.ndarray, *, rtol: float = TIE_RTOL, atol: float = TIE_ATOL) -> int:
    """Best-match position of one distance profile, ties broken low.

    Returns the smallest index whose value is within
    ``atol + rtol·min`` of the profile minimum — the shared tie-break
    contract that keeps mat-vec, FFT and the scalar reference agreeing
    on positions even when rounding reorders near-equal distances.
    """
    return int(tie_break_argmin_rows(np.asarray(profile, dtype=float), rtol=rtol, atol=atol))


def tie_break_argmin_rows(
    profiles: np.ndarray, *, rtol: float = TIE_RTOL, atol: float = TIE_ATOL
) -> np.ndarray:
    """Vectorized :func:`tie_break_argmin` over the last axis."""
    p = np.asarray(profiles, dtype=float)
    lo = p.min(axis=-1, keepdims=True)
    # argmax of the boolean mask returns the first True — the smallest
    # tied index.
    return np.argmax(p <= lo + (atol + rtol * np.abs(lo)), axis=-1)


def resample_pattern(pattern: np.ndarray, length: int) -> np.ndarray:
    """Linear-interpolation resample of a pattern to ``length`` points.

    Used when a pattern is longer than the series it is matched against
    (a motif learned on long concatenated data meeting a short series).

    Degenerate inputs are rejected rather than silently flattened: a
    pattern with fewer than 2 points has no shape to interpolate
    (``np.interp`` against a single sample point would produce a
    constant), and a target below 2 points cannot hold one.
    """
    pattern = np.asarray(pattern, dtype=float)
    if pattern.ndim != 1:
        raise ValueError(f"pattern must be 1-D, got shape {pattern.shape}")
    if pattern.size < 2:
        raise ValueError(
            f"cannot resample a pattern with {pattern.size} point(s); "
            "patterns need at least 2 points"
        )
    length = int(length)
    if length < 2:
        raise ValueError(f"resample target length must be >= 2, got {length}")
    old = np.linspace(0.0, 1.0, num=pattern.size)
    new = np.linspace(0.0, 1.0, num=length)
    return np.interp(new, old, pattern)


class PrenormalizedPattern:
    """A pattern with its z-normalization hoisted out of the hot loop.

    :meth:`SlidingWindowStats.profiles` recomputes ``znorm(pattern)``
    and ``q @ q`` on every call; a serving engine matching the same
    pattern bank against every request can pay that once at compile
    time instead (see :class:`repro.serve.CompiledModel`). The stored
    values are exactly what ``profiles`` would compute — same
    expressions, same inputs — so the precompiled path stays bitwise
    identical to the on-the-fly one.
    """

    __slots__ = ("q", "q_is_flat", "qq", "length")

    def __init__(self, q: np.ndarray, q_is_flat: bool, qq: float) -> None:
        self.q = q
        self.q_is_flat = q_is_flat
        self.qq = qq
        self.length = int(q.size)


def prenormalize_pattern(pattern: np.ndarray) -> PrenormalizedPattern:
    """Precompute the per-pattern half of the distance profile.

    Returns the z-normalized pattern, its flatness flag and its squared
    norm — everything :meth:`SlidingWindowStats.profiles` derives from
    the raw values before touching the windows.
    """
    pattern = np.asarray(pattern, dtype=float)
    if pattern.ndim != 1:
        raise ValueError(f"pattern must be 1-D, got shape {pattern.shape}")
    q = znorm(pattern)
    q_is_flat = not q.any()
    return PrenormalizedPattern(q, q_is_flat, float(q @ q))


def exact_near_matches(
    d2: np.ndarray,
    windows: np.ndarray,
    flat: np.ndarray,
    q: np.ndarray,
    rows: np.ndarray | None = None,
) -> None:
    """Recompute the near-perfect matches of ``d2`` in place.

    ``d2`` ``(k, n, J)`` holds the squared distances of the patterns
    ``q`` ``(k, L)`` to ``windows`` ``(n, J, L)``, and ``flat`` ``(n, J)``
    their flat-window mask; each entry below ``NEAR_MATCH_D2 · L`` on a
    non-flat window becomes ``Σ (ẑ(w) − q)²``. When ``d2`` covers only
    some series, ``rows`` names the rows of ``windows`` they are (``flat``
    then holds only those rows).
    """
    near = d2 < NEAR_MATCH_D2 * q.shape[-1]
    if near.any():
        near &= ~flat
        k, row, col = np.nonzero(near)
        w = windows[row if rows is None else rows[row], col]
        w = w - w.mean(axis=1, keepdims=True)
        w /= np.sqrt((w * w).mean(axis=1, keepdims=True))
        d2[k, row, col] = ((w - q[k]) ** 2).sum(axis=1)


def _next_pow2(n: int) -> int:
    return 1 << max(int(n) - 1, 0).bit_length()


class SeriesPrefix:
    """The window-length-independent statistics of a series matrix.

    Parameters
    ----------
    X:
        ``(n, m)`` series matrix, ``m >= 2``.

    Holds the centred rows, both cumulative sums (each with a leading
    zero column), the per-row RMS flatness floor and, built lazily and
    at most once, the rfft of every centred row. None of it depends on
    a window length: ``nfft`` is the next power of two ``>= m``, so one
    spectrum serves every length. ``SlidingWindowStats(prefix, L)``
    derives a per-length view from these arrays, which lets a pattern
    bank with several lengths pay for one prefix, and one spectrum, per
    batch. Immutable after construction (the spectrum build is
    idempotent and lock-guarded) and safe to share across threads; it
    pickles without its spectrum.
    """

    __slots__ = (
        "n_series",
        "series_length",
        "nfft",
        "centered",
        "cumsum",
        "cumsum2",
        "floor",
        "_xf",
        "_fft_lock",
    )

    def __init__(self, X: np.ndarray) -> None:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"window statistics need a 2-D series matrix, got shape {X.shape}")
        n_rows, m = X.shape
        if m < 2:
            raise ValueError(f"series need >= 2 points, got {m}")
        # Centering the rows before the cumulative sums avoids the
        # catastrophic cancellation of sum(x²)/L − mean² for series
        # with a large offset; window z-normalization is unaffected.
        # The pattern side is z-normalized (Σq = 0), so the per-row
        # shift also leaves every ⟨w, q⟩ dot product unchanged.
        X = X - X.mean(axis=1, keepdims=True)
        zeros = np.zeros((n_rows, 1))
        cumsum = np.concatenate([zeros, np.cumsum(X, axis=1)], axis=1)
        cumsum2 = np.concatenate([zeros, np.cumsum(X * X, axis=1)], axis=1)
        # Flatness threshold with a magnitude-relative noise floor: the
        # cumulative-sum variance estimate carries cancellation noise
        # proportional to the series' squared magnitude.
        rms = np.sqrt(cumsum2[:, -1:] / m)
        self.__setstate__((X, cumsum, cumsum2, np.maximum(NORM_THRESHOLD, 1e-7 * rms)))

    def __getstate__(self):
        # Process workers receive the arrays by value and rebuild the
        # spectrum (and a fresh lock) on first use.
        return (self.centered, self.cumsum, self.cumsum2, self.floor)

    def __setstate__(self, state) -> None:
        self.centered, self.cumsum, self.cumsum2, self.floor = state
        self.n_series, self.series_length = self.centered.shape
        # nfft ≥ m keeps the circular convolution free of wrap-around in
        # the retained lags; the next power of two keeps rfft on its
        # fastest path.
        self.nfft = _next_pow2(self.series_length)
        self._xf = None
        self._fft_lock = threading.Lock()

    def series_fft(self) -> np.ndarray:
        """The rfft of every centred row, built once per matrix.

        One spectrum serves every pattern of every window length. The
        build is idempotent under races; the lock only keeps concurrent
        first callers from duplicating the work.
        """
        xf = self._xf
        if xf is None:
            with self._fft_lock:
                xf = self._xf
                if xf is None:
                    xf = self._xf = np.fft.rfft(self.centered, self.nfft, axis=1)
                    registry().inc("kernel.fft.series_ffts")
        return xf


class SlidingWindowStats:
    """Rolling statistics of every length-``L`` window of a series matrix.

    Parameters
    ----------
    X:
        ``(n, m)`` series matrix, or the :class:`SeriesPrefix` of one.
    length:
        Window length ``L`` with ``2 <= L <= m``.

    A per-length view over a :class:`SeriesPrefix`: the window sd from
    the prefix's cumulative sums, the flat-window mask, the safe sd
    divisor and the strided window view. Given a matrix it builds the
    prefix first, so ``SlidingWindowStats(X, L)`` and
    ``SlidingWindowStats(SeriesPrefix(X), L)`` hold bitwise-equal arrays.
    :meth:`profiles` then costs one ``(n, J, L) @ (L,)`` mat-vec per
    pattern or, through the batched FFT backend
    (:meth:`batch_profiles_prenormalized`), O(n log n) per pattern
    against the prefix's one series spectrum. Instances are immutable
    after construction and safe to share across threads.
    """

    __slots__ = (
        "prefix",
        "length",
        "series_length",
        "n_series",
        "n_windows",
        "sd",
        "flat",
        "safe_sd",
        "windows",
    )

    def __init__(self, X, length: int) -> None:
        prefix = X if isinstance(X, SeriesPrefix) else SeriesPrefix(X)
        m = prefix.series_length
        length = int(length)
        if not 2 <= length <= m:
            raise ValueError(f"window length must be in [2, {m}], got {length}")
        self.prefix = prefix
        self.length = length
        self.series_length = m
        self.n_series = prefix.n_series
        self.n_windows = m - length + 1
        window_sum = prefix.cumsum[:, length:] - prefix.cumsum[:, :-length]
        window_sum2 = prefix.cumsum2[:, length:] - prefix.cumsum2[:, :-length]
        mean = window_sum / length
        var = window_sum2 / length - mean * mean
        np.maximum(var, 0.0, out=var)
        self.sd = np.sqrt(var)
        self.flat = is_flat(self.sd, prefix.floor)
        self.safe_sd = np.where(self.flat, 1.0, self.sd)
        self.windows = np.lib.stride_tricks.sliding_window_view(prefix.centered, length, axis=1)

    # -- dot products ----------------------------------------------------------

    def _quotient_chunks(self, pres: Sequence[PrenormalizedPattern], backend: str):
        """Yield ``(lo, hi, R)``: ``R[i, r, j] = ⟨w_rj, q_i⟩ / safe_sd[r, j]``.

        One loop serves both backends and both reductions. The mat-vec
        writes each pattern's ``(n, J)`` products into one block; the FFT
        stacks a chunk's patterns into one matrix, so a single batched
        rfft/irfft covers the chunk, and divides in its ``irfft`` output.
        Chunks hold :data:`_SCRATCH_BYTES` of products (of spectrum
        products, for the FFT).
        """
        L = self.length
        m = self.series_length
        if backend == "fft":
            xf = self.prefix.series_fft()
            nfft = self.prefix.nfft
            per_pattern = self.n_series * (nfft // 2 + 1) * 16
        else:
            per_pattern = self.n_series * self.n_windows * 8
        chunk = max(1, _SCRATCH_BYTES // max(per_pattern, 1))
        for lo in range(0, len(pres), chunk):
            block = pres[lo : lo + chunk]
            if backend == "fft":
                # Correlation as convolution with the reversed pattern:
                # conv[t] = Σ_i x[t−i]·q[L−1−i], so lag t = L−1+j recovers
                # QT[j] = ⟨x[j:j+L], q⟩ for every alignment j at once.
                qf = np.fft.rfft(np.stack([pre.q for pre in block])[:, ::-1], nfft, axis=1)
                R = np.fft.irfft(qf[:, None, :] * xf[None, :, :], nfft, axis=2)[:, :, L - 1 : m]
            else:
                R = np.empty((len(block), self.n_series, self.n_windows))
                for i, pre in enumerate(block):
                    np.matmul(self.windows, pre.q, out=R[i])
            np.divide(R, self.safe_sd, out=R)
            yield lo, lo + len(block), R

    def _finish(self, d2: np.ndarray, pre: PrenormalizedPattern, rows=None) -> None:
        """Turn ``d2 = 2L − 2·R`` into squared distances, in place.

        ``d2`` ``(p, J)`` holds the rows ``rows`` (every row when
        ``None``) of one pattern's quotients. The pattern is
        z-normalized, so ``2L − 2·⟨w, q⟩/σ_w`` is the squared distance of
        every non-flat window; this recomputes the near-perfect matches,
        sets the flat branches and clips at 0. ``2·R`` is exact, so
        ``2L − 2·R`` is, bit for bit, the ``2L − 2·⟨w, q⟩/σ_w`` of the
        mat-vec reference expression.
        """
        flat = self.flat if rows is None else self.flat[rows]
        exact_near_matches(d2[np.newaxis], self.windows, flat, pre.q[np.newaxis], rows)
        # Flat window vs pattern: ẑ(w) = 0, so dist² = Σ q².
        d2[flat] = 0.0 if pre.q_is_flat else pre.qq
        if pre.q_is_flat:
            # Pattern flat vs non-flat window: dist² = Σ ẑ(w)² = L.
            d2[~flat] = float(self.length)
        np.maximum(d2, 0.0, out=d2)

    def _dispatch(self, pres: Sequence[PrenormalizedPattern], backend: str) -> str:
        """Check the bucket's lengths, resolve and count the backend."""
        for pre in pres:
            if pre.length != self.length:
                raise ValueError(
                    f"pattern must have {self.length} points, got {pre.length}"
                )
        resolved = resolve_backend(
            backend,
            length=self.length,
            series_length=self.series_length,
            batch_size=len(pres),
        )
        registry().inc(f"kernel.backend.{resolved}")
        return resolved

    def _prenormalize(self, pattern: np.ndarray) -> PrenormalizedPattern:
        pattern = np.asarray(pattern, dtype=float)
        if pattern.ndim != 1 or pattern.size != self.length:
            raise ValueError(
                f"pattern must be 1-D with {self.length} points, got shape {pattern.shape}"
            )
        return prenormalize_pattern(pattern)

    # -- profiles --------------------------------------------------------------

    def _profiles(self, pres: Sequence[PrenormalizedPattern], backend: str) -> np.ndarray:
        """Distance profiles ``(k, n, J)``: every window finished."""
        out = np.empty((len(pres), self.n_series, self.n_windows))
        for lo, hi, d2 in self._quotient_chunks(pres, backend):
            np.multiply(d2, 2.0, out=d2)
            np.subtract(2.0 * self.length, d2, out=d2)
            for i, pre in enumerate(pres[lo:hi]):
                self._finish(d2[i], pre)
            np.sqrt(d2, out=out[lo:hi])
        return out

    def profiles(self, pattern: np.ndarray, backend: str = "matvec") -> np.ndarray:
        """Distance profiles ``(n, J)`` of one pattern against all rows.

        ``pattern`` must already have exactly ``self.length`` points
        (resample longer patterns first — see :func:`resample_pattern`).
        """
        return self.profiles_prenormalized(self._prenormalize(pattern), backend=backend)

    def profiles_prenormalized(
        self, pre: PrenormalizedPattern, backend: str = "matvec"
    ) -> np.ndarray:
        """Distance profiles for an already-normalized pattern.

        Callers holding a :class:`PrenormalizedPattern` skip the
        per-call z-normalization without changing a single
        floating-point expression. ``backend`` defaults to the
        bitwise-exact mat-vec; ``"fft"``/``"auto"`` route through the
        batched FFT path.
        """
        return self._profiles([pre], self._dispatch([pre], backend))[0]

    def batch_profiles_prenormalized(
        self, pres: Sequence[PrenormalizedPattern], backend: str = "auto"
    ) -> np.ndarray:
        """Distance profiles ``(k, n, J)`` of a whole per-length bucket.

        The FFT backend runs all ``k`` patterns against the prefix's
        one series spectrum in batched transforms; the mat-vec backend
        stacks ``k`` per-pattern results and stays bitwise identical to
        :meth:`profiles_prenormalized`.
        """
        pres = list(pres)
        return self._profiles(pres, self._dispatch(pres, backend))

    # -- best-match reductions -------------------------------------------------

    def _best(self, pres: Sequence[PrenormalizedPattern], backend: str) -> np.ndarray:
        """Closest-match distances ``(k, n)`` without building profiles.

        ``y ↦ 2L − y`` is monotone non-increasing in floating point too,
        so the row minimum of ``2L − 2·R`` is ``2L − 2·max R``: one
        subtraction per (pattern, row). That holds where every window is
        non-flat, the pattern is not flat and no window is a near-perfect
        match (the minimum is at least ``NEAR_MATCH_D2 · L``, so the clip
        is moot too). Every other (pattern, row) pair is finished window
        by window, as the profiles are. Equal, bit for bit, to the square
        root of the profiles' row minima.
        """
        L = self.length
        out = np.empty((len(pres), self.n_series))
        has_flat = self.flat.any(axis=1)
        for lo, hi, R in self._quotient_chunks(pres, backend):
            best = np.multiply(R.max(axis=2), 2.0)
            np.subtract(2.0 * L, best, out=best)
            q_flat = np.array([pre.q_is_flat for pre in pres[lo:hi]])
            redo = (best < NEAR_MATCH_D2 * L) | has_flat | q_flat[:, None]
            for i in np.flatnonzero(redo.any(axis=1)):
                rows = np.flatnonzero(redo[i])
                d2 = 2.0 * L - 2.0 * R[i, rows]
                self._finish(d2, pres[lo + i], rows)
                best[i, rows] = d2.min(axis=1)
            np.sqrt(best, out=out[lo:hi])
        return out

    def best_distances(self, pattern: np.ndarray, backend: str = "matvec") -> np.ndarray:
        """Closest-match distance of one pattern to every row."""
        pre = self._prenormalize(pattern)
        return self._best([pre], self._dispatch([pre], backend))[0]

    def batch_best_distances_prenormalized(
        self, pres: Sequence[PrenormalizedPattern], backend: str = "auto"
    ) -> np.ndarray:
        """Closest-match distances ``(k, n)`` of a whole bucket.

        Each chunk's dot products reduce to their row maxima as they are
        produced, so no ``(k, n, J)`` profile ever materializes; only the
        (pattern, row) pairs with a flat window, a flat pattern or a
        near-perfect match are finished window by window. Bitwise equal
        to the row minima of :meth:`batch_profiles_prenormalized`.
        """
        pres = list(pres)
        return self._best(pres, self._dispatch(pres, backend))


def sliding_best_distances(
    pattern: np.ndarray,
    X: np.ndarray,
    *,
    cache=None,
    token=None,
    backend: str = "auto",
) -> np.ndarray:
    """Closest-match distances of one pattern to every row of ``X``.

    Functional entry point used by the feature transform: resamples an
    over-long pattern, fetches (or builds) the window statistics —
    through ``cache`` (a :class:`~repro.runtime.cache.WindowStatsCache`)
    when given — and reduces the profiles to their row minima. ``token``
    lets callers amortize the cache's series fingerprint across many
    patterns. ``backend`` selects the cross-correlation implementation
    (``auto`` keeps the exact mat-vec path below the FFT crossover).
    """
    pattern = np.asarray(pattern, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("sliding_best_distances expects a 2-D series matrix")
    m = X.shape[1]
    if pattern.size > m:
        pattern = resample_pattern(pattern, m)
    if cache is None:
        stats = SlidingWindowStats(X, pattern.size)
    else:
        stats = cache.stats(X, pattern.size, token=token)
    return stats.best_distances(pattern, backend=backend)
