"""Shared distance oracles and tolerance-aware assert helpers.

The optimized kernels (mat-vec and FFT alike) are pinned against the
one implementation slow enough to be obviously correct: z-normalize
every window explicitly, subtract, square, sum. Every distance-kernel
test in the suite compares against *this* module so the tolerance
model lives in exactly one place:

* mat-vec vs naive — the rolling-statistics identity introduces
  cancellation noise; distances agree to ``~1e-8`` absolute on
  well-conditioned data.
* FFT vs mat-vec — spectral round-trip noise is ``~1e-13`` on the
  squared distance; after the square root it is amplified near zero,
  so the shared tolerance is ``rtol=1e-9`` with an absolute floor of
  ``atol=1e-6`` (see ``docs/runtime.md``).

Argmin positions are compared through the kernels' own tie-break
contract (:func:`repro.runtime.kernel.tie_break_argmin_rows`): every
alignment within tolerance of the row minimum is a tie and the lowest
index wins, so positions are *exactly* equal across backends even when
the distances differ in the last bits.

The module also keeps the slow references that faster production
paths replaced and must reproduce bitwise:

* the greedy per-probe de-duplication (:func:`greedy_remove_similar`)
  that ``repro.core.selection`` replaced with one distance matrix per
  pool — kept list for kept list;
* the string-per-window SAX discretization (:func:`legacy_discretize`)
  that ``repro.sax.discretize`` replaced with integer code matrices —
  same words, offsets and dropped count;
* the per-pair CFS scorer (:class:`MeritEvaluator`,
  :func:`scalar_cfs_select`) that ``repro.ml.cfs`` replaced with the
  blocked-SU kernel — same SU values, subsets and merits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.distance.best_match import batch_best_distances
from repro.ml.cfs import (
    DEFAULT_BINS,
    DEFAULT_MAX_FEATURES,
    DEFAULT_MAX_STALE,
    CfsResult,
    _best_first_search,
    _searchable_indices,
    discretize_features,
    merit_from_sums,
    symmetrical_uncertainty,
)
from repro.runtime.kernel import (
    PrenormalizedPattern,
    SlidingWindowStats,
    prenormalize_pattern,
    resample_pattern,
    tie_break_argmin_rows,
)
from repro.sax.discretize import (
    SaxParams,
    _check_valid_start,
    _resolve_reduction,
    sliding_windows,
)
from repro.sax.sax import sax_words_for_rows
from repro.sax.znorm import znorm, znorm_rows

__all__ = [
    "DISTANCE_RTOL",
    "DISTANCE_ATOL",
    "DISTANCE_NEARZERO_RTOL",
    "naive_distance_profile",
    "naive_profiles",
    "naive_best_distances",
    "assert_profiles_close",
    "assert_argmin_equal",
    "greedy_remove_similar",
    "probe_distance",
    "LegacySaxRecord",
    "mindist_zero",
    "legacy_discretize",
    "MeritEvaluator",
    "scalar_cfs_select",
]

#: Shared tolerance model for cross-backend distance comparisons.
DISTANCE_RTOL = 1e-9
DISTANCE_ATOL = 1e-6
#: Distances below this fraction of the profile's range are
#: "numerically zero": σ-cancellation noise enters d² linearly and the
#: square root amplifies it to ~sqrt(2L·δ) near d == 0, so two
#: near-zero values compare equal (see :func:`assert_profiles_close`).
DISTANCE_NEARZERO_RTOL = 5e-3


def naive_distance_profile(pattern: np.ndarray, series: np.ndarray) -> np.ndarray:
    """O(m·L) reference profile: explicit z-norm per window, no identities.

    Mirrors the public contract of ``distance_profile``: a pattern
    longer than the series is linearly resampled down first (yielding a
    single-alignment profile), and flat windows/patterns z-normalize to
    zeros exactly as :func:`repro.sax.znorm.znorm` defines.
    """
    pattern = np.asarray(pattern, dtype=float)
    series = np.asarray(series, dtype=float)
    if pattern.size > series.size:
        pattern = resample_pattern(pattern, series.size)
    q = znorm(pattern)
    n = pattern.size
    out = np.empty(series.size - n + 1)
    for pos in range(out.size):
        w = znorm(series[pos : pos + n])
        out[pos] = float(np.sqrt(np.sum((w - q) ** 2)))
    return out


def naive_profiles(pattern: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Stacked :func:`naive_distance_profile` over every row of ``X``."""
    X = np.asarray(X, dtype=float)
    return np.stack([naive_distance_profile(pattern, row) for row in X])


def naive_best_distances(
    pattern: np.ndarray, X: np.ndarray, *, rotation_invariant: bool = False
) -> np.ndarray:
    """Closest-match distance of one pattern to every row, the slow way."""
    X = np.asarray(X, dtype=float)
    best = naive_profiles(pattern, X).min(axis=1)
    if rotation_invariant:
        half = X.shape[1] // 2
        X_rot = np.column_stack([X[:, half:], X[:, :half]])
        best = np.minimum(best, naive_profiles(pattern, X_rot).min(axis=1))
    return best


def assert_profiles_close(
    actual: np.ndarray,
    expected: np.ndarray,
    *,
    rtol: float = DISTANCE_RTOL,
    atol: float = DISTANCE_ATOL,
    err_msg: str = "",
) -> None:
    """Distances agree within the shared tolerance model, NaN-free.

    Shapes must match exactly; both sides must be finite and
    non-negative (a distance can never be otherwise — catching a NaN
    here beats catching it three layers up in a classifier).

    The kernels' error model lives on the *squared* distance: the
    rolling-statistics identity derives each window's σ from
    whole-series cumulative sums, so on offset-dominated data its
    relative error δ reaches ``eps · Σx²/var`` (~1e-5 at the
    offset/noise ratios the property suite allows), that δ enters
    ``d²`` linearly, and a true-zero distance surfaces as
    ``sqrt(2L·δ)`` — a few 1e-3 of the profile's range. No fixed
    d-space floor covers that honestly, so the model is two-tier: each
    element agrees in d-space (``rtol`` plus a floor scaled by the
    profile's dynamic range), *or* both sides are numerically zero
    relative to that range (:data:`DISTANCE_NEARZERO_RTOL` — the regime
    where the square root has amplified σ's cancellation noise past any
    meaningful digits). Genuinely wrong distances fail both tiers; the
    exact cross-backend check is :func:`assert_argmin_equal`.
    """
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape, (
        f"profile shape mismatch: {actual.shape} vs {expected.shape}"
        + (f" ({err_msg})" if err_msg else "")
    )
    assert np.all(np.isfinite(actual)), f"non-finite distances in actual {err_msg}"
    assert np.all(np.isfinite(expected)), f"non-finite distances in expected {err_msg}"
    assert np.all(actual >= 0.0), f"negative distances in actual {err_msg}"
    scale = max(1.0, float(np.max(expected, initial=0.0)))
    diff = np.abs(actual - expected)
    ok_d = diff <= atol * scale + rtol * np.abs(expected)
    ok_nearzero = np.maximum(actual, expected) <= DISTANCE_NEARZERO_RTOL * scale
    ok = ok_d | ok_nearzero
    if not np.all(ok):
        worst = int(np.argmax(np.where(ok, 0.0, diff)))
        raise AssertionError(
            f"distances diverge beyond the tolerance model ({err_msg}): "
            f"{int((~ok).sum())}/{ok.size} elements, worst at flat index "
            f"{worst}: actual={actual.flat[worst]!r} "
            f"expected={expected.flat[worst]!r} (scale={scale:g})"
        )


def assert_argmin_equal(
    actual_profiles: np.ndarray,
    expected_profiles: np.ndarray,
    *,
    err_msg: str = "",
) -> None:
    """Best-match positions agree under the shared tie-break contract.

    Both profile matrices are reduced with
    :func:`~repro.runtime.kernel.tie_break_argmin_rows` — the exact
    reduction every backend and ``distance.best_match`` use — and the
    resulting index vectors must be *identical*. This is the strong
    form of cross-backend agreement: not just close distances, but the
    same chosen alignment.
    """
    a = tie_break_argmin_rows(np.atleast_2d(np.asarray(actual_profiles)))
    b = tie_break_argmin_rows(np.atleast_2d(np.asarray(expected_profiles)))
    np.testing.assert_array_equal(a, b, err_msg=err_msg or "argmin positions diverged")


class _DedupBank:
    """One per-length bank of kept candidates for :func:`greedy_remove_similar`.

    Kept values live in a capacity-doubling row matrix alongside their
    :class:`~repro.runtime.kernel.PrenormalizedPattern` forms, so the
    longer-candidate probe is one batched kernel call.
    """

    __slots__ = ("length", "_values", "count", "prenormalized")

    def __init__(self, length: int) -> None:
        self.length = int(length)
        self._values = np.empty((4, self.length))
        self.count = 0
        self.prenormalized: list[PrenormalizedPattern] = []

    def append(self, values: np.ndarray) -> None:
        if self.count == self._values.shape[0]:
            grown = np.empty((2 * self.count, self.length))
            grown[: self.count] = self._values
            self._values = grown
        self._values[self.count] = values
        self.count += 1
        self.prenormalized.append(prenormalize_pattern(values))

    @property
    def values(self) -> np.ndarray:
        """The kept rows — a view, identical to stacking the kept list."""
        return self._values[: self.count]


def greedy_remove_similar(candidates: list, tau: float) -> list:
    """The per-probe greedy de-duplication (Algorithm 2, lines 5-18).

    Scans the candidates in descending frequency and probes each one
    against every kept candidate, bucketed by length. A shorter-or-equal
    candidate probes a bucket with one closest-match call over the
    bank's rows (row minimum); a longer candidate has every bank
    pattern slide over itself through the mat-vec kernel and takes the
    value at the tie-broken position.
    """
    ordered = sorted(candidates, key=lambda c: c.frequency, reverse=True)
    kept: list = []
    banks: dict[int, _DedupBank] = {}

    def is_similar(candidate) -> bool:
        for length, bank in banks.items():
            if candidate.length <= length:
                dists = batch_best_distances(candidate.values, bank.values)
                if bool((dists < tau).any()):
                    return True
            else:
                stats = SlidingWindowStats(candidate.values[None, :], length)
                profiles = stats.batch_profiles_prenormalized(
                    bank.prenormalized, backend="matvec"
                )
                positions = tie_break_argmin_rows(profiles)
                dists = np.take_along_axis(
                    profiles, positions[:, :, None], axis=2
                )[:, 0, 0]
                if bool((dists < tau).any()):
                    return True
        return False

    for candidate in ordered:
        if not is_similar(candidate):
            kept.append(candidate)
            banks.setdefault(candidate.length, _DedupBank(candidate.length)).append(
                candidate.values
            )
    return kept


def probe_distance(kept, probe) -> float:
    """The distance :func:`greedy_remove_similar` measures for one pair.

    ``probe`` is the later candidate in frequency order, ``kept`` the
    earlier one; the per-probe kernel call is made for this pair alone.
    """
    if probe.length <= kept.length:
        return float(batch_best_distances(probe.values, kept.values[None, :])[0])
    stats = SlidingWindowStats(probe.values[None, :], kept.length)
    profiles = stats.batch_profiles_prenormalized(
        [prenormalize_pattern(kept.values)], backend="matvec"
    )
    position = tie_break_argmin_rows(profiles)[0, 0]
    return float(profiles[0, 0, position])


class LegacySaxRecord(NamedTuple):
    """What :func:`legacy_discretize` produces, named like ``SaxRecord``."""

    words: list
    offsets: np.ndarray
    params: SaxParams
    series_length: int
    dropped: int


def mindist_zero(word_a: str, word_b: str) -> bool:
    """True when MINDIST(word_a, word_b) == 0 (all letters adjacent)."""
    return len(word_a) == len(word_b) and all(
        abs(ord(a) - ord(b)) <= 1 for a, b in zip(word_a, word_b)
    )


def legacy_discretize(
    series: np.ndarray,
    params: SaxParams,
    *,
    numerosity_reduction: bool | str = True,
    valid_start: np.ndarray | None = None,
) -> LegacySaxRecord:
    """The pre-vectorization SAX discretization: strings + a Python loop.

    One letter string per window, then numerosity reduction as a scan
    over the strings: an invalid position breaks the run, ``exact``
    drops a word equal to its predecessor, ``mindist`` drops a word at
    MINDIST zero from the last *kept* word.
    """
    reduction = _resolve_reduction(numerosity_reduction)
    values = np.asarray(series, dtype=float)
    windows = sliding_windows(values, params.window_size)
    valid_start = _check_valid_start(valid_start, windows.shape[0])
    all_words = sax_words_for_rows(
        znorm_rows(windows), params.paa_size, params.alphabet_size
    )

    words: list[str] = []
    offsets: list[int] = []
    dropped = 0
    previous: str | None = None
    for position, word in enumerate(all_words):
        if valid_start is not None and not valid_start[position]:
            # A junction breaks the run: the next valid word is always kept.
            previous = None
            dropped += 1
            continue
        if previous is not None:
            if reduction == "exact" and word == previous:
                continue
            if reduction == "mindist" and mindist_zero(word, previous):
                continue
        words.append(word)
        offsets.append(position)
        previous = word
    return LegacySaxRecord(
        words, np.asarray(offsets, dtype=int), params, values.size, dropped
    )


class MeritEvaluator:
    """Per-pair symmetrical uncertainty, cached, and Hall's merit.

    Every SU value is one :func:`~repro.ml.cfs.symmetrical_uncertainty`
    call (an ``np.unique`` pass), each feature-feature pair oriented by
    original column index.
    """

    def __init__(self, codes: np.ndarray, y_codes: np.ndarray) -> None:
        self.codes = codes
        self.d = codes.shape[1]
        self.su_fc = np.array(
            [symmetrical_uncertainty(codes[:, j], y_codes) for j in range(self.d)]
        )
        self._su_ff: dict[tuple[int, int], float] = {}

    def su_ff(self, i: int, j: int) -> float:
        """Cached feature-feature symmetrical uncertainty."""
        key = (i, j) if i < j else (j, i)
        value = self._su_ff.get(key)
        if value is None:
            value = symmetrical_uncertainty(
                self.codes[:, key[0]], self.codes[:, key[1]]
            )
            self._su_ff[key] = value
        return value

    def extend_sums(
        self, subset: frozenset[int], sum_fc: float, sum_ff: float, j: int
    ) -> tuple[float, float]:
        """Running sums after adding feature *j* to *subset*."""
        new_fc = sum_fc + float(self.su_fc[j])
        new_ff = sum_ff + sum(self.su_ff(i, j) for i in subset)
        return new_fc, new_ff

    def merit(self, subset: frozenset[int]) -> float:
        """Direct (non-incremental) merit of *subset*."""
        members = sorted(subset)
        sum_fc = float(np.sum(self.su_fc[members])) if members else 0.0
        sum_ff = 0.0
        for a_idx in range(len(members)):
            for b_idx in range(a_idx + 1, len(members)):
                sum_ff += self.su_ff(members[a_idx], members[b_idx])
        return merit_from_sums(len(members), sum_fc, sum_ff)


def scalar_cfs_select(
    X: np.ndarray,
    y: np.ndarray,
    *,
    bins: int = DEFAULT_BINS,
    max_stale: int = DEFAULT_MAX_STALE,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> CfsResult:
    """:func:`~repro.ml.cfs.cfs_select` scored through :class:`MeritEvaluator`.

    The same discretization and best-first search, with every SU value
    computed per pair and on demand instead of by the blocked kernel.
    """
    X = np.asarray(X, dtype=float)
    _, y_codes = np.unique(np.asarray(y), return_inverse=True)
    evaluator = MeritEvaluator(discretize_features(X, bins=bins), y_codes)
    su_fc = evaluator.su_fc
    searchable = _searchable_indices(su_fc, max_features)
    best_subset, best_merit = _best_first_search(
        su_fc, evaluator.su_ff, searchable, max_stale
    )
    if not best_subset:
        best_subset = frozenset({int(np.argmax(su_fc))})
        best_merit = merit_from_sums(1, float(su_fc[min(best_subset)]), 0.0)
    return CfsResult(
        selected=sorted(best_subset), merit=float(best_merit), feature_class_su=su_fc
    )
