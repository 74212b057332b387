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
  blocked-SU kernel — same SU values, subsets and merits;
* the one-``np.sum``-per-row contingency entropies
  (:func:`looped_entropies_from_counts`) that ``repro.ml.cfs`` replaced
  with one row-sum per distinct nonzero-cell count — same entropies,
  bit for bit;
* the one-piece window-statistics constructor (:func:`legacy_window_stats`)
  that ``repro.runtime.kernel`` split into a per-matrix
  :class:`~repro.runtime.kernel.SeriesPrefix` and per-length views —
  same centred rows, sd, flat mask and safe sd;
* the object Sequitur (:class:`ObjectSequitur`: one linked-list
  :class:`Symbol` per token, tuple digram keys) that
  ``repro.grammar.sequitur`` replaced with parallel int lists — same
  rule ids, right-hand sides, refcounts and expansions;
* ``np.std``-based z-normalization (:func:`std_znorm`) that
  :func:`repro.sax.znorm.znorm` replaced with two plain reductions —
  bitwise equal;
* the unpruned refinement loop (:func:`unpruned_class_candidates`) that
  ``repro.core.candidates`` replaced with one that skips rules covering
  too few series — same candidates, bit for bit;
* the per-rule mining path (:func:`per_rule_class_candidates`) that
  ``repro.core.candidates`` replaced with one array program per class:
  one token-stream scan per rule (:func:`find_token_occurrences`), one
  ``Occurrence`` and one ``bisect_right`` per occurrence
  (:func:`per_rule_motifs`), one ``np.interp`` per member and one
  ``znorm_rows`` per rule (:func:`align_subsequences`), and one
  centroid per cluster — same candidates, bit for bit;
* the CFS best-first search that adds ``sum(su_ff(i, j) for i in
  subset)`` through one closure call per pair
  (:func:`closure_best_first_search`), which ``repro.ml.cfs`` replaced
  with one ``np.cumsum`` over the SU matrix per expanded node — same
  subsets and merits;
* the complete-linkage merge tree (:func:`agglomerate`, :func:`cut_k`),
  whose 2-cut ``repro.cluster.linkage.complete_two_cut`` builds without
  the tree, on a masked working copy — same labels;
* the profile-then-minimum closest-match reduction
  (:func:`profile_min_best_distances`) that
  ``SlidingWindowStats.batch_best_distances_prenormalized`` and
  ``.best_distances`` replaced with one row maximum of the dot products
  per (pattern, series) — same distances, bit for bit;
* the early-abandoning scalar closest-match search
  (:func:`best_match_scalar`) of the paper's §5.3, against which
  ``repro.distance.best_match`` runs the sliding-window kernel;
* the plain-loop DTW (:func:`dtw_distance_reference`) that
  ``repro.distance.dtw`` vectorizes row by row.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from contextlib import contextmanager
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.cluster.refine import (
    _unit_grid,
    bisect_refine,
    centroid_of,
    medoid_of,
)
from repro.core.patterns import PatternCandidate
from repro.distance.best_match import Match, batch_best_distances
from repro.distance.dtw import _check_pair, _resolve_band
from repro.distance.euclidean import euclidean_early_abandon
from repro.grammar.inference import Occurrence, RuleMotif, discretize_class
from repro.grammar.sequitur import Sequitur
from repro.ml.cfs import (
    DEFAULT_BINS,
    DEFAULT_MAX_FEATURES,
    DEFAULT_MAX_STALE,
    CfsResult,
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
from repro.sax.znorm import NORM_THRESHOLD, is_flat, znorm, znorm_rows

__all__ = [
    "DISTANCE_RTOL",
    "DISTANCE_ATOL",
    "DISTANCE_NEARZERO_RTOL",
    "naive_distance_profile",
    "naive_profiles",
    "naive_best_distances",
    "profile_min_best_distances",
    "assert_profiles_close",
    "assert_argmin_equal",
    "LegacyWindowStats",
    "legacy_window_stats",
    "greedy_remove_similar",
    "probe_distance",
    "LegacySaxRecord",
    "mindist_zero",
    "legacy_discretize",
    "MeritEvaluator",
    "scalar_cfs_select",
    "Symbol",
    "Terminal",
    "NonTerminal",
    "Guard",
    "ObjectRule",
    "ObjectSequitur",
    "grammar_snapshot",
    "recording_token_streams",
    "std_znorm",
    "unpruned_class_candidates",
    "find_word_occurrences",
    "find_token_occurrences",
    "per_rule_motifs",
    "align_subsequences",
    "per_rule_class_candidates",
    "closure_best_first_search",
    "Merge",
    "agglomerate",
    "cut_k",
    "best_match_scalar",
    "dtw_distance_reference",
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


def profile_min_best_distances(
    stats: SlidingWindowStats, pres: Sequence[PrenormalizedPattern], backend: str
) -> np.ndarray:
    """Closest-match distances ``(k, n)`` the long way: every pattern's
    whole distance profiles, then each row's minimum."""
    return stats.batch_profiles_prenormalized(pres, backend=backend).min(axis=2)


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


class LegacyWindowStats(NamedTuple):
    centered: np.ndarray
    sd: np.ndarray
    flat: np.ndarray
    safe_sd: np.ndarray


def legacy_window_stats(X: np.ndarray, length: int) -> LegacyWindowStats:
    """The window statistics of ``(X, length)`` computed in one piece.

    The arithmetic of the single-object ``SlidingWindowStats``
    constructor, before the per-matrix half moved into
    ``SeriesPrefix``: centre the rows, take both cumulative sums, the
    window moments and the RMS flatness floor, all for one length.
    """
    X = np.asarray(X, dtype=float)
    n_rows, m = X.shape
    X = X - X.mean(axis=1, keepdims=True)
    cumsum = np.cumsum(X, axis=1)
    cumsum = np.concatenate([np.zeros((n_rows, 1)), cumsum], axis=1)
    cumsum2 = np.cumsum(X * X, axis=1)
    cumsum2 = np.concatenate([np.zeros((n_rows, 1)), cumsum2], axis=1)
    window_sum = cumsum[:, length:] - cumsum[:, :-length]
    window_sum2 = cumsum2[:, length:] - cumsum2[:, :-length]
    mean = window_sum / length
    var = window_sum2 / length - mean * mean
    np.maximum(var, 0.0, out=var)
    sd = np.sqrt(var)
    rms = np.sqrt(cumsum2[:, -1:] / max(m, 1))
    flat = is_flat(sd, np.maximum(NORM_THRESHOLD, 1e-7 * rms))
    return LegacyWindowStats(X, sd, flat, np.where(flat, 1.0, sd))


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


def closure_best_first_search(
    su_fc: np.ndarray,
    su_ff: Callable[[int, int], float],
    searchable: list[int],
    max_stale: int,
) -> tuple[frozenset[int], float]:
    """Best-first subset search over an SU oracle, one call per pair.

    A search node carries the running sums ``Σ su_fc`` and ``Σ su_ff``
    of its subset; extending it by feature ``j`` adds ``su_ff(i, j)``
    over the subset's members, left to right in the frozenset's order:
    ``sum(su_ff(i, j) for i in subset)`` as the builtin ``sum`` adds
    floats up to Python 3.11 (3.12's compensates).
    """
    start: frozenset[int] = frozenset()
    best_subset = start
    best_merit = 0.0
    counter = 0
    open_heap: list[tuple[float, int, frozenset[int], float, float]] = [
        (-0.0, counter, start, 0.0, 0.0)
    ]
    visited: set[frozenset[int]] = {start}
    stale = 0
    while open_heap and stale < max_stale:
        _, _, subset, sum_fc, sum_ff = heapq.heappop(open_heap)
        improved = False
        for j in searchable:
            if j in subset:
                continue
            child = subset | {j}
            if child in visited:
                continue
            visited.add(child)
            child_fc = sum_fc + float(su_fc[j])
            added = 0
            for i in subset:
                added += su_ff(i, j)
            child_ff = sum_ff + added
            merit = merit_from_sums(len(child), child_fc, child_ff)
            counter += 1
            heapq.heappush(open_heap, (-merit, counter, child, child_fc, child_ff))
            if merit > best_merit + 1e-12:
                best_merit = merit
                best_subset = child
                improved = True
        stale = 0 if improved else stale + 1
    return best_subset, best_merit


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
    best_subset, best_merit = closure_best_first_search(
        su_fc, evaluator.su_ff, searchable, max_stale
    )
    if not best_subset:
        best_subset = frozenset({int(np.argmax(su_fc))})
        best_merit = merit_from_sums(1, float(su_fc[min(best_subset)]), 0.0)
    return CfsResult(
        selected=sorted(best_subset), merit=float(best_merit), feature_class_su=su_fc
    )


def looped_entropies_from_counts(counts: np.ndarray, n_rows: int) -> np.ndarray:
    """Row-wise entropies of a ``(P, cap)`` contingency block, one
    ``np.sum`` over each row's compacted nonzero terms."""
    mask = counts > 0
    p = counts[mask] / n_rows
    terms = p * np.log2(p)
    bounds = np.concatenate(([0], np.cumsum(np.count_nonzero(mask, axis=1))))
    out = np.empty(counts.shape[0])
    for i in range(out.size):
        out[i] = -np.sum(terms[bounds[i] : bounds[i + 1]])
    return out


# -- the object Sequitur --------------------------------------------------------


class Symbol:
    """Base node of a rule's right-hand side linked list."""

    __slots__ = ("prev", "next")

    def __init__(self) -> None:
        self.prev: Symbol | None = None
        self.next: Symbol | None = None

    def insert_after(self, symbol: "Symbol") -> None:
        """Splice *symbol* into the list directly after ``self``."""
        symbol.prev = self
        symbol.next = self.next
        if self.next is not None:
            self.next.prev = symbol
        self.next = symbol

    def unlink(self) -> None:
        """Remove ``self`` from its list (pointers of neighbours fixed up)."""
        if self.prev is not None:
            self.prev.next = self.next
        if self.next is not None:
            self.next.prev = self.prev
        self.prev = None
        self.next = None

    def key(self):  # noqa: ANN201 - heterogeneous key
        """Hashable identity used in the digram index."""
        raise NotImplementedError

    def is_guard(self) -> bool:
        """True for the guard sentinel."""
        return False


class Terminal(Symbol):
    """A terminal token (one SAX word)."""

    __slots__ = ("token",)

    def __init__(self, token) -> None:
        super().__init__()
        self.token = token

    def key(self) -> tuple:
        return ("t", self.token)


class NonTerminal(Symbol):
    """A reference to a rule; increments the rule's use count while linked."""

    __slots__ = ("rule",)

    def __init__(self, rule: "ObjectRule") -> None:
        super().__init__()
        self.rule = rule
        rule.refcount += 1

    def release(self) -> None:
        """Drop the reference (called when this symbol is removed)."""
        self.rule.refcount -= 1

    def key(self) -> tuple:
        return ("r", self.rule.rule_id)


class Guard(Symbol):
    """Sentinel owned by each rule; never part of a digram."""

    __slots__ = ("rule",)

    def __init__(self, rule: "ObjectRule") -> None:
        super().__init__()
        self.rule = rule
        self.prev = self
        self.next = self

    def key(self) -> tuple:
        return ("g", self.rule.rule_id)

    def is_guard(self) -> bool:
        return True


class ObjectRule:
    """A rule whose right-hand side is a circular list anchored at a guard."""

    __slots__ = ("rule_id", "guard", "refcount")

    def __init__(self, rule_id: int) -> None:
        self.rule_id = rule_id
        self.refcount = 0
        self.guard = Guard(self)

    @property
    def first(self) -> Symbol:
        return self.guard.next

    @property
    def last(self) -> Symbol:
        return self.guard.prev

    def is_empty(self) -> bool:
        return self.guard.next is self.guard

    def symbols(self):
        """Iterate the right-hand side symbols (guard excluded)."""
        node = self.guard.next
        while node is not None and node is not self.guard:
            yield node
            node = node.next

    def append(self, symbol: Symbol) -> None:
        self.guard.prev.insert_after(symbol)

    def __len__(self) -> int:
        return sum(1 for _ in self.symbols())

    def expansion(self) -> list:
        out: list = []
        for symbol in self.symbols():
            if isinstance(symbol, Terminal):
                out.append(symbol.token)
            elif isinstance(symbol, NonTerminal):
                out.extend(symbol.rule.expansion())
        return out

    def rhs_string(self) -> str:
        parts = []
        for symbol in self.symbols():
            if isinstance(symbol, Terminal):
                parts.append(str(symbol.token))
            elif isinstance(symbol, NonTerminal):
                parts.append(f"R{symbol.rule.rule_id}")
        return " ".join(parts)


class ObjectSequitur:
    """Sequitur with one :class:`Symbol` object per node and tuple digram keys."""

    def __init__(self) -> None:
        self._digrams: dict = {}
        self._next_id = 1
        self.start = ObjectRule(0)
        self._rules = {0: self.start}
        self.tokens_fed = 0

    def feed(self, token) -> None:
        terminal = Terminal(token)
        self.start.append(terminal)
        self.tokens_fed += 1
        prev = terminal.prev
        if prev is not None and not prev.is_guard():
            self._check(prev)

    def feed_all(self, tokens) -> "ObjectSequitur":
        for token in tokens:
            self.feed(token)
        return self

    def rules(self) -> list[ObjectRule]:
        return [self._rules[rid] for rid in sorted(self._rules)]

    def non_start_rules(self) -> list[ObjectRule]:
        return [rule for rule in self.rules() if rule.rule_id != 0]

    def grammar_size(self) -> int:
        return sum(len(rule) for rule in self.rules())

    def to_string(self) -> str:
        return "\n".join(f"R{r.rule_id} -> {r.rhs_string()}" for r in self.rules())

    @staticmethod
    def _digram_key(symbol: Symbol) -> tuple:
        return (symbol.key(), symbol.next.key())

    def _forget_digram(self, symbol: Symbol) -> None:
        if symbol.is_guard() or symbol.next is None or symbol.next.is_guard():
            return
        key = self._digram_key(symbol)
        if self._digrams.get(key) is symbol:
            del self._digrams[key]

    def _check(self, symbol: Symbol) -> bool:
        if symbol.is_guard() or symbol.next is None or symbol.next.is_guard():
            return False
        key = self._digram_key(symbol)
        found = self._digrams.get(key)
        if found is None:
            self._digrams[key] = symbol
            return False
        if found.next is not symbol:  # ignore the overlapping occurrence
            self._match(symbol, found)
        return True

    def _remove_symbol(self, symbol: Symbol) -> None:
        prev = symbol.prev
        if prev is not None and not prev.is_guard() and not symbol.is_guard():
            key = (prev.key(), symbol.key())
            if self._digrams.get(key) is prev:
                del self._digrams[key]
        self._forget_digram(symbol)
        symbol.unlink()
        if isinstance(symbol, NonTerminal):
            symbol.release()

    def _substitute(self, symbol: Symbol, rule: ObjectRule) -> None:
        prev = symbol.prev
        second = symbol.next
        self._remove_symbol(symbol)
        self._remove_symbol(second)
        reference = NonTerminal(rule)
        prev.insert_after(reference)
        if not self._check(prev):
            self._check(reference)

    @staticmethod
    def _copy(symbol: Symbol) -> Symbol:
        if isinstance(symbol, Terminal):
            return Terminal(symbol.token)
        return NonTerminal(symbol.rule)

    def _match(self, new: Symbol, existing: Symbol) -> None:
        existing_prev = existing.prev
        existing_next = existing.next
        if (
            existing_prev.is_guard()
            and existing_next.next is not None
            and existing_next.next.is_guard()
        ):
            rule = existing_prev.rule
            self._substitute(new, rule)
        else:
            rule = ObjectRule(self._next_id)
            self._next_id += 1
            self._rules[rule.rule_id] = rule
            rule.append(self._copy(new))
            rule.append(self._copy(new.next))
            self._substitute(existing, rule)
            self._substitute(new, rule)
            self._digrams[self._digram_key(rule.first)] = rule.first
        # Rule utility, checked at both endpoints of the rule.
        first = rule.first
        if isinstance(first, NonTerminal) and first.rule.refcount == 1:
            self._expand(first)
        last = rule.last
        if isinstance(last, NonTerminal) and last.rule.refcount == 1:
            self._expand(last)

    def _expand(self, symbol: NonTerminal) -> None:
        rule = symbol.rule
        left = symbol.prev
        right = symbol.next
        first = rule.first
        last = rule.last
        if not left.is_guard():
            key = (left.key(), symbol.key())
            if self._digrams.get(key) is left:
                del self._digrams[key]
        self._forget_digram(symbol)
        symbol.release()
        left.next = first
        first.prev = left
        last.next = right
        right.prev = last
        del self._rules[rule.rule_id]
        # Only the right seam is re-indexed, as in canonical Sequitur.
        if not last.is_guard() and not right.is_guard():
            self._digrams[(last.key(), right.key())] = last


def grammar_snapshot(grammar) -> list:
    """Every live rule of either Sequitur: id, refcount, right-hand side, expansion."""
    return [
        (rule.rule_id, rule.refcount, rule.rhs_string(), tuple(rule.expansion()))
        for rule in grammar.rules()
    ]


@contextmanager
def recording_token_streams():
    """Collect the token stream of every ``induce_motifs`` call mining makes."""
    from repro.core import candidates

    streams: list[list] = []
    induce = candidates.induce_motifs

    def recording(record, *args, **kwargs):
        streams.append(record.token_ids.tolist())
        return induce(record, *args, **kwargs)

    candidates.induce_motifs = recording
    try:
        yield streams
    finally:
        candidates.induce_motifs = induce


# -- z-normalization and the unpruned refinement loop ------------------------------


def std_znorm(series: np.ndarray, threshold: float = NORM_THRESHOLD) -> np.ndarray:
    """Z-normalization through ``np.std`` and ``np.mean``."""
    values = np.asarray(series, dtype=float)
    if values.size == 0:
        return values.copy()
    sd = values.std()
    if is_flat(sd, threshold):
        return np.zeros_like(values)
    return (values - values.mean()) / sd


def unpruned_class_candidates(
    instances,
    label,
    params: SaxParams,
    *,
    gamma: float = 0.2,
    prototype: str = "centroid",
    support_mode: str = "instances",
    numerosity_reduction: bool = True,
) -> list[PatternCandidate]:
    """Algorithm 1's inner loop refining every rule, pruned or not.

    Every rule with two or more occurrences is aligned and refined; the
    support threshold is applied to each cluster afterwards. Centroids
    go through :func:`std_znorm`.
    """
    record, starts, lengths = discretize_class(
        instances, params, numerosity_reduction=numerosity_reduction
    )
    series = np.concatenate([np.asarray(inst, dtype=float).ravel() for inst in instances])
    min_support = max(2, int(np.ceil(gamma * len(instances))))
    candidates = []
    for motif in per_rule_motifs(record, starts, lengths):
        subsequences = [series[occ.start : occ.end] for occ in motif.occurrences]
        if len(subsequences) < 2:
            continue
        clusters = bisect_refine(align_subsequences(subsequences))
        for cluster in clusters:
            covered = {motif.occurrences[i].instance for i in cluster.member_indices}
            measure = len(covered) if support_mode == "instances" else cluster.size
            if measure < min_support:
                continue
            values = (
                std_znorm(cluster.aligned.mean(axis=0))
                if prototype == "centroid"
                else medoid_of(cluster)
            )
            candidates.append(
                PatternCandidate(
                    values=values,
                    label=label,
                    frequency=cluster.size,
                    support=len(covered),
                    rule_id=motif.rule_id,
                    words=motif.words,
                    sax_params=params,
                    within_distances=cluster.within_distances(),
                )
            )
    return candidates


# -- the per-rule mining path ---------------------------------------------------


def find_word_occurrences(words: Sequence, needle: Sequence) -> list[int]:
    """All start indices at which the token sequence *needle* occurs in *words*.

    A plain scan; overlapping occurrences are reported. Tokens may be
    any equality-comparable objects (strings, ints).
    """
    if not needle:
        return []
    first = needle[0]
    k = len(needle)
    n = len(words)
    out: list[int] = []
    for i, word in enumerate(words):
        if word != first or i + k > n:
            continue
        if all(words[i + j] == needle[j] for j in range(1, k)):
            out.append(i)
    return out


def find_token_occurrences(token_ids: np.ndarray, needle: Sequence[int]) -> list[int]:
    """:func:`find_word_occurrences` over an integer id array: one boolean
    AND per needle position over the whole stream."""
    token_ids = np.asarray(token_ids)
    k = len(needle)
    n = token_ids.size
    if k == 0 or k > n:
        return []
    hits = token_ids[: n - k + 1] == needle[0]
    for j in range(1, k):
        hits &= token_ids[j : n - k + 1 + j] == needle[j]
    return np.flatnonzero(hits).tolist()


def per_rule_motifs(
    record,
    instance_starts,
    instance_lengths,
    *,
    min_frequency: int = 2,
    min_word_count: int = 1,
) -> list[RuleMotif]:
    """``induce_motifs`` one rule at a time: a token-stream scan per rule,
    then one ``Occurrence`` and one ``bisect_right`` per occurrence."""
    token_ids = record.token_ids
    offsets = record.offsets.tolist()
    window = record.params.window_size
    start_list = np.asarray(instance_starts, dtype=int).tolist()
    end_list = (
        np.asarray(instance_starts, dtype=int) + np.asarray(instance_lengths, dtype=int)
    ).tolist()
    grammar = Sequitur().feed_all(token_ids.tolist())
    seen: set[tuple[int, ...]] = set()
    motifs: list[RuleMotif] = []
    for rule in grammar.non_start_rules():
        expansion = tuple(rule.expansion())
        if len(expansion) < min_word_count or expansion in seen:
            continue
        seen.add(expansion)
        last = len(expansion) - 1
        occurrences = []
        for i in find_token_occurrences(token_ids, expansion):
            raw_start, raw_end = offsets[i], offsets[i + last] + window
            instance = bisect_right(start_list, raw_start) - 1
            if raw_end > end_list[instance]:
                continue
            occurrences.append(Occurrence(start=raw_start, end=raw_end, instance=instance))
        if len(occurrences) >= min_frequency:
            vocabulary = record.vocabulary
            motifs.append(
                RuleMotif(
                    rule_id=rule.rule_id,
                    words=tuple(vocabulary[i] for i in expansion),
                    occurrences=occurrences,
                )
            )
    return motifs


def align_subsequences(subsequences: list, target_length: int | None = None) -> np.ndarray:
    """Resample subsequences to one length with one ``np.interp`` each,
    then z-normalize the rows.

    The target defaults to the integer median of the member lengths;
    members already at the target length are copied.
    """
    if not subsequences:
        raise ValueError("need at least one subsequence")
    lengths = sorted(np.asarray(s).size for s in subsequences)
    if lengths[0] < 2:
        raise ValueError("subsequences must have at least 2 points")
    if target_length is None:
        mid = len(lengths) // 2
        target_length = (
            lengths[mid] if len(lengths) % 2 else (lengths[mid - 1] + lengths[mid]) // 2
        )
    target_length = max(int(target_length), 2)
    grid = _unit_grid(target_length)
    rows = np.empty((len(subsequences), target_length))
    for i, sub in enumerate(subsequences):
        values = np.asarray(sub, dtype=float)
        if values.size == target_length:
            rows[i] = values
        else:
            rows[i] = np.interp(grid, _unit_grid(values.size), values)
    return znorm_rows(rows)


def per_rule_class_candidates(
    instances,
    label,
    params: SaxParams,
    *,
    gamma: float = 0.2,
    prototype: str = "centroid",
    support_mode: str = "instances",
    numerosity_reduction: bool = True,
) -> list[PatternCandidate]:
    """Algorithm 1's inner loop one rule at a time.

    :func:`per_rule_motifs`, then for every rule covering at least
    ``min_support`` series (or occurrences) its own
    :func:`align_subsequences`, ``bisect_refine``, instance set per
    cluster and ``centroid_of``/``medoid_of`` per kept cluster.
    """
    record, starts, lengths = discretize_class(
        instances, params, numerosity_reduction=numerosity_reduction
    )
    series = np.concatenate([np.asarray(inst, dtype=float).ravel() for inst in instances])
    min_support = max(2, int(np.ceil(gamma * len(instances))))
    candidates = []
    for motif in per_rule_motifs(record, starts, lengths):
        covered = motif.support if support_mode == "instances" else motif.frequency
        if covered < min_support:
            continue
        aligned = align_subsequences(
            [series[occ.start : occ.end] for occ in motif.occurrences]
        )
        for cluster in bisect_refine(aligned):
            instances_covered = {motif.occurrences[i].instance for i in cluster.member_indices}
            measure = len(instances_covered) if support_mode == "instances" else cluster.size
            if measure < min_support:
                continue
            values = centroid_of(cluster) if prototype == "centroid" else medoid_of(cluster)
            candidates.append(
                PatternCandidate(
                    values=values,
                    label=label,
                    frequency=cluster.size,
                    support=len(instances_covered),
                    rule_id=motif.rule_id,
                    words=motif.words,
                    sax_params=params,
                    within_distances=cluster.within_distances(),
                )
            )
    return candidates


# -- the complete-linkage merge tree ----------------------------------------------


class Merge(NamedTuple):
    """One agglomeration step: clusters *left* and *right* merge at *height*
    into a cluster of *size* members.

    Cluster ids follow the scipy convention: ids ``0..n-1`` are the
    singletons; the merge at step ``t`` creates cluster ``n + t``.
    """

    left: int
    right: int
    height: float
    size: int


def agglomerate(dist: np.ndarray) -> list[Merge]:
    """The ``n - 1`` complete-linkage merges of a distance matrix, in order.

    Every step merges the closest pair, the first minimum in row-major
    order, into the lower row; that row and column become the
    elementwise maximum of the two, and the higher row and column are
    deleted.
    """
    d = np.array(dist, dtype=float)
    n = d.shape[0]
    np.fill_diagonal(d, np.inf)
    ids = list(range(n))
    sizes = [1] * n
    merges: list[Merge] = []
    while d.shape[0] > 1:
        i, j = sorted(divmod(int(np.argmin(d)), d.shape[0]))
        merges.append(Merge(ids[i], ids[j], float(d[i, j]), sizes[i] + sizes[j]))
        d[i, :] = d[:, i] = np.maximum(d[i], d[j])
        d[i, i] = np.inf
        d = np.delete(np.delete(d, j, axis=0), j, axis=1)
        ids[i], sizes[i] = n + len(merges) - 1, merges[-1].size
        del ids[j], sizes[j]
    return merges


def cut_k(merges: list[Merge], k: int) -> np.ndarray:
    """Labels of the *k* clusters left after the first ``n - k`` merges.

    Labels run ``0..k-1`` by order of first appearance. ``k`` must
    satisfy ``1 <= k <= n``.
    """
    n = len(merges) + 1
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    parent = list(range(n + len(merges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, merge in enumerate(merges[: n - k]):
        parent[find(merge.left)] = parent[find(merge.right)] = n + t
    labels = np.empty(n, dtype=int)
    mapping: dict[int, int] = {}
    for i in range(n):
        labels[i] = mapping.setdefault(find(i), len(mapping))
    return labels


def best_match_scalar(pattern: np.ndarray, series: np.ndarray) -> Match:
    """Closest match by an explicit scan with early abandonment.

    Semantically identical to :func:`repro.distance.best_match.best_match`;
    a faithful rendering of the paper's early-abandoning subsequence
    matching (§5.3).
    """
    pattern = np.asarray(pattern, dtype=float)
    series = np.asarray(series, dtype=float)
    if pattern.size > series.size:
        pattern = resample_pattern(pattern, series.size)
    q = znorm(pattern)
    n = pattern.size
    best = float("inf")
    best_pos = 0
    for pos in range(series.size - n + 1):
        window = znorm(series[pos : pos + n])
        dist = euclidean_early_abandon(window, q, best)
        if dist < best:
            best = dist
            best_pos = pos
    return Match(distance=best, position=best_pos, length=n)


def dtw_distance_reference(
    a: np.ndarray, b: np.ndarray, window: int | None = None
) -> float:
    """Plain-loop DTW, the oracle for :func:`repro.distance.dtw.dtw_distance`."""
    a, b = _check_pair(a, b)
    n, m = a.size, b.size
    band = _resolve_band(n, m, window)
    inf = float("inf")
    prev = [inf] * (m + 1)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = [inf] * (m + 1)
        lo = max(1, i - band)
        hi = min(m, i + band)
        for j in range(lo, hi + 1):
            cost = (a[i - 1] - b[j - 1]) ** 2
            cur[j] = cost + min(prev[j], prev[j - 1], cur[j - 1])
        prev = cur
    return float(np.sqrt(prev[m]))
