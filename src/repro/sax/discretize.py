"""Sliding-window SAX discretization with numerosity reduction.

This is the pre-processing step of RPM (paper §3.2.1): a window of
length ``window_size`` slides over the (possibly concatenated) training
series; each window is z-normalized and converted into a SAX word. The
output keeps, for every word, the offset of the window's leftmost point
so that grammar rules can later be mapped back onto raw subsequences.

Numerosity reduction: consecutive identical words are collapsed into
the first occurrence, which (a) shrinks the grammar-induction input and
(b) is what lets Sequitur rules expand to *variable-length* raw
subsequences.

Representation: the hot path never materializes Python strings, nor
the z-normalized window matrix. A window's PAA value is ``(segment mean
− window mean) / window sd``, and all three come from prefix sums of
the series (:class:`DiscretizationEntry`), so each window costs O(p)
work and memory instead of O(w). Each window becomes one row of a
``(n_windows, paa_size)`` ``uint8`` *code matrix* (breakpoint-region
indices), equal to the codes of the z-normalized matrix: a value within
its rounding-error bound of a breakpoint is recomputed through that
reference expression. Numerosity reduction runs as array operations
over the code matrix, and the surviving rows travel inside the
:class:`SaxRecord`. Grammar induction consumes compact integer token
ids (:attr:`SaxRecord.token_ids`); the familiar letter strings are
rendered lazily — once per *distinct* word — only when something
actually asks for :attr:`SaxRecord.words`.

The pre-vectorization implementation (one Python string per window
of the z-normalized matrix, a Python-loop reduction) is the reference
oracle in ``tests/oracles.py``; the parity suite
(``tests/test_discretize_parity.py``) pins this module to it bitwise,
and ``benchmarks/bench_discretize.py`` measures the gap.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .alphabet import breakpoints
from .paa import paa_rows
from .znorm import NORM_THRESHOLD, znorm_rows

__all__ = [
    "DiscretizationEntry",
    "SaxParams",
    "SaxRecord",
    "sliding_windows",
    "discretize",
    "REDUCTIONS",
]


@dataclass(frozen=True)
class SaxParams:
    """The three SAX discretization parameters optimized by Algorithm 3."""

    window_size: int
    paa_size: int
    alphabet_size: int

    def __post_init__(self) -> None:
        if self.window_size < 2:
            raise ValueError(f"window_size must be >= 2, got {self.window_size}")
        if not 1 <= self.paa_size <= self.window_size:
            raise ValueError(
                f"paa_size must be in [1, window_size={self.window_size}], got {self.paa_size}"
            )
        if not 2 <= self.alphabet_size <= 26:
            raise ValueError(f"alphabet_size must be in [2, 26], got {self.alphabet_size}")

    def as_tuple(self) -> tuple[int, int, int]:
        """(window, paa, alphabet) as a plain tuple."""
        return (self.window_size, self.paa_size, self.alphabet_size)


class SaxRecord:
    """The discretization result fed into grammar induction.

    Attributes
    ----------
    offsets:
        ``offsets[i]`` is the starting index in the source series of the
        window that produced word ``i``.
    params:
        The :class:`SaxParams` used.
    series_length:
        Length of the source series (needed to convert a word index
        range back to a raw index range).
    dropped:
        Number of window positions excluded by the ``valid_start`` mask.
    codes:
        ``(len(self), paa_size)`` ``uint8`` matrix of breakpoint-region
        indices for the surviving windows.

    Derived views — all computed lazily and cached:

    ``words``
        The SAX words as letter strings, in series order (rendered once
        per *distinct* code row, not per window).
    ``token_ids``
        One small non-negative ``int64`` per surviving window; two
        positions share an id iff they share a word. This is what the
        grammar inducer consumes — hashing ints beats hashing strings.
    ``vocabulary``
        Tuple mapping a token id back to its letter string.
    """

    __slots__ = (
        "offsets",
        "params",
        "series_length",
        "dropped",
        "codes",
        "_words",
        "_token_ids",
        "_token_rows",
        "_vocabulary",
    )

    def __init__(
        self,
        offsets: np.ndarray,
        params: SaxParams,
        series_length: int = 0,
        dropped: int = 0,
        *,
        codes: np.ndarray,
    ) -> None:
        self._words: list[str] | None = None
        self.codes = codes
        self.offsets = np.asarray(offsets, dtype=int)
        self.params = params
        self.series_length = int(series_length)
        self.dropped = int(dropped)
        self._token_ids: np.ndarray | None = None
        self._token_rows: np.ndarray | None = None
        self._vocabulary: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return int(self.offsets.size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SaxRecord({len(self)} words, params={self.params}, "
            f"series_length={self.series_length}, dropped={self.dropped})"
        )

    # -- lazy token views -----------------------------------------------------

    def _build_tokens(self) -> None:
        if self._token_ids is None:
            self._token_ids, self._token_rows = _row_token_ids(self.codes)

    @property
    def token_ids(self) -> np.ndarray:
        """Integer token per surviving window (grammar-induction input)."""
        self._build_tokens()
        return self._token_ids

    @property
    def vocabulary(self) -> tuple[str, ...]:
        """Token id → SAX word letter string (rendered on first access)."""
        self._build_tokens()
        if self._vocabulary is None:
            rows = self._token_rows
            width = rows.shape[1]
            # Region index k is the letter chr(ord("a") + k).
            text = (rows + ord("a")).astype(np.uint8).tobytes().decode("ascii")
            self._vocabulary = tuple(
                text[start : start + width] for start in range(0, len(text), width)
            )
        return self._vocabulary

    @property
    def words(self) -> list[str]:
        """SAX words as letter strings (rendered lazily, then cached)."""
        if self._words is None:
            vocab = self.vocabulary
            self._words = [vocab[i] for i in self._token_ids.tolist()]
        return self._words

    def as_string(self) -> str:
        """The token string fed to the grammar inducer (display form)."""
        return " ".join(self.words)


def _row_token_ids(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Token id per code row and the distinct rows, in lexicographic order.

    Equal to ``np.unique(codes, axis=0, return_inverse=True)``. Each row
    is read as the digits of one integer in base ``codes.max() + 1``,
    which keeps the lexicographic order, so one 1-D ``np.unique`` over
    the packed keys gives the same ids; rows too wide to pack into an
    ``int64`` take the row-wise ``np.unique``.
    """
    n_rows, width = codes.shape
    base = int(codes.max()) + 1 if n_rows else 1
    if base**width >= 2**63:
        rows, inverse = np.unique(codes, axis=0, return_inverse=True)
        return np.asarray(inverse, dtype=np.int64).ravel(), rows
    powers = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    keys, inverse = np.unique(codes.astype(np.int64) @ powers, return_inverse=True)
    rows = (keys[:, None] // powers % base).astype(codes.dtype)
    return np.asarray(inverse, dtype=np.int64).ravel(), rows


def sliding_windows(
    series: np.ndarray, window_size: int, *, copy: bool = False
) -> np.ndarray:
    """All contiguous windows of *series* as a ``(m - n + 1, n)`` array.

    By default this is the zero-copy strided **view** — read-only, and
    aliasing *series* — which is all the read-only consumers (z-norm and
    PAA both allocate fresh outputs) need; on long concatenated class
    series the view halves peak memory versus materializing every
    window. Pass ``copy=True`` to get an owned, writable copy instead
    (required before mutating rows in place).
    """
    values = np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"sliding_windows expects a 1-D array, got shape {values.shape}")
    if window_size > values.size:
        raise ValueError(
            f"window_size ({window_size}) exceeds series length ({values.size})"
        )
    view = np.lib.stride_tricks.sliding_window_view(values, window_size)
    return view.copy() if copy else view


# -- SAX codes from prefix sums -----------------------------------------------

#: Unit roundoff of float64: one rounding moves a value by at most this
#: fraction of it.
_UNIT_ROUNDOFF = 2.0**-53

#: A window whose value bound exceeds this is recomputed through the
#: reference instead. Half the narrowest gap between two breakpoints of
#: one alphabet is 0.048, so with margins up to this a value lies within
#: the margin of one breakpoint at most (see
#: :meth:`DiscretizationEntry.codes`).
_MAX_MARGIN = 1e-2

#: The spread of a table whose values are the reference's.
_EXACT = np.zeros(2)


@functools.lru_cache(maxsize=256)
def _fractional_segments(window_size: int, paa_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Prefix-sum columns and weights of the segments when ``p ∤ w``.

    Segment ``j`` covers ``[j·w/p, (j+1)·w/p)``: the partial points
    ``first`` and ``last`` (the fractional end points of
    ``paa._overlap_weights``) and the whole points between them. Row
    ``k`` of ``cols`` holds, per segment, the prefix-sum column
    ``first``, ``first + 1``, ``last`` or ``last + 1``; the differences
    of consecutive rows are the first point, the run between and the
    last point, and ``weights`` (shaped to broadcast over windows) holds
    their weights ``overlap / (w/p)``.
    """
    w, p = window_size, paa_size
    j = np.arange(p)
    first = j * w // p
    last = ((j + 1) * w - 1) // p
    cols = np.stack([first, first + 1, last, last + 1])
    overlaps = np.stack([(first + 1) * p - j * w, np.full(p, p), (j + 1) * w - last * p])
    weights = (overlaps / w)[:, :, None]
    # Shared by every caller through the cache.
    cols.flags.writeable = weights.flags.writeable = False
    return cols, weights


def _shifted_rows(values: np.ndarray, n_rows: int, step: int, length: int) -> np.ndarray:
    """The view whose row ``k`` is ``values[k·step : k·step + length]``.

    ``sliding_window_view`` builds the same view in Python; this costs
    one constructor call. Callers only read it.
    """
    size = values.itemsize
    return np.ndarray((n_rows, length), values.dtype, values, 0, (step * size, size))


class DiscretizationEntry:
    """SAX pre-work for one ``(series, window_size)`` pair.

    A window's PAA value is ``(segment mean − window mean) / window sd``.
    The entry centres the series once and keeps one pair of prefix sums,
    from which every window's mean and sd follow, and per PAA size
    (memoized on first use) every window's approximate segment values.
    :meth:`codes` turns those into the breakpoint-region codes of the
    reference expression — ``znorm_rows`` of the window matrix, then
    ``paa_rows`` — for every window: a window is recomputed through that
    expression when its sd lies within its error bound of
    :data:`~repro.sax.znorm.NORM_THRESHOLD`, or one of its values lies
    within its error bound of a breakpoint (the bound is derived in
    ``docs/runtime.md``). Memory is O(n) plus O(n·p) per memoized PAA
    size, not the matrix's O(n·w).

    Building an entry refuses a series holding NaN or inf, naming the
    first such index: the prefix sums would carry it into every later
    window. Entries are shared by every cache consumer; treat them as
    immutable.
    """

    __slots__ = (
        "n_windows",
        "window_size",
        "_series",
        "_prefix",
        "_mean",
        "_inv_sd",
        "_err",
        "_exact",
        "_spread",
        "_tables",
        "_lock",
    )

    def __init__(self, series: np.ndarray, window_size: int) -> None:
        # An owned copy: recomputed windows read it after the caller
        # may have changed its array.
        x = np.array(series, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"discretize expects a 1-D series, got shape {x.shape}")
        w, n = int(window_size), x.size
        if w > n:
            raise ValueError(f"window_size ({w}) exceeds series length ({n})")
        total = np.add.reduce(x)
        if not math.isfinite(total):
            bad = np.flatnonzero(~np.isfinite(x))
            if bad.size:
                raise ValueError(f"series holds a non-finite value at index {bad[0]}")
        shift = total / n
        # Row 0: prefix sums of the centred series; row 1: of its squares.
        prefix = np.zeros((2, n + 1))
        centered = x - shift
        np.cumsum(centered, out=prefix[0, 1:])
        squares = np.square(centered, out=centered)
        np.cumsum(squares, out=prefix[1, 1:])
        moments = prefix[:, w:] - prefix[:, :-w]
        moments *= 1.0 / w
        mean, var = moments
        var -= mean * mean
        sd = np.sqrt(np.maximum(var, 0.0, out=var), out=var)

        # Error bounds (docs/runtime.md, "Discretization"). ``e_var``
        # bounds the error of ``var``, which grows with the series
        # length; ``raw`` scales the reference's own error, which grows
        # with the raw magnitude of the series.
        u = _UNIT_ROUNDOFF
        m = math.sqrt(squares.max())
        c = float(np.abs(prefix[0]).max())
        e_var = 4 * u * (float(prefix[1, -1]) + 5 * m * m + 2 * m * c)
        raw = w * (m + abs(shift)) + 2 * m
        band = 2 * math.sqrt(e_var) + 2 * u * (3 * raw + (w + 12) * NORM_THRESHOLD)
        root = math.sqrt(w)
        alpha = 2 * u * (7 * w * m + 12 * m + 11 * c + 2 * (1 + root) * raw)
        inv_sd = 1.0 / np.maximum(sd, NORM_THRESHOLD)
        err = inv_sd * (2 * root * e_var)
        err += alpha
        err *= inv_sd
        err += root * u * (3 * w + 14)
        # NaN moments (an overflowing series) fail every comparison and
        # join the windows near the threshold.
        if not sd.min() > NORM_THRESHOLD + band:
            near_threshold = ~(sd > NORM_THRESHOLD + band)
            flat = sd < NORM_THRESHOLD - band
            err[near_threshold] = np.inf
            # znorm's zero row: a flat window's values are exactly 0.
            inv_sd[flat] = 0.0
            err[flat] = -1.0
        exact = np.flatnonzero(err > _MAX_MARGIN)
        err[exact] = -1.0

        self.n_windows = n - w + 1
        self.window_size = w
        self._series = x
        self._prefix = prefix[0]
        self._mean = mean
        self._inv_sd = inv_sd
        #: Per window: the bound of its approximate values, or -1 where
        #: the values are the reference's (flat and recomputed windows).
        self._err = err
        #: Windows recomputed through the reference for every PAA size.
        self._exact = exact
        #: The breakpoints' widening: the largest bound of a value that
        #: is not the reference's.
        margin = max(float(err.max()), 0.0)
        self._spread = np.array([-margin, margin])
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()

    def codes(self, paa_size: int, alphabet_size: int) -> np.ndarray:
        """The ``(n_windows, paa_size)`` ``uint8`` region codes.

        Each breakpoint is widened into the pair ``cut ∓ margin``, the
        margin being the largest bound of a value that is not the
        reference's. The number of pair ends below a value is twice its
        code, or odd when the value lies within the margin of a
        breakpoint. Only the windows holding such a value are checked
        against their own bound, and those within it recomputed.
        """
        paa_size = int(paa_size)
        values, spread = self._table(paa_size)
        cuts = breakpoints(alphabet_size)
        bounds = (cuts[:, None] + spread).ravel()[:, None, None]
        # searchsorted(bounds, values), counted 8 bounds at a time so the
        # comparisons stay within the table's size; NaN is above every
        # bound, where searchsorted sorts it.
        codes = np.full(values.shape, bounds.shape[0], dtype=np.uint8)
        for lo in range(0, bounds.shape[0], 8):
            codes -= (values <= bounds[lo : lo + 8]).sum(axis=0, dtype=np.uint8)
        near = codes & 1
        codes >>= 1
        if near.any():
            rows = np.flatnonzero(near.any(axis=0))
            segments = values[:, rows]
            bound = self._err[rows, None]
            redo = (np.abs(segments[:, :, None] - cuts) <= bound).any(axis=(0, 2))
            if redo.any():
                segments[:, redo] = self._recompute(paa_size, rows[redo]).T
            codes[:, rows] = np.searchsorted(cuts, segments)
        return codes.T

    @property
    def n_paa_sizes(self) -> int:
        """Number of PAA sizes whose segment values are memoized."""
        return len(self._tables)

    def _table(self, paa_size: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(paa_size, n_windows)`` segment values and their spread."""
        with self._lock:
            table = self._tables.get(paa_size)
        if table is None:
            # Built outside the lock: concurrent misses on one size build
            # equal tables.
            table = self._build(paa_size)
            with self._lock:
                table = self._tables.setdefault(paa_size, table)
        return table

    def _build(self, paa_size: int) -> tuple[np.ndarray, np.ndarray]:
        w, p, n = self.window_size, paa_size, self.n_windows
        if w % p == 0:
            step = w // p
            ends = _shifted_rows(self._prefix, p + 1, step, n)
            values = ends[1:] - ends[:-1]
            values *= 1.0 / step
        else:
            cols, weights = _fractional_segments(w, p)
            ends = _shifted_rows(self._prefix, w + 1, 1, n)[cols]
            values = ((ends[1:] - ends[:-1]) * weights).sum(axis=0)
        values -= self._mean
        values *= self._inv_sd
        if self._exact.size:
            if w % p:
                return self._reference(p).T, _EXACT
            values[:, self._exact] = self._reference(p, self._exact).T
        return values, self._spread

    def _recompute(self, paa_size: int, rows: np.ndarray) -> np.ndarray:
        """The reference values of ``rows``, one row per window.

        ``znorm_rows`` and the divisible ``paa_rows`` are row-wise, so a
        row subset gives those rows' bits. The fractional ``paa_rows`` is
        a BLAS product whose row bits depend on the row count, so it runs
        on every window, once, and replaces the table (spread 0: its
        values are the reference's).
        """
        if self.window_size % paa_size == 0:
            return self._reference(paa_size, rows)
        values = self._reference(paa_size)
        with self._lock:
            self._tables[paa_size] = (values.T, _EXACT)
        return values[rows]

    def _reference(self, paa_size: int, rows: np.ndarray | None = None) -> np.ndarray:
        windows = sliding_windows(self._series, self.window_size)
        return paa_rows(znorm_rows(windows if rows is None else windows[rows]), paa_size)


#: Numerosity-reduction strategies (GrammarViz's vocabulary): ``exact``
#: collapses runs of identical words, ``mindist`` also collapses a word
#: whose MINDIST to its predecessor is zero (every letter within one
#: breakpoint step), ``none`` keeps every window.
REDUCTIONS = ("exact", "mindist", "none")


def _resolve_reduction(numerosity_reduction: bool | str) -> str:
    if isinstance(numerosity_reduction, bool):
        return "exact" if numerosity_reduction else "none"
    if numerosity_reduction not in REDUCTIONS:
        raise ValueError(
            f"numerosity_reduction must be bool or one of {REDUCTIONS}, "
            f"got {numerosity_reduction!r}"
        )
    return numerosity_reduction


def _check_valid_start(
    valid_start: np.ndarray | None, n_positions: int
) -> np.ndarray | None:
    if valid_start is None:
        return None
    valid_start = np.asarray(valid_start, dtype=bool)
    if valid_start.shape != (n_positions,):
        raise ValueError(
            f"valid_start must have shape ({n_positions},), got {valid_start.shape}"
        )
    return valid_start


# -- numerosity reduction over the code matrix --------------------------------


def _kept_positions(
    codes: np.ndarray, valid_start: np.ndarray | None, reduction: str
) -> tuple[np.ndarray, int]:
    """Surviving window positions under *reduction* and the junction mask.

    Semantics match the reference string scan exactly: an invalid
    position breaks the reduction run (the next valid word is always
    kept), ``exact`` collapses a word equal to its predecessor, and
    ``mindist`` collapses a word within one breakpoint step of the *last
    kept* word — the chain comparison is against the kept anchor, not
    the adjacent row, so ``mindist`` keeps its small sequential scan
    (over plain int rows, not strings).
    """
    n_positions = codes.shape[0]
    if valid_start is None:
        valid_idx = np.arange(n_positions)
        dropped = 0
    else:
        valid_idx = np.flatnonzero(valid_start)
        dropped = int(n_positions - valid_idx.size)
    if valid_idx.size == 0 or reduction == "none":
        return valid_idx, dropped

    contiguous = np.empty(valid_idx.size, dtype=bool)
    contiguous[0] = False  # the first valid window always starts a run
    np.equal(np.diff(valid_idx), 1, out=contiguous[1:])

    if reduction == "exact":
        # Equality is transitive, so comparing each valid row to the
        # previous valid row is equivalent to comparing to the last
        # *kept* row — the whole mode is two vectorized ops.
        keep = np.ones(valid_idx.size, dtype=bool)
        same = (codes[valid_idx[1:]] == codes[valid_idx[:-1]]).all(axis=1)
        keep[1:] = ~(contiguous[1:] & same)
        return valid_idx[keep], dropped

    # mindist: |code - last_kept_code| <= 1 per letter is NOT transitive,
    # so the anchor must advance only on keeps.
    rows = codes[valid_idx].astype(np.int16).tolist()
    runs = contiguous.tolist()
    kept: list[int] = []
    previous: list[int] | None = None
    for k, row in enumerate(rows):
        if not runs[k]:
            previous = None
        if previous is not None and all(
            abs(a - b) <= 1 for a, b in zip(row, previous)
        ):
            continue
        kept.append(k)
        previous = row
    return valid_idx[np.asarray(kept, dtype=valid_idx.dtype)], dropped


def discretize(
    series: np.ndarray,
    params: SaxParams,
    *,
    numerosity_reduction: bool | str = True,
    valid_start: np.ndarray | None = None,
    cache=None,
) -> SaxRecord:
    """Discretize *series* into a numerosity-reduced SAX word sequence.

    Parameters
    ----------
    series:
        The raw (concatenated) series.
    params:
        SAX parameters (window, PAA, alphabet sizes).
    numerosity_reduction:
        Strategy for collapsing consecutive near-duplicate words
        (paper §3.2.1). ``True`` / ``'exact'`` keeps the first of each
        run of identical words; ``'mindist'`` additionally collapses
        words at MINDIST zero from their predecessor (GrammarViz's
        alternative strategy, coarser); ``False`` / ``'none'`` keeps
        every window (ablation).
    valid_start:
        Optional boolean mask of length ``len(series) - window + 1``;
        positions marked ``False`` are skipped entirely. RPM uses this
        to drop windows that span junctions of concatenated training
        instances (paper §3.2.2 / Figure 4). A skipped position also
        breaks a numerosity-reduction run, so patterns cannot silently
        bridge two different training instances.
    cache:
        Optional :class:`~repro.runtime.DiscretizationCache`. When
        given, the :class:`DiscretizationEntry` (the window moments and
        the per-``paa_size`` segment values) is fetched from (or
        inserted into) the cache — repeated calls sharing a window size
        skip straight to the breakpoint lookup. Without it the call
        builds an entry of its own; both routes run the same code, so
        cached and uncached calls are bitwise identical.

    Every code equals the reference's: ``znorm_rows`` of the window
    matrix, ``paa_rows``, then ``searchsorted`` into the breakpoints
    (``tests/oracles.py::legacy_discretize``). A series holding NaN or
    inf raises ``ValueError`` naming the first such index.

    Returns
    -------
    SaxRecord
    """
    reduction = _resolve_reduction(numerosity_reduction)
    values = np.asarray(series, dtype=float)
    if cache is not None:
        entry = cache.windows(values, params.window_size)
    else:
        entry = DiscretizationEntry(values, params.window_size)
    valid_start = _check_valid_start(valid_start, entry.n_windows)
    codes = entry.codes(params.paa_size, params.alphabet_size)
    positions, dropped = _kept_positions(codes, valid_start, reduction)
    return SaxRecord(
        offsets=positions,
        params=params,
        series_length=values.size,
        dropped=dropped,
        codes=np.ascontiguousarray(codes[positions]),
    )
