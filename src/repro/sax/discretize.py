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

Representation: the hot path never materializes Python strings. Each
window becomes one row of a ``(n_windows, paa_size)`` ``uint8`` *code
matrix* (breakpoint-region indices), numerosity reduction runs as array
operations over that matrix, and the surviving rows travel inside the
:class:`SaxRecord`. Grammar induction consumes compact integer token
ids (:attr:`SaxRecord.token_ids`); the familiar letter strings are
rendered lazily — once per *distinct* word — only when something
actually asks for :attr:`SaxRecord.words`.

The pre-vectorization implementation (one Python string per window, a
Python-loop reduction) is the reference oracle in ``tests/oracles.py``;
the parity suite (``tests/test_discretize_parity.py``) pins this module
to it bitwise, and ``benchmarks/bench_discretize.py`` measures the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import breakpoints
from .paa import paa_rows
from .znorm import znorm_rows

__all__ = [
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
        given, the z-normalized window matrix and the per-``paa_size``
        PAA reduction are fetched from (or inserted into) the cache —
        repeated calls sharing a window size skip straight to the cheap
        breakpoint lookup. Cached and uncached calls are bitwise
        identical.

    Returns
    -------
    SaxRecord
    """
    reduction = _resolve_reduction(numerosity_reduction)
    values = np.asarray(series, dtype=float)
    if cache is not None:
        entry = cache.windows(values, params.window_size)
        n_positions = entry.normalized.shape[0]
        segments = entry.paa(params.paa_size)
    else:
        normalized = znorm_rows(sliding_windows(values, params.window_size))
        n_positions = normalized.shape[0]
        segments = paa_rows(normalized, params.paa_size)
    valid_start = _check_valid_start(valid_start, n_positions)
    cuts = breakpoints(params.alphabet_size)
    codes = np.searchsorted(cuts, segments, side="left").astype(np.uint8)
    positions, dropped = _kept_positions(codes, valid_start, reduction)
    return SaxRecord(
        offsets=positions,
        params=params,
        series_length=values.size,
        dropped=dropped,
        codes=np.ascontiguousarray(codes[positions]),
    )
