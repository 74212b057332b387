"""Grammar-based discord (anomaly) discovery.

The GrammarViz line of work the paper builds on ([7], [31]) observed
that grammar *rule density* is a powerful anomaly detector: intervals
covered by few or no grammar rules are the ones that never repeat —
i.e. time series **discords**. This module implements that
rare-rule-density discord finder plus a brute-force exact discord
search (HOT SAX-style, with early abandoning) used as its oracle in
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distance.best_match import distance_profile
from ..sax.discretize import SaxParams
from .discovery import find_motifs, rule_density

__all__ = ["Discord", "find_discords_density", "find_discord_brute_force"]


@dataclass(frozen=True)
class Discord:
    """An anomalous interval: ``[start, end)`` and its isolation score.

    ``score`` is the distance to the interval's nearest non-overlapping
    neighbour (higher = more anomalous); ``density`` is the mean grammar
    rule density over the interval (lower = rarer).
    """

    start: int
    end: int
    score: float
    density: float


def _nearest_nonself_distance(series: np.ndarray, start: int, length: int) -> float:
    """Distance from subsequence at *start* to its nearest
    non-overlapping match elsewhere in the series."""
    profile = distance_profile(series[start : start + length], series)
    lo = max(0, start - length + 1)
    hi = min(profile.size, start + length)
    profile = profile.copy()
    profile[lo:hi] = np.inf  # exclude trivial (overlapping) matches
    return float(profile.min()) if np.isfinite(profile).any() else 0.0


def find_discords_density(
    series: np.ndarray,
    params: SaxParams,
    *,
    n_discords: int = 1,
    window: int | None = None,
) -> list[Discord]:
    """Find discords via the grammar rule-density heuristic.

    1. Discover motifs and compute the per-point rule density.
    2. Slide a window (``window``: ``None`` for the SAX window, or an
       integer with ``2 <= window < len(series)``) and rank positions
       by ascending mean density — the rarest intervals first.
    3. Verify each candidate with the true nearest-neighbour distance
       and report the top *n_discords* (at least 1) non-overlapping
       intervals.
    """
    if n_discords < 1:
        raise ValueError(f"n_discords must be at least 1, got {n_discords}")
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("find_discords_density expects a 1-D series")
    if window is None:
        length = params.window_size
    elif isinstance(window, (int, np.integer)) and window >= 2:
        length = int(window)
    else:
        raise ValueError(f"discord window must be None or an integer >= 2, got {window!r}")
    if length >= series.size:
        raise ValueError(
            f"discord window must be shorter than the series ({series.size} points), "
            f"got {length}"
        )

    motifs = find_motifs(series, params, refine=False)
    density = rule_density(series.size, motifs)
    # Mean density per sliding window via cumulative sums.
    cumsum = np.concatenate(([0], np.cumsum(density)))
    window_density = (cumsum[length:] - cumsum[:-length]) / length

    order = np.argsort(window_density, kind="stable")
    chosen: list[Discord] = []
    # Verify candidates in rarity order; a small multiple of n_discords
    # is enough because density is a good proxy.
    budget = max(10 * n_discords, 20)
    for position in order[:budget]:
        position = int(position)
        if any(abs(position - d.start) < length for d in chosen):
            continue
        score = _nearest_nonself_distance(series, position, length)
        chosen.append(
            Discord(
                start=position,
                end=position + length,
                score=score,
                density=float(window_density[position]),
            )
        )
    chosen.sort(key=lambda d: d.score, reverse=True)
    out: list[Discord] = []
    for discord in chosen:
        if any(abs(discord.start - d.start) < length for d in out):
            continue
        out.append(discord)
        if len(out) == n_discords:
            break
    return out


def find_discord_brute_force(series: np.ndarray, length: int) -> Discord:
    """Exact top-1 discord by exhaustive nearest-neighbour search.

    O(n²) — used as the test oracle for the density-based finder.
    """
    series = np.asarray(series, dtype=float)
    if length >= series.size:
        raise ValueError("discord window must be shorter than the series")
    best = Discord(start=0, end=length, score=-1.0, density=float("nan"))
    for start in range(series.size - length + 1):
        score = _nearest_nonself_distance(series, start, length)
        if score > best.score:
            best = Discord(start=start, end=start + length, score=score, density=float("nan"))
    return best
