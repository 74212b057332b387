"""DIRECT (DIviding RECTangles) derivative-free global optimizer.

RPM uses DIRECT (Jones, Perttunen & Stuckman 1993) to choose the SAX
parameters instead of an exhaustive grid (paper §4.2). This is a
self-contained implementation of the classic algorithm:

* the search domain is scaled to the unit hypercube;
* each iteration identifies the *potentially optimal* hyper-rectangles
  (the lower-right convex hull of (size, value) points, subject to the
  ε-improvement condition) and trisects them along their longest sides;
* sampling happens only at rectangle centers, so the method is
  deterministic and derivative-free.

The paper rounds DIRECT's real-valued iterates to integers. The
objectives do that themselves:
:meth:`repro.core.params.ParamSelector.evaluate_batch` rounds each
point, clips it to the search ranges and caches the evaluation per
integer triple, so the evaluation count ``R`` reported in §5.3 counts
*unique* parameter combinations; the SAX-VSM baseline rounds and caches
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DirectResult", "direct_minimize"]

#: The ε of the potentially-optimal condition (Jones suggests 1e-4).
EPS = 1e-4


@dataclass
class _Rect:
    center: np.ndarray
    levels: np.ndarray  # side of dim i is 3**(-levels[i])
    value: float

    @property
    def sides(self) -> np.ndarray:
        """Current side lengths per dimension."""
        return 3.0 ** (-self.levels.astype(float))

    @property
    def size(self) -> float:
        """Half-diagonal of the rectangle (Jones' size measure)."""
        s = self.sides
        return float(0.5 * np.sqrt(np.sum(s * s)))


@dataclass
class DirectResult:
    """Outcome of :func:`direct_minimize`."""

    x: np.ndarray
    fun: float
    n_evaluations: int
    n_iterations: int
    history: list[float] = field(default_factory=list)


def _potentially_optimal(rects: list[_Rect], f_min: float) -> list[int]:
    """Indices of potentially optimal rectangles (Gablonsky's test)."""
    sizes = np.array([r.size for r in rects])
    values = np.array([r.value for r in rects])
    # Best rectangle per distinct size class.
    best_by_size: dict[float, int] = {}
    for idx, (d, f) in enumerate(zip(sizes, values)):
        key = round(float(d), 12)
        cur = best_by_size.get(key)
        if cur is None or f < values[cur]:
            best_by_size[key] = idx
    candidates = sorted(best_by_size.values(), key=lambda i: sizes[i])

    chosen: list[int] = []
    for pos, j in enumerate(candidates):
        dj, fj = sizes[j], values[j]
        # Largest slope toward any smaller rectangle.
        k1 = -np.inf
        for i in candidates[:pos]:
            k1 = max(k1, (fj - values[i]) / (dj - sizes[i]))
        # Smallest slope toward any larger rectangle.
        k2 = np.inf
        for i in candidates[pos + 1 :]:
            k2 = min(k2, (values[i] - fj) / (sizes[i] - dj))
        if k1 > k2:
            continue
        # ε-condition: the rectangle must be able to beat f_min by a
        # non-trivial margin given the best available slope.
        if np.isfinite(k2):
            bound = fj - k2 * dj
            threshold = f_min - EPS * abs(f_min)
            if bound > threshold:
                continue
        chosen.append(j)
    return chosen


def direct_minimize(
    evaluate,
    bounds: list[tuple[float, float]],
    *,
    max_evaluations: int = 200,
    max_iterations: int = 50,
) -> DirectResult:
    """Globally minimize an objective over a box with the DIRECT algorithm.

    Parameters
    ----------
    evaluate:
        Callable taking a *list* of points (1-D numpy arrays in the
        original coordinates) and returning their values in order. It
        receives the first center alone, then every point of an
        iteration in one call. Which points an iteration samples is
        fixed before any of them is evaluated: the trisection geometry
        depends only on the iteration's potentially-optimal set and the
        evaluation budget.
    bounds:
        ``[(lo, hi), ...]`` per dimension; ``lo < hi`` required.
    max_evaluations / max_iterations:
        Budget limits, each at least 1; whichever is hit first stops the
        search (the paper's time-constrained optimization, §4.2).

    Returns
    -------
    DirectResult
        Best point (original coordinates), its value, the number of
        function evaluations, iterations run, and the best-so-far trace.
    """
    if max_evaluations < 1:
        raise ValueError(f"max_evaluations must be >= 1, got {max_evaluations}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if (hi <= lo).any():
        raise ValueError("every bound must satisfy lo < hi")
    dim = lo.size
    span = hi - lo

    evaluations = 0

    def evaluate_points(unit_points: list[np.ndarray]) -> list[float]:
        """Evaluate planned unit-cube points, in order."""
        nonlocal evaluations
        evaluations += len(unit_points)
        return [float(v) for v in evaluate([lo + span * p for p in unit_points])]

    center = np.full(dim, 0.5)
    rects: list[_Rect] = [
        _Rect(
            center=center,
            levels=np.zeros(dim, dtype=int),
            value=evaluate_points([center])[0],
        )
    ]
    best_rect = rects[0]
    history = [best_rect.value]

    iterations = 0
    while iterations < max_iterations and evaluations < max_evaluations:
        iterations += 1
        chosen = _potentially_optimal(rects, best_rect.value)
        if not chosen:  # pragma: no cover - chosen always contains the largest rect
            break

        # -- plan: the evaluation points of this iteration. Values never
        # feed back into which points are sampled within an iteration
        # (only the budget does), so they are planned first.
        plan: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        planned_evals = evaluations
        for idx in chosen:
            rect = rects[idx]
            max_level = rect.levels.min()  # smallest level == longest side
            long_dims = np.flatnonzero(rect.levels == max_level)
            if planned_evals >= max_evaluations:
                break
            delta = 3.0 ** (-(max_level + 1.0))
            # Sample both neighbours along every longest dimension.
            for d_i in long_dims:
                if planned_evals + 2 > max_evaluations:
                    break
                left = rect.center.copy()
                left[d_i] -= delta
                right = rect.center.copy()
                right[d_i] += delta
                plan.append((idx, int(d_i), left, right))
                planned_evals += 2

        # -- evaluate: one call, in planned order.
        points = [p for _, _, left, right in plan for p in (left, right)]
        values = evaluate_points(points) if points else []

        # -- apply: split the chosen rectangles with the values.
        samples_by_rect: dict[int, list[tuple[float, int, _Rect, _Rect]]] = {}
        for pair_index, (idx, d_i, left, right) in enumerate(plan):
            f_left = values[2 * pair_index]
            f_right = values[2 * pair_index + 1]
            levels = rects[idx].levels
            samples_by_rect.setdefault(idx, []).append(
                (
                    min(f_left, f_right),
                    d_i,
                    _Rect(center=left, levels=levels.copy(), value=f_left),
                    _Rect(center=right, levels=levels.copy(), value=f_right),
                )
            )
        progressed = False
        for idx in chosen:
            samples = samples_by_rect.get(idx)
            if not samples:
                continue
            rect = rects[idx]
            progressed = True
            # Split best dimension first (Jones' ordering rule).
            samples.sort(key=lambda item: item[0])
            split_dims: list[int] = []
            for _, d_i, left_rect, right_rect in samples:
                split_dims.append(d_i)
                # The two sampled rectangles inherit all splits so far.
                for new_rect in (left_rect, right_rect):
                    for earlier in split_dims:
                        new_rect.levels[earlier] += 1
                    rects.append(new_rect)
                    if new_rect.value < best_rect.value:
                        best_rect = new_rect
            for d_i in split_dims:
                rect.levels[d_i] += 1
        history.append(best_rect.value)
        if not progressed:
            break

    return DirectResult(
        x=lo + span * best_rect.center,
        fun=best_rect.value,
        n_evaluations=evaluations,
        n_iterations=iterations,
        history=history,
    )
