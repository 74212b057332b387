import numpy as np
import pytest

from repro.opt.direct import direct_minimize


def minimize(f, bounds, **budget):
    """DIRECT on a scalar objective ``f(x)``, through the batch interface."""
    return direct_minimize(lambda points: [f(x) for x in points], bounds, **budget)


class TestDirect:
    def test_sphere_converges(self):
        res = minimize(
            lambda x: float(np.sum((x - 0.3) ** 2)),
            [(-2.0, 2.0)] * 3,
            max_evaluations=400,
            max_iterations=80,
        )
        assert res.fun < 1e-3
        np.testing.assert_allclose(res.x, 0.3, atol=0.05)

    def test_branin_global_minimum(self):
        def branin(x):
            a, b, c = 1.0, 5.1 / (4 * np.pi**2), 5 / np.pi
            r, s, t = 6.0, 10.0, 1 / (8 * np.pi)
            return (
                a * (x[1] - b * x[0] ** 2 + c * x[0] - r) ** 2
                + s * (1 - t) * np.cos(x[0])
                + s
            )

        res = minimize(
            branin, [(-5.0, 10.0), (0.0, 15.0)], max_evaluations=700, max_iterations=150
        )
        assert res.fun < 0.41  # global optimum is 0.39789

    def test_multimodal_rastrigin(self):
        def rastrigin(x):
            return float(10 * x.size + np.sum(x**2 - 10 * np.cos(2 * np.pi * x)))

        res = minimize(
            rastrigin, [(-5.12, 5.12)] * 2, max_evaluations=1500, max_iterations=200
        )
        assert res.fun < 1.0

    def test_respects_evaluation_budget(self):
        calls = 0

        def counting(x):
            nonlocal calls
            calls += 1
            return float(np.sum(x**2))

        res = minimize(counting, [(-1.0, 1.0)] * 2, max_evaluations=30)
        assert calls <= 30
        assert res.n_evaluations == calls

    def test_history_is_monotone_best_so_far(self):
        res = minimize(
            lambda x: float(np.sin(5 * x[0]) + x[0] ** 2),
            [(-3.0, 3.0)],
            max_evaluations=100,
        )
        assert np.all(np.diff(res.history) <= 1e-12)

    def test_deterministic(self):
        f = lambda x: float(np.cos(3 * x[0]) * np.sin(2 * x[1]))  # noqa: E731
        a = minimize(f, [(-2.0, 2.0)] * 2, max_evaluations=200)
        b = minimize(f, [(-2.0, 2.0)] * 2, max_evaluations=200)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.n_evaluations == b.n_evaluations

    def test_best_point_within_bounds(self):
        res = minimize(
            lambda x: float(-x[0] - x[1]), [(0.0, 1.0), (2.0, 3.0)], max_evaluations=80
        )
        assert 0.0 <= res.x[0] <= 1.0
        assert 2.0 <= res.x[1] <= 3.0
        # Optimum on the boundary; centers approach but never reach it.
        assert res.fun < -3.8

    def test_single_evaluation_budget(self):
        res = minimize(lambda x: 1.0, [(0.0, 1.0)], max_evaluations=1)
        assert res.n_evaluations == 1
        assert res.fun == 1.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="lo < hi"):
            minimize(lambda x: 0.0, [(1.0, 0.0)])

    @pytest.mark.parametrize(
        "budget,name",
        [
            (dict(max_evaluations=0), "max_evaluations"),
            (dict(max_evaluations=-3), "max_evaluations"),
            (dict(max_iterations=0), "max_iterations"),
        ],
    )
    def test_rejects_empty_budget(self, budget, name):
        # Before, a zero or negative budget still evaluated the center.
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            minimize(lambda x: 0.0, [(0.0, 1.0)], **budget)

    def test_evaluates_center_then_one_call_per_iteration(self):
        calls = []

        def evaluate(points):
            calls.append(len(points))
            return [float(np.sum((x - 0.3) ** 2)) for x in points]

        res = direct_minimize(evaluate, [(-1.0, 1.0)] * 2, max_evaluations=40)
        assert calls[0] == 1
        assert sum(calls) == res.n_evaluations <= 40
        assert len(calls) <= res.n_iterations + 1
