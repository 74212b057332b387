"""Deeper invariant tests spanning the ML and core layers."""

import numpy as np
import pytest

from repro.core.patterns import PatternCandidate
from repro.core.selection import remove_similar
from repro.ml.cfs import cfs_select
from repro.ml.svm import BinarySVM
from repro.sax.discretize import SaxParams
from tests.test_opt_direct import minimize


class TestSvmKkt:
    """The SMO solution must satisfy the soft-margin KKT conditions."""

    def _fit(self, rng, kernel):
        X = np.vstack([rng.normal(0, 1, (40, 2)), rng.normal(2.5, 1, (40, 2))])
        y = np.array([-1.0] * 40 + [1.0] * 40)
        svm = BinarySVM(kernel=kernel, C=1.0, tol=1e-4, max_iter=50000).fit(X, y)
        return X, y, svm

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_kkt_conditions(self, rng, kernel):
        X, y, svm = self._fit(rng, kernel)
        alpha = svm.alpha_
        margins = y * svm.decision_function(X)
        tol = 0.05
        for a, margin in zip(alpha, margins):
            if a < 1e-6:  # non-support vector: margin >= 1
                assert margin >= 1 - tol
            elif a > svm.C - 1e-6:  # bound vector: margin <= 1
                assert margin <= 1 + tol
            else:  # free vector: margin == 1
                assert abs(margin - 1) < tol

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_equality_constraint(self, rng, kernel):
        _, y, svm = self._fit(rng, kernel)
        assert abs(float(svm.alpha_ @ y)) < 1e-6

    def test_larger_C_fits_train_harder(self):
        # Its own generator: the data must not depend on which tests ran
        # first. The total hinge slack falls as C grows; the training
        # 0-1 error need not (C=100 can misclassify one more point than
        # C=0.01 at a KKT-exact solution).
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal(0, 1.2, (50, 2)), rng.normal(2, 1.2, (50, 2))])
        y = np.array([-1.0] * 50 + [1.0] * 50)
        soft = BinarySVM(kernel="rbf", C=0.01).fit(X, y)
        hard = BinarySVM(kernel="rbf", C=100.0).fit(X, y)

        def hinge_slack(svm):
            return float(np.maximum(0.0, 1.0 - y * svm.decision_function(X)).sum())

        assert hinge_slack(hard) <= hinge_slack(soft)


class TestCfsInvariants:
    def test_merit_nonnegative_and_bounded(self, rng):
        for _ in range(5):
            X = rng.standard_normal((60, 6))
            y = rng.integers(0, 3, 60)
            result = cfs_select(X, y)
            assert 0.0 <= result.merit <= 1.0 + 1e-9

    def test_selection_subset_of_columns(self, rng):
        X = rng.standard_normal((40, 5))
        y = rng.integers(0, 2, 40)
        result = cfs_select(X, y)
        assert set(result.selected) <= set(range(5))

    def test_duplicate_matrix_columns_collapse(self, rng):
        y = rng.integers(0, 2, 80)
        f = y + rng.standard_normal(80) * 0.2
        X = np.column_stack([f, f, f, rng.standard_normal(80)])
        result = cfs_select(X, y)
        informative = [j for j in result.selected if j < 3]
        assert len(informative) == 1


class TestRemoveSimilarInvariants:
    def _candidate(self, values, frequency):
        return PatternCandidate(
            values=np.asarray(values, dtype=float),
            label=0,
            frequency=frequency,
            support=frequency,
            rule_id=0,
            words=("x",),
            sax_params=SaxParams(4, 2, 3),
        )

    def test_result_independent_of_input_order(self, rng):
        shapes = [rng.standard_normal(16) for _ in range(6)]
        candidates = [self._candidate(s, f) for f, s in enumerate(shapes, start=1)]
        tau = 1.0
        forward = remove_similar(list(candidates), tau)
        backward = remove_similar(list(reversed(candidates)), tau)
        fwd = sorted(c.frequency for c in forward)
        bwd = sorted(c.frequency for c in backward)
        assert fwd == bwd

    def test_kept_patterns_mutually_distant(self, rng):
        from repro.distance.best_match import best_match

        shapes = [rng.standard_normal(16) for _ in range(8)]
        candidates = [self._candidate(s, f) for f, s in enumerate(shapes, start=1)]
        tau = 2.0
        kept = remove_similar(candidates, tau)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                short, long_ = (
                    (a.values, b.values) if a.length <= b.length else (b.values, a.values)
                )
                assert best_match(short, long_).distance >= tau

    def test_monotone_in_tau(self, rng):
        shapes = [rng.standard_normal(16) for _ in range(8)]
        candidates = [self._candidate(s, f) for f, s in enumerate(shapes, start=1)]
        sizes = [len(remove_similar(candidates, tau)) for tau in (0.0, 1.0, 3.0, 8.0)]
        assert sizes == sorted(sizes, reverse=True)


class TestDirectInvariants:
    def test_more_budget_never_worse(self):
        def f(x):
            return float(np.sin(3 * x[0]) * np.cos(2 * x[1]) + 0.1 * np.sum(x**2))

        small = minimize(f, [(-3, 3)] * 2, max_evaluations=50)
        large = minimize(f, [(-3, 3)] * 2, max_evaluations=500)
        assert large.fun <= small.fun + 1e-12

    def test_history_length_matches_iterations(self):
        res = minimize(lambda x: float(x[0] ** 2), [(-1, 1)], max_evaluations=60)
        assert len(res.history) == res.n_iterations + 1
