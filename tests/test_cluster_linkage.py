import tracemalloc

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import squareform

from repro.cluster.linkage import complete_two_cut
from repro.distance.euclidean import pairwise_euclidean
from tests.oracles import agglomerate, cut_k


def _random_distance_matrix(rng, n):
    X = rng.standard_normal((n, 3))
    return pairwise_euclidean(X)


class TestAgglomerate:
    """The complete-linkage merge tree of ``tests/oracles.py``."""

    def test_merge_count(self, rng):
        D = _random_distance_matrix(rng, 7)
        merges = agglomerate(D)
        assert len(merges) == 6
        assert merges[-1].size == 7

    def test_heights_monotone(self, rng):
        D = _random_distance_matrix(rng, 10)
        heights = [merge.height for merge in agglomerate(D)]
        assert np.all(np.diff(heights) >= -1e-9)

    def test_matches_scipy_heights(self, rng):
        D = _random_distance_matrix(rng, 12)
        ours = [merge.height for merge in agglomerate(D)]
        theirs = scipy_linkage(squareform(D, checks=False), method="complete")[:, 2]
        np.testing.assert_allclose(np.sort(ours), np.sort(theirs), atol=1e-9)

    def test_single_point(self):
        assert agglomerate(np.zeros((1, 1))) == []

    def test_two_points(self):
        D = np.array([[0.0, 2.5], [2.5, 0.0]])
        merges = agglomerate(D)
        assert len(merges) == 1
        assert merges[0].height == 2.5
        assert merges[0].size == 2


class TestCutK:
    def test_k_equals_n_gives_singletons(self, rng):
        D = _random_distance_matrix(rng, 6)
        labels = cut_k(agglomerate(D), 6)
        assert np.unique(labels).size == 6

    def test_k_one_gives_single_cluster(self, rng):
        D = _random_distance_matrix(rng, 6)
        labels = cut_k(agglomerate(D), 1)
        assert np.unique(labels).size == 1

    def test_two_well_separated_blobs(self, rng):
        X = np.vstack([rng.normal(0, 0.1, (5, 2)), rng.normal(10, 0.1, (5, 2))])
        D = pairwise_euclidean(X)
        labels = cut_k(agglomerate(D), 2)
        assert np.unique(labels[:5]).size == 1
        assert np.unique(labels[5:]).size == 1
        assert labels[0] != labels[5]

    def test_matches_scipy_partition(self, rng):
        D = _random_distance_matrix(rng, 15)
        for k in (2, 3, 5):
            ours = cut_k(agglomerate(D), k)
            Z = scipy_linkage(squareform(D, checks=False), method="complete")
            theirs = fcluster(Z, t=k, criterion="maxclust")
            # Partitions must be identical up to label renaming.
            mapping = {}
            for a, b in zip(ours, theirs):
                mapping.setdefault(a, b)
                assert mapping[a] == b

    def test_rejects_bad_k(self, rng):
        merges = agglomerate(_random_distance_matrix(rng, 4))
        with pytest.raises(ValueError, match="k must be"):
            cut_k(merges, 0)
        with pytest.raises(ValueError, match="k must be"):
            cut_k(merges, 5)


class TestCompleteTwoCut:
    """The refinement's 2-cut must equal the merge tree's."""

    @staticmethod
    def _reference(D):
        return cut_k(agglomerate(D), 2)

    def test_random_matrices(self):
        local = np.random.default_rng(101)
        for _ in range(300):
            n = int(local.integers(2, 40))
            D = pairwise_euclidean(local.standard_normal((n, int(local.integers(1, 20)))))
            np.testing.assert_array_equal(complete_two_cut(D), self._reference(D))

    def test_tie_heavy_matrices(self):
        # Integer points and integer matrices: many equal distances, so
        # the first-minimum tie-break decides most merges.
        local = np.random.default_rng(102)
        for _ in range(300):
            n = int(local.integers(2, 25))
            if local.random() < 0.5:
                D = pairwise_euclidean(local.integers(0, 3, (n, 2)).astype(float))
            else:
                A = local.integers(0, 4, (n, n)).astype(float)
                D = np.maximum(A, A.T)
                np.fill_diagonal(D, 0.0)
            np.testing.assert_array_equal(complete_two_cut(D), self._reference(D))

    def test_single_member_rejected_like_cut_k(self):
        D = np.zeros((1, 1))
        with pytest.raises(ValueError, match="k must be"):
            self._reference(D)
        with pytest.raises(ValueError, match="at least 2 members"):
            complete_two_cut(D)

    def test_input_left_untouched(self):
        D = _random_distance_matrix(np.random.default_rng(103), 9)
        before = D.copy()
        complete_two_cut(D)
        np.testing.assert_array_equal(D, before)

    def test_large_group_peak_memory_stays_near_input(self):
        # Masking merged rows instead of copying the matrix down keeps
        # the 2-cut's peak allocation at one working copy of the input
        # (1.02x and 1.01x at n = 300 and 600).
        D = _random_distance_matrix(np.random.default_rng(104), 300)
        tracemalloc.start()
        try:
            labels = complete_two_cut(D)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(labels, self._reference(D))
        assert peak <= 1.5 * D.nbytes
