import numpy as np
import pytest

from repro.cluster.refine import (
    RefinedCluster,
    bisect_refine,
    centroid_of,
    medoid_of,
)
from repro.distance.euclidean import pairwise_euclidean
from tests.oracles import align_subsequences


class TestAlignSubsequences:
    def test_resamples_to_median_length(self, rng):
        subs = [rng.standard_normal(n) for n in (8, 10, 12)]
        aligned = align_subsequences(subs)
        assert aligned.shape == (3, 10)

    def test_explicit_target_length(self, rng):
        aligned = align_subsequences([rng.standard_normal(9)], target_length=20)
        assert aligned.shape == (1, 20)

    def test_rows_are_znormed(self, rng):
        aligned = align_subsequences([rng.standard_normal(15) * 4 + 3 for _ in range(4)])
        np.testing.assert_allclose(aligned.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(aligned.std(axis=1), 1.0, atol=1e-9)

    def test_same_length_no_resampling(self):
        sub = np.arange(10.0)
        aligned = align_subsequences([sub, sub * 2])
        np.testing.assert_allclose(aligned[0], aligned[1], atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            align_subsequences([])

    def test_rejects_tiny_members(self):
        with pytest.raises(ValueError, match="at least 2"):
            align_subsequences([np.array([1.0])])


def _two_shape_matrix(rng, n_a=10, n_b=10, length=24):
    """Rows drawn from two very different shapes (sine vs ramp)."""
    t = np.linspace(0, 2 * np.pi, length)
    a = [np.sin(t) + rng.standard_normal(length) * 0.05 for _ in range(n_a)]
    b = [np.linspace(-1, 1, length) + rng.standard_normal(length) * 0.05 for _ in range(n_b)]
    from repro.sax.znorm import znorm_rows

    return znorm_rows(np.array(a + b))


class TestBisectRefine:
    def test_splits_two_shapes(self):
        aligned = _two_shape_matrix(np.random.default_rng(0))
        clusters = bisect_refine(aligned)
        assert len(clusters) == 2
        sizes = sorted(c.size for c in clusters)
        assert sizes == [10, 10]
        # Members must not mix shapes.
        for cluster in clusters:
            idx = np.array(cluster.member_indices)
            assert (idx < 10).all() or (idx >= 10).all()

    def test_homogeneous_group_not_split(self):
        local = np.random.default_rng(0)
        t = np.linspace(0, 2 * np.pi, 20)
        from repro.sax.znorm import znorm_rows

        aligned = znorm_rows(
            np.array([np.sin(t) + local.standard_normal(20) * 0.02 for _ in range(12)])
        )
        clusters = bisect_refine(aligned)
        assert len(clusters) == 1
        assert clusters[0].size == 12

    def test_minority_below_fraction_keeps_group(self):
        # 19 sines + 1 ramp: the 1-member side is below 30 %, no split.
        aligned = _two_shape_matrix(np.random.default_rng(0), n_a=19, n_b=1)
        clusters = bisect_refine(aligned)
        assert len(clusters) == 1

    def test_all_members_assigned_exactly_once(self, rng):
        aligned = _two_shape_matrix(rng, 7, 9)
        clusters = bisect_refine(aligned)
        members = sorted(i for c in clusters for i in c.member_indices)
        assert members == list(range(16))

    def test_min_group_size_respected(self, rng):
        # A pair is never split, however far apart its members are.
        aligned = _two_shape_matrix(rng, 1, 1)
        clusters = bisect_refine(aligned)
        assert [c.member_indices for c in clusters] == [[0, 1]]

    def test_single_member(self, rng):
        clusters = bisect_refine(rng.standard_normal((1, 10)))
        assert len(clusters) == 1 and clusters[0].size == 1

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            bisect_refine(np.zeros(5))


class TestPrototypes:
    def _cluster(self, rng, n=8, length=16):
        aligned = align_subsequences([rng.standard_normal(length) for _ in range(n)])
        return RefinedCluster(list(range(n)), aligned, pairwise_euclidean(aligned))

    def test_centroid_is_znormed_mean(self, rng):
        cluster = self._cluster(rng)
        centroid = centroid_of(cluster)
        assert abs(centroid.mean()) < 1e-9
        assert abs(centroid.std() - 1.0) < 1e-9

    def test_medoid_is_a_member(self, rng):
        cluster = self._cluster(rng)
        medoid = medoid_of(cluster)
        assert any(np.allclose(medoid, row) for row in cluster.aligned)

    def test_within_distances_condensed_size(self, rng):
        cluster = self._cluster(rng, n=6)
        assert cluster.within_distances().size == 6 * 5 // 2

    def test_single_member_no_distances(self, rng):
        cluster = RefinedCluster(
            member_indices=[0],
            aligned=rng.standard_normal((1, 8)),
            pairwise=np.zeros((1, 1)),
        )
        assert cluster.within_distances().size == 0


class TestPairwiseReuse:
    def test_precomputed_pairwise_matches_internal(self, rng):
        # Every cluster's block is a slice of the one matrix of all members.
        aligned = _two_shape_matrix(rng, 7, 9)
        pairwise = pairwise_euclidean(aligned)
        clusters = bisect_refine(aligned)
        assert len(clusters) > 1
        for cluster in clusters:
            members = np.array(cluster.member_indices)
            np.testing.assert_array_equal(cluster.pairwise, pairwise[np.ix_(members, members)])
