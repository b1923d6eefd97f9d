"""Unit tests for repro.core.grouping (ONEX similarity groups, §3.1)."""

import numpy as np
import pytest

from repro.core.grouping import SimilarityGroup, cluster_subsequences
from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.exceptions import InvariantError, ValidationError


def refs_for(n, length=4):
    return [SubsequenceRef(0, i, length) for i in range(n)]


class TestClustering:
    def test_tight_cluster_becomes_one_group(self):
        rng = np.random.default_rng(1)
        center = rng.normal(size=6)
        matrix = center + rng.normal(scale=0.001, size=(20, 6))
        groups = cluster_subsequences(matrix, refs_for(20, 6), 0.1)
        assert len(groups) == 1
        assert groups[0].cardinality == 20

    def test_distant_points_stay_separate(self):
        matrix = np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 20.0]])
        groups = cluster_subsequences(matrix, refs_for(3, 2), 0.5)
        assert len(groups) == 3
        assert all(g.cardinality == 1 for g in groups)

    def test_every_subsequence_assigned_exactly_once(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(100, 5))
        refs = refs_for(100, 5)
        groups = cluster_subsequences(matrix, refs, 0.3)
        seen = [m for g in groups for m in g.members]
        assert sorted(seen) == sorted(refs)

    def test_member_within_radius_invariant(self):
        """The paper's §3.1 guarantee: members within ST/2 of the rep."""
        rng = np.random.default_rng(3)
        radius = 0.25
        matrix = rng.normal(size=(200, 8))
        groups = cluster_subsequences(matrix, refs_for(200, 8), radius)
        for g in groups:
            for ref in g.members:
                ed = np.abs(matrix[ref.start] - g.centroid).mean()
                assert ed <= radius + 1e-9

    def test_pairwise_within_double_radius(self):
        """Triangle through the centroid: members pairwise within ST."""
        rng = np.random.default_rng(4)
        radius = 0.2
        matrix = rng.normal(size=(150, 6))
        groups = cluster_subsequences(matrix, refs_for(150, 6), radius)
        for g in groups:
            rows = matrix[[ref.start for ref in g.members]]
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    ed = np.abs(rows[i] - rows[j]).mean()
                    assert ed <= 2 * radius + 1e-9

    def test_recorded_radii_are_exact_maxima(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(80, 7))
        groups = cluster_subsequences(matrix, refs_for(80, 7), 0.4)
        for g in groups:
            rows = matrix[[ref.start for ref in g.members]]
            eds = np.abs(rows - g.centroid).mean(axis=1)
            chebs = np.abs(rows - g.centroid).max(axis=1)
            assert g.ed_radius == pytest.approx(eds.max())
            assert g.cheb_radius == pytest.approx(chebs.max())

    def test_smaller_radius_makes_more_groups(self):
        rng = np.random.default_rng(6)
        matrix = rng.normal(size=(120, 5))
        refs = refs_for(120, 5)
        tight = cluster_subsequences(matrix, refs, 0.05)
        loose = cluster_subsequences(matrix, refs, 1.0)
        assert len(tight) > len(loose)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(60, 4))
        refs = refs_for(60, 4)
        a = cluster_subsequences(matrix, refs, 0.3)
        b = cluster_subsequences(matrix, refs, 0.3)
        assert len(a) == len(b)
        for ga, gb in zip(a, b):
            assert ga.members == gb.members

    def test_empty_input(self):
        assert cluster_subsequences(np.empty((0, 4)), [], 0.5) == []

    def test_validation(self):
        with pytest.raises(ValidationError, match="2-D"):
            cluster_subsequences(np.zeros(3), refs_for(3), 0.5)
        with pytest.raises(ValidationError, match="refs"):
            cluster_subsequences(np.zeros((3, 2)), refs_for(2, 2), 0.5)
        with pytest.raises(ValidationError, match="group_radius"):
            cluster_subsequences(np.zeros((3, 2)), refs_for(3, 2), 0.0)


class TestSimilarityGroupValidate:
    def test_passes_for_consistent_group(self):
        ds = TimeSeriesDataset([TimeSeries("s", [1.0, 1.0, 1.0, 1.0])])
        group = SimilarityGroup(
            length=2,
            centroid=np.array([1.0, 1.0]),
            members=(SubsequenceRef(0, 0, 2), SubsequenceRef(0, 1, 2)),
            ed_radius=0.0,
            cheb_radius=0.0,
        )
        group.validate(ds, 0.1)  # should not raise

    def test_detects_member_outside_radius(self):
        ds = TimeSeriesDataset([TimeSeries("s", [5.0, 5.0])])
        group = SimilarityGroup(
            length=2,
            centroid=np.array([0.0, 0.0]),
            members=(SubsequenceRef(0, 0, 2),),
            ed_radius=10.0,
            cheb_radius=10.0,
        )
        with pytest.raises(InvariantError, match="exceeds group radius"):
            group.validate(ds, 0.1)

    def test_detects_understated_radii(self):
        ds = TimeSeriesDataset([TimeSeries("s", [1.0, 1.0])])
        group = SimilarityGroup(
            length=2,
            centroid=np.array([0.9, 0.9]),
            members=(SubsequenceRef(0, 0, 2),),
            ed_radius=0.0,
            cheb_radius=0.0,
        )
        with pytest.raises(InvariantError, match="recorded radii"):
            group.validate(ds, 1.0)


class TestSeedStress:
    def test_drifting_chain_splits_at_the_seed_radius(self):
        """A chain of slowly drifting points, each within the radius of
        the one before: a point joins its group's seed only while within
        the radius of that seed, and the next one past it seeds anew."""
        radius = 0.5
        # Points at 0, 0.45, 0.9, ...: pairs (0, 0.45), (0.9, 1.35), ...
        values = np.arange(0, 10, 0.45)
        matrix = values[:, None] * np.ones((1, 3))
        groups = cluster_subsequences(matrix, refs_for(len(values), 3), radius)
        assert [g.cardinality for g in groups] == [2] * 11 + [1]
        for g in groups:
            assert np.array_equal(g.centroid, matrix[g.members[0].start])
            for ref in g.members:
                ed = np.abs(matrix[ref.start] - g.centroid).mean()
                assert ed <= radius + 1e-9

    def test_all_identical_rows(self):
        matrix = np.ones((50, 4))
        groups = cluster_subsequences(matrix, refs_for(50), 0.1)
        assert len(groups) == 1
        assert groups[0].ed_radius == 0.0
