"""Mapping / distance-matrix / cluster invariant checker tests."""

import numpy as np
import pytest

from repro.analysis import (
    check_cluster,
    check_core_mapping,
    check_distance_matrix,
    check_node_groups,
    check_rank_permutation,
)
from repro.topology.gpc import gpc_cluster


class TestRankPermutation:
    def test_identity_clean(self):
        assert check_rank_permutation(np.arange(8), 8).ok()

    def test_map001_repeat(self):
        report = check_rank_permutation([0, 0, 2], 3)
        assert report.has("MAP001")

    def test_map001_wrong_length(self):
        assert check_rank_permutation([0, 1], 3).has("MAP001")


class TestCoreMapping:
    def test_valid_bijection(self):
        layout = np.array([4, 5, 6, 7])
        assert check_core_mapping([7, 4, 6, 5], layout).ok()

    def test_map001_duplicate_core(self):
        report = check_core_mapping([4, 4, 6, 7], [4, 5, 6, 7])
        assert report.has("MAP001")
        assert "multiple ranks" in report.diagnostics[0].message

    def test_map001_stray_core(self):
        report = check_core_mapping([4, 5, 6, 99], [4, 5, 6, 7])
        assert report.has("MAP001")
        assert "outside the layout" in report.diagnostics[0].message

    def test_map001_shape_mismatch(self):
        assert check_core_mapping([4, 5], [4, 5, 6]).has("MAP001")


class TestNodeGroups:
    """MAP007 over 4 nodes x 8 cores; groups list new ranks."""

    @pytest.fixture(scope="class")
    def cluster(self):
        return gpc_cluster(n_nodes=4)

    def test_node_local_groups_clean(self, cluster):
        mapping = np.array([16, 17, 0, 1, 8, 9])  # nodes 2, 0, 1
        assert check_node_groups(mapping, [[0, 1], [2, 3], [4, 5]], cluster).ok()

    def test_map007_group_spans_two_nodes(self, cluster):
        report = check_node_groups([0, 8, 1, 9], [[0, 1], [2, 3]], cluster)
        assert report.has("MAP007")
        assert "not on one" in report.diagnostics[0].message

    def test_map007_two_groups_share_a_node(self, cluster):
        report = check_node_groups([0, 1, 2, 3], [[0, 1], [2, 3]], cluster)
        assert report.codes() == ["MAP007"]
        assert "share node 0" in report.diagnostics[0].message

    def test_map007_groups_must_partition_ranks(self, cluster):
        assert check_node_groups([0, 1, 8, 9], [[0, 1], [1, 2]], cluster).has("MAP007")
        assert check_node_groups([0, 1, 8, 9], [[0, 1]], cluster).has("MAP007")


def ladder_matrix():
    """A well-formed 3x3 distance matrix."""
    return np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


class TestDistanceMatrix:
    def test_clean(self):
        assert check_distance_matrix(ladder_matrix(), triangle=True).ok()

    def test_map002_not_square(self):
        report = check_distance_matrix(np.zeros((2, 3)))
        assert report.codes() == ["MAP002"]  # early exit: nothing else checked

    def test_map003_asymmetric(self):
        D = ladder_matrix()
        D[0, 1] = 5.0
        assert check_distance_matrix(D).has("MAP003")

    def test_map004_nonzero_diagonal(self):
        D = ladder_matrix()
        D[1, 1] = 0.5
        assert check_distance_matrix(D).has("MAP004")

    def test_map005_negative_entry(self):
        D = ladder_matrix()
        D[0, 2] = D[2, 0] = -1.0
        assert check_distance_matrix(D).has("MAP005")

    def test_map006_triangle_violation_is_warning(self):
        D = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
        report = check_distance_matrix(D, triangle=True)
        assert report.has("MAP006")
        assert report.ok()  # audit finding, not an error
        assert not check_distance_matrix(D).has("MAP006")  # opt-in only


class _Corrupt:
    """Attribute-override proxy for probing cluster invariants."""

    def __init__(self, cluster, **overrides):
        self._cluster = cluster
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._cluster, name)


class TestCluster:
    @pytest.fixture(scope="class")
    def cluster(self):
        return gpc_cluster(n_nodes=4)

    def test_real_cluster_clean(self, cluster):
        report = check_cluster(cluster, triangle=True)
        assert report.ok(), report.format()

    def test_top001_core_arithmetic(self, cluster):
        bad = _Corrupt(cluster, n_cores=cluster.n_cores + 1)
        assert check_cluster(bad).has("TOP001")

    def test_top003_capacity_exceeded(self, cluster):
        cfg = cluster.network.config
        small_cfg = _Corrupt(cfg, max_nodes=cluster.n_nodes - 1)
        bad = _Corrupt(cluster, network=_Corrupt(cluster.network, config=small_cfg))
        assert check_cluster(bad).has("TOP003")

    def test_top002_negative_distances(self, cluster):
        bad = _Corrupt(cluster, distance_matrix=lambda: -cluster.distance_matrix())
        report = check_cluster(bad)
        assert report.has("TOP002")
        assert any("MAP005" in d.message for d in report.diagnostics)

    def test_top002_flat_ladder(self, cluster):
        n = cluster.n_cores
        flat = np.ones((n, n)) - np.eye(n)
        bad = _Corrupt(
            cluster,
            distance_matrix=lambda: flat,
            distance=lambda i, j: flat[i, j],
        )
        report = check_cluster(bad)
        assert report.has("TOP002")
        assert any("ladder" in d.message for d in report.diagnostics)
