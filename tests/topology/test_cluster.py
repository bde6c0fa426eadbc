"""Unified cluster topology tests: routes, distances, channel classes."""

import gc
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.cluster import ClusterTopology, LinkClass, MAX_ROUTE_LEN
from repro.topology.gpc import gpc_cluster, small_cluster
from repro.util.rng import make_rng


class TestArithmetic:
    def test_core_node_socket(self, mid_cluster):
        # 8 cores per node, 4 per socket
        assert mid_cluster.node_of(0) == 0
        assert mid_cluster.node_of(7) == 0
        assert mid_cluster.node_of(8) == 1
        assert mid_cluster.socket_of(3) == 0
        assert mid_cluster.socket_of(4) == 1
        assert int(mid_cluster.global_socket_of(12)) == 3

    def test_cores_of_node(self, mid_cluster):
        assert list(mid_cluster.cores_of_node(1)) == list(range(8, 16))
        with pytest.raises(ValueError):
            mid_cluster.cores_of_node(8)

    def test_capacity_check(self):
        from repro.topology.fattree import FatTreeConfig, FatTreeNetwork

        net = FatTreeNetwork(FatTreeConfig(n_leaves=1, nodes_per_leaf=2))
        with pytest.raises(ValueError, match="capacity"):
            ClusterTopology(n_nodes=3, network=net)


class TestRoutes:
    def test_intra_socket_route(self, mid_cluster):
        cl = mid_cluster
        r = cl.route(0, 1)
        classes = [LinkClass(cl.link_class[l]) for l in r]
        assert classes == [LinkClass.SMEM, LinkClass.MEM, LinkClass.MEM, LinkClass.SMEM]
        # intra-socket message crosses its socket's memory bus twice
        assert r[1] == r[2]

    def test_cross_socket_route(self, mid_cluster):
        cl = mid_cluster
        classes = [LinkClass(cl.link_class[l]) for l in cl.route(0, 5)]
        assert LinkClass.QPI in classes
        assert classes.count(LinkClass.QPI) == 2
        assert LinkClass.HCA not in classes

    def test_inter_node_route(self, mid_cluster):
        cl = mid_cluster
        classes = [LinkClass(cl.link_class[l]) for l in cl.route(0, 9)]
        assert classes.count(LinkClass.HCA) == 2
        assert LinkClass.QPI not in classes  # sockets crossed via HCA path

    def test_cross_leaf_route_has_switch_links(self):
        cl = small_cluster()  # 2 nodes per leaf
        classes = [LinkClass(cl.link_class[l]) for l in cl.route(0, 3 * 4)]
        assert LinkClass.LEAF_LINE in classes

    def test_self_message_rejected(self, mid_cluster):
        with pytest.raises(ValueError, match="self-message"):
            mid_cluster.route(3, 3)

    def test_out_of_range_rejected(self, mid_cluster):
        with pytest.raises(ValueError):
            mid_cluster.route_matrix([0], [mid_cluster.n_cores])

    def test_route_matrix_matches_scalar(self, mid_cluster):
        cl = mid_cluster
        src = np.array([0, 0, 0, 5])
        dst = np.array([1, 5, 9, 60])
        rows = cl.route_matrix(src, dst)
        assert rows.shape == (4, MAX_ROUTE_LEN)
        for i in range(4):
            assert [x for x in rows[i] if x >= 0] == cl.route(int(src[i]), int(dst[i]))

    def test_route_matrix_memory_linear_in_messages(self):
        """Routing 1,000 messages at 2,048 nodes allocates per message.

        A per-node-pair table of network segments would be 64 MiB at this
        size; building one peaked at 172 MiB.
        """
        cl = gpc_cluster(2048)
        rng = make_rng(0)
        src = rng.integers(0, cl.n_cores, 1000)
        dst = (src + rng.integers(1, cl.n_cores, 1000)) % cl.n_cores
        tracemalloc.start()
        try:
            routes = cl.route_matrix(src, dst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert routes.shape == (1000, MAX_ROUTE_LEN)
        assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_all_route_links_valid(self, a, b):
        cl = gpc_cluster(8)
        if a == b:
            return
        for lid in cl.route(a, b):
            assert 0 <= lid < cl.n_links


class TestDistances:
    def test_distance_ladder(self, mid_cluster):
        cl = mid_cluster
        d = cl.distance_row(0)
        assert d[0] == 0.0
        assert d[1] == d[2] == d[3]              # same socket
        assert d[4] == d[7] > d[1]               # cross socket
        assert d[8] > d[7]                       # other node, same leaf
        assert len(np.unique(d)) >= 3

    def test_cross_leaf_larger(self):
        cl = small_cluster()  # 2 nodes/leaf
        same_leaf = cl.distance(0, 4)
        cross_leaf = cl.distance(0, 8)
        assert cross_leaf > same_leaf

    def test_distance_symmetry(self, mid_cluster):
        D = mid_cluster.distance_matrix()
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0)

    def test_distance_consistent_with_route_weights(self, mid_cluster):
        """D[a,b] equals the sum of class weights along the actual route."""
        cl = mid_cluster
        rng = make_rng(0)
        for _ in range(30):
            a, b = rng.integers(cl.n_cores, size=2)
            if a == b:
                continue
            expect = sum(
                cl.weights[LinkClass(cl.link_class[l])] for l in cl.route(int(a), int(b))
            )
            assert float(cl.distance(a, b)) == pytest.approx(expect)

    def test_distance_row_matches_matrix(self, mid_cluster):
        D = mid_cluster.distance_matrix()
        assert np.allclose(mid_cluster.distance_row(5), D[5])


class TestChannelOf:
    def test_channels(self, mid_cluster):
        cl = mid_cluster
        assert cl.channel_of(2, 2) == "self"
        assert cl.channel_of(0, 1) == "smem"
        assert cl.channel_of(0, 5) == "qpi"
        assert cl.channel_of(0, 9) == "leaf"

    def test_cross_leaf_channels(self):
        cl = small_cluster()  # 2 nodes/leaf, lines_per_core=3
        assert cl.channel_of(0, 8) in ("line", "spine")

    def test_out_of_range(self, mid_cluster):
        with pytest.raises(ValueError):
            mid_cluster.channel_of(0, mid_cluster.n_cores)


class TestLinkClassTable:
    def test_every_link_classified(self, mid_cluster):
        cls = mid_cluster.link_class
        assert cls.shape == (mid_cluster.n_links,)
        present = set(int(c) for c in np.unique(cls))
        assert int(LinkClass.SMEM) in present
        assert int(LinkClass.MEM) in present
        assert int(LinkClass.HCA) in present


class TestImplicitView:
    def test_dropped_cluster_freed_without_cyclic_gc(self):
        """Reference counting alone frees a cluster whose view was built."""
        gc.disable()
        try:
            cluster = small_cluster()
            cluster.implicit_distances()
            ref = weakref.ref(cluster)
            del cluster
            assert ref() is None
        finally:
            gc.enable()

    def test_view_shared_while_held(self, mid_cluster):
        view = mid_cluster.implicit_distances()
        assert mid_cluster.implicit_distances() is view

    def test_pickle_round_trip_after_view(self):
        cluster = small_cluster()
        view = cluster.implicit_distances()
        copy = pickle.loads(pickle.dumps(cluster))
        assert copy.implicit_distances().fingerprint == view.fingerprint
        assert copy.fingerprint() == cluster.fingerprint()
