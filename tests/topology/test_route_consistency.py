"""Cross-layer consistency: cluster routes vs the fat-tree's own routing.

``ClusterTopology.route_matrix`` computes the network segment of each
inter-leaf message in closed form (``FatTreeNetwork.route_columns``),
while :meth:`FatTreeNetwork.route` walks it per call; both must agree
with the per-node-pair table the cluster once precomputed
(:func:`_build_net_routes`, kept here as the oracle), or congestion
would be attributed to the wrong cables.  Also checks endpoint-name
round-trips for every network link.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.fattree import FatTreeConfig, FatTreeNetwork
from repro.topology.gpc import gpc_cluster, small_cluster


def _net_routes(cluster, na, nb):
    """Fat-tree segment of node pairs ``(na, nb)`` (broadcasting arrays).

    Returns int32 ``(..., 4)`` rows of [leaf-line up, line-spine up,
    line-spine down, leaf-line down], ``-1``-padded; same-node and
    same-leaf pairs are fully ``-1`` (their messages never enter the
    switch fabric beyond the leaf).
    """
    cfg = cluster.network.config
    na = np.asarray(na, dtype=np.int64)
    nb = np.asarray(nb, dtype=np.int64)
    leaf_a = na // cfg.nodes_per_leaf
    leaf_b = nb // cfg.nodes_per_leaf
    # Destination-based choices (mirrors FatTreeNetwork.route).
    port = nb % (cfg.n_core_switches * cfg.leaf_uplinks_per_core)
    core = port // cfg.leaf_uplinks_per_core
    up_cable = port % cfg.leaf_uplinks_per_core
    dn_cable = nb % cfg.leaf_uplinks_per_core
    line_src = leaf_a % cfg.lines_per_core
    line_dst = leaf_b % cfg.lines_per_core
    spine = leaf_b % cfg.spines_per_core
    ls_cable = nb % cfg.line_spine_multiplicity

    net = cluster.network
    ll_up = net._ll_up0 + ((leaf_a * cfg.n_core_switches + core) * cfg.leaf_uplinks_per_core + up_cable)
    ll_dn = net._ll_dn0 + ((leaf_b * cfg.n_core_switches + core) * cfg.leaf_uplinks_per_core + dn_cable)
    ls_up = net._ls_up0 + (
        ((core * cfg.lines_per_core + line_src) * cfg.spines_per_core + spine)
        * cfg.line_spine_multiplicity
        + ls_cable
    )
    ls_dn = net._ls_dn0 + (
        ((core * cfg.lines_per_core + line_dst) * cfg.spines_per_core + spine)
        * cfg.line_spine_multiplicity
        + ls_cable
    )

    shape = np.broadcast(na, nb).shape
    routes = np.full(shape + (4,), -1, dtype=np.int32)
    diff_leaf = leaf_a != leaf_b
    same_line = line_src == line_dst
    routes[..., 0] = np.where(diff_leaf, ll_up, -1)
    routes[..., 1] = np.where(diff_leaf & ~same_line, ls_up, -1)
    routes[..., 2] = np.where(diff_leaf & ~same_line, ls_dn, -1)
    routes[..., 3] = np.where(diff_leaf, ll_dn, -1)
    return routes


def _build_net_routes(cluster):
    """The ``(n_nodes, n_nodes, 4)`` segment table of every ordered node pair."""
    nodes = np.arange(cluster.n_nodes)
    return _net_routes(cluster, nodes[:, None], nodes[None, :])


def _segments(cluster, na, nb):
    """``route_matrix`` columns 4-7 of one message per node pair.

    The message runs from the first core of node ``na`` to the second
    core of node ``nb``, so no pair is a self-message.
    """
    cpn = cluster.cores_per_node
    src = np.asarray(na, dtype=np.int64) * cpn
    dst = np.asarray(nb, dtype=np.int64) * cpn + 1
    return cluster.route_matrix(src, dst)[:, 4:8]


def _per_call(cluster, na, nb):
    """``FatTreeNetwork.route`` of one node pair, padded like the table."""
    npl = cluster.network.config.nodes_per_leaf
    route = cluster.network.route(na // npl, nb // npl, dst_node=nb)
    if len(route) == 2:  # same line switch: no line-spine hops
        route = [route[0], -1, -1, route[1]]
    return route + [-1] * (4 - len(route))


@functools.lru_cache(maxsize=None)
def _gpc(n_nodes):
    """One GPC cluster per size for the whole module."""
    return gpc_cluster(n_nodes)


def eight_leaves():
    """16 nodes on 8 leaves over 3 line switches: leaves share line switches."""
    return small_cluster(n_nodes=16)


class TestNetRouteCongruence:
    @pytest.mark.parametrize(
        "cluster_fn", [small_cluster, lambda: gpc_cluster(64), eight_leaves]
    )
    def test_precomputed_matches_per_call(self, cluster_fn):
        """Every ordered node pair: closed form == oracle table == per call."""
        cl = cluster_fn()
        n = cl.n_nodes
        na, nb = np.divmod(np.arange(n * n), n)
        got = _segments(cl, na, nb)
        np.testing.assert_array_equal(got, _build_net_routes(cl)[na, nb])
        for a, b, row in zip(na.tolist(), nb.tolist(), got.tolist()):
            assert row == _per_call(cl, a, b), (a, b)

    def test_same_node_rows_empty(self, mid_cluster):
        n = mid_cluster.n_nodes
        diag = _segments(mid_cluster, np.arange(n), np.arange(n))
        assert np.all(diag == -1)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_nodes=st.sampled_from([512, 2048]))
    def test_gpc_scale_congruence(self, data, n_nodes):
        node = st.integers(0, n_nodes - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=16))
        na, nb = (np.array(side) for side in zip(*pairs))
        cl = _gpc(n_nodes)
        got = _segments(cl, na, nb)
        np.testing.assert_array_equal(got, _net_routes(cl, na, nb))
        for a, b, row in zip(na.tolist(), nb.tolist(), got.tolist()):
            assert row == _per_call(cl, a, b), (a, b)


class TestEndpointNames:
    def test_all_network_links_describable(self):
        net = FatTreeNetwork(FatTreeConfig(n_leaves=5, lines_per_core=3, spines_per_core=2))
        seen = set()
        for lid in range(net.n_links):
            a, b = net.endpoints(lid)
            assert a and b and a != b
            # (direction, endpoints) uniquely identifies a link
            key = (a, b, lid < net._ls_up0, lid)
            seen.add((a, b))
        # up and down variants give distinct ordered pairs
        assert len(seen) == net.n_links

    def test_route_endpoints_chain(self):
        """Consecutive links of a route share the intermediate switch.

        Endpoint names carry the parallel-cable index (``line0[1]``); the
        switch identity is the name with the cable tag stripped.
        """

        def switch(name):
            return name.split("[")[0]

        net = FatTreeNetwork(FatTreeConfig())
        for dst_leaf, dst_node in ((1, 40), (18, 545), (0, 5)):
            route = net.route(0, dst_leaf, dst_node=dst_node)
            hops = [net.endpoints(l) for l in route]
            for (a1, b1), (a2, b2) in zip(hops, hops[1:]):
                assert switch(b1) == switch(a2), hops
