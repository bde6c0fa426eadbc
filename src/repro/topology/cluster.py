"""Unified cluster topology: one directed link graph over the whole system.

Every communication channel the paper cares about is a *link* with a dense
integer id and a :class:`LinkClass`:

* ``SMEM``       per-core copy-path links (core <-> its socket's L3/memory
  complex) — they bound a single pair's shared-memory bandwidth;
* ``MEM``        one shared memory-bus link per socket — every message
  touching the socket crosses it (twice for an intra-socket message: the
  sender's write and the receiver's read), bounding the socket's
  *aggregate* messaging bandwidth;
* ``QPI``        per-core lanes crossed when a message changes sockets
  inside a node (the inter-socket interconnect);
* ``HCA``        node <-> leaf switch (the node's InfiniBand adapter,
  shared by all the node's processes — the big serialisation point);
* ``LEAF_LINE`` / ``LINE_SPINE``  fat-tree switch cables.

A message from core *a* to core *b* follows the unique deterministic route
through this graph (up the source node's hierarchy, across the fat-tree,
down the destination's).  Two things fall out of the same structure:

* the **distance matrix** ``D`` the heuristics consume (paper §IV): the
  sum of per-class weights along the route, giving the strict hierarchy
  same-socket < cross-socket < same-leaf < same-line < cross-spine;
* the **route matrix** the timing engine consumes: per-message padded rows
  of directed link ids, one link class per column, so per-stage link loads
  are summed column by column.  Which columns are real depends only on a
  message's locality level (:data:`LEVEL_COLUMNS`), which
  :meth:`ClusterTopology.routes_for` returns beside the table.

Routes are fully vectorised and computed per call in memory linear in the
messages: the fat-tree segment of each inter-leaf message is a closed-form
function of its endpoints (:meth:`FatTreeNetwork.route_columns`), so no
per-node-pair table is kept.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from enum import IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.fattree import FatTreeConfig, FatTreeNetwork
from repro.topology.hardware import MachineTopology
from repro.util.validation import check_positive

__all__ = [
    "LinkClass",
    "ClusterTopology",
    "MAX_ROUTE_LEN",
    "MEM_BUS_COLUMNS",
    "COLUMN_CLASSES",
    "LEVEL_COLUMNS",
    "LEVEL_CHANNELS",
    "DEFAULT_DISTANCE_WEIGHTS",
]

#: Maximum number of directed links on any core-to-core route: core-up,
#: src-mem, qpi-up, hca-up, 4 network links, hca-down, qpi-down, dst-mem,
#: core-down.
MAX_ROUTE_LEN = 12

#: The two route columns that share link ids: a socket's memory bus is
#: crossed by the sender's write (column 1) and the receiver's read
#: (column 10).  Every other link id appears in one column only.
MEM_BUS_COLUMNS = (1, 10)


class LinkClass(IntEnum):
    """Channel class of a directed link (orders the cost hierarchy)."""

    SMEM = 0
    MEM = 1
    QPI = 2
    HCA = 3
    LEAF_LINE = 4
    LINE_SPINE = 5


#: The link class of each route column, in route order.
COLUMN_CLASSES = (
    LinkClass.SMEM, LinkClass.MEM, LinkClass.QPI, LinkClass.HCA,
    LinkClass.LEAF_LINE, LinkClass.LINE_SPINE, LinkClass.LINE_SPINE, LinkClass.LEAF_LINE,
    LinkClass.HCA, LinkClass.QPI, LinkClass.MEM, LinkClass.SMEM,
)

#: A message's locality level, closest first, named by the channel
#: :meth:`ClusterTopology.channel_of` reports for it: same socket, cross
#: socket, same leaf, same line switch, via a spine (paper §IV, Fig. 2).
LEVEL_CHANNELS = ("smem", "qpi", "leaf", "line", "spine")

#: ``LEVEL_COLUMNS[level, col]`` is True iff route column ``col`` holds a
#: real link for a message at ``level``; its other columns are padding.
LEVEL_COLUMNS = np.array(
    [
        # core, mem, qpi, hca, leaf-line, line-spine x 2, line-leaf, hca, qpi, mem, core
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],  # same socket
        [1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1],  # cross socket
        [1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1],  # same leaf
        [1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1],  # same line switch
        [1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1],  # via a spine
    ],
    dtype=bool,
)
LEVEL_COLUMNS.flags.writeable = False


#: Per-class contribution to the physical distance metric.  Chosen so the
#: route sums produce the strictly increasing ladder
#: 0 (self) < 1 (same socket) < 3 (cross socket) < 5 (same leaf)
#: < 7 (same line switch) < 9 (via spine).  The shared memory bus does not
#: count towards distance (it is a capacity, not a locality level).
DEFAULT_DISTANCE_WEIGHTS: Dict[LinkClass, float] = {
    LinkClass.SMEM: 0.5,
    LinkClass.MEM: 0.0,
    LinkClass.QPI: 1.0,
    LinkClass.HCA: 2.0,
    LinkClass.LEAF_LINE: 1.0,
    LinkClass.LINE_SPINE: 1.0,
}


class ClusterTopology:
    """A cluster of identical nodes attached to a fat-tree network.

    Parameters
    ----------
    n_nodes:
        Number of compute nodes in use (must fit the network's capacity).
    machine:
        Per-node topology (sockets x cores).
    network:
        The fat-tree; nodes fill leaves in order (node ``i`` hangs off leaf
        ``i // nodes_per_leaf``), which is how schedulers allocate
        contiguous jobs on GPC.
    distance_weights:
        Optional override of :data:`DEFAULT_DISTANCE_WEIGHTS`.
    """

    def __init__(
        self,
        n_nodes: int,
        machine: Optional[MachineTopology] = None,
        network: Optional[FatTreeNetwork] = None,
        distance_weights: Optional[Dict[LinkClass, float]] = None,
    ) -> None:
        check_positive("n_nodes", n_nodes)
        self.machine = machine if machine is not None else MachineTopology()
        if network is None:
            # Size a default network just big enough for the requested nodes.
            cfg = FatTreeConfig(
                n_leaves=max(1, -(-n_nodes // FatTreeConfig().nodes_per_leaf)),
            )
            network = FatTreeNetwork(cfg)
        self.network = network
        cap = network.config.max_nodes
        if n_nodes > cap:
            raise ValueError(f"{n_nodes} nodes exceed network capacity {cap}")
        self.n_nodes = int(n_nodes)
        self.cores_per_node = self.machine.n_cores
        self.n_cores = self.n_nodes * self.cores_per_node
        self.weights = dict(DEFAULT_DISTANCE_WEIGHTS)
        if distance_weights:
            self.weights.update(distance_weights)

        # ---- directed link id layout -------------------------------------
        net = network.n_links
        n_sockets_total = self.n_nodes * self.machine.n_sockets
        self._hca_up0 = net
        self._hca_dn0 = net + self.n_nodes
        self._mem0 = net + 2 * self.n_nodes                    # one per socket
        self._qpi_up0 = self._mem0 + n_sockets_total           # one per core
        self._qpi_dn0 = self._qpi_up0 + self.n_cores
        self._core_up0 = self._qpi_dn0 + self.n_cores
        self._core_dn0 = self._core_up0 + self.n_cores
        self.n_links = self._core_dn0 + self.n_cores

        # ---- per-link class table ----------------------------------------
        cls = np.empty(self.n_links, dtype=np.int8)
        for lid in range(net):
            cls[lid] = (
                LinkClass.LEAF_LINE if network.is_leaf_line(lid) else LinkClass.LINE_SPINE
            )
        cls[self._hca_up0 : self._mem0] = LinkClass.HCA
        cls[self._mem0 : self._qpi_up0] = LinkClass.MEM
        cls[self._qpi_up0 : self._core_up0] = LinkClass.QPI
        cls[self._core_up0 :] = LinkClass.SMEM
        self.link_class = cls

        self._distance_matrix: Optional[np.ndarray] = None
        # Weak reference to the lazy ImplicitDistances view: the view holds
        # this cluster, so a strong one would make a cycle that keeps a
        # dropped cluster (and its tables) alive until the cyclic GC runs.
        self._implicit_distances: Optional[weakref.ref] = None
        self._fingerprint: Optional[str] = None

    def __getstate__(self) -> dict:
        """Pickle state; the weak view reference is dropped (rebuilt on demand)."""
        state = self.__dict__.copy()
        state["_implicit_distances"] = None
        return state

    # ------------------------------------------------------------------
    # core / node / socket arithmetic
    # ------------------------------------------------------------------
    def node_of(self, core) -> np.ndarray:
        """Node index of global core id(s)."""
        return np.asarray(core, dtype=np.int64) // self.cores_per_node

    def local_core(self, core) -> np.ndarray:
        """Within-node core index of global core id(s)."""
        return np.asarray(core, dtype=np.int64) % self.cores_per_node

    def socket_of(self, core) -> np.ndarray:
        """Socket index (within the node) of global core id(s)."""
        return self.local_core(core) // self.machine.cores_per_socket

    def global_socket_of(self, core) -> np.ndarray:
        """Globally unique socket index of global core id(s)."""
        return self.node_of(core) * self.machine.n_sockets + self.socket_of(core)

    def leaf_of_node(self, node) -> np.ndarray:
        """Leaf switch of node id(s)."""
        return np.asarray(node, dtype=np.int64) // self.network.config.nodes_per_leaf

    def leaf_of(self, core) -> np.ndarray:
        """Leaf switch of global core id(s)."""
        return self.leaf_of_node(self.node_of(core))

    def cores_of_node(self, node: int) -> range:
        """Global core ids on ``node``."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
        start = node * self.cores_per_node
        return range(start, start + self.cores_per_node)

    # ------------------------------------------------------------------
    # link ids (scalar and vectorised — all accept arrays)
    # ------------------------------------------------------------------
    def hca_up(self, node):
        """Directed link id: node hub -> leaf switch (the HCA send side)."""
        return self._hca_up0 + np.asarray(node, dtype=np.int64)

    def hca_down(self, node):
        """Directed link id: leaf switch -> node hub (the HCA receive side)."""
        return self._hca_dn0 + np.asarray(node, dtype=np.int64)

    def mem_bus(self, core):
        """Shared memory-bus link of the socket hosting ``core``."""
        return self._mem0 + self.global_socket_of(core)

    def qpi_up(self, core):
        """Per-core QPI lane leaving the core's socket."""
        return self._qpi_up0 + np.asarray(core, dtype=np.int64)

    def qpi_down(self, core):
        """Per-core QPI lane entering the core's socket."""
        return self._qpi_dn0 + np.asarray(core, dtype=np.int64)

    def core_up(self, core):
        """Directed link id: core -> its socket's L3/memory complex."""
        return self._core_up0 + np.asarray(core, dtype=np.int64)

    def core_down(self, core):
        """Directed link id: socket's L3/memory complex -> core."""
        return self._core_dn0 + np.asarray(core, dtype=np.int64)

    # ------------------------------------------------------------------
    # full routes
    # ------------------------------------------------------------------
    def route_matrix(self, src: Sequence[int], dst: Sequence[int]) -> np.ndarray:
        """Padded directed-link routes for a batch of messages.

        Parameters are global core ids (equal length); self-messages are
        rejected because no collective schedule emits them.  Returns an
        int32 array of shape ``(n_msgs, MAX_ROUTE_LEN)``, ``-1``-padded and
        column-major (each column is contiguous), so the timing engine's
        per-column load sums and gathers stream through memory.  Columns
        4-7 (the fat-tree segment) come from
        :meth:`FatTreeNetwork.route_columns` for inter-leaf messages only;
        everything is computed per call, in memory linear in the batch.

        Every column holds links of a single class,
        :data:`COLUMN_CLASSES`, or the pad, and which columns are real
        depends only on the message's locality level
        (:data:`LEVEL_COLUMNS`).  Columns draw from disjoint link-id
        blocks, except that an intra-socket message crosses its socket's
        memory bus twice (sender write + receiver read), so the bus id
        appears in both :data:`MEM_BUS_COLUMNS`.
        """
        return self.routes_for(src, dst)[0]

    def routes_for(
        self, src: Sequence[int], dst: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Route table and locality levels of a batch: the timing layer's entry.

        Returns :meth:`route_matrix`'s table and an int8 array holding
        each message's locality level, an index into :data:`LEVEL_COLUMNS`
        and :data:`LEVEL_CHANNELS`.  The levels come from the masks that
        place the padding (cross socket, inter node, inter leaf, and the
        fat-tree's same-line test), so ``routes[i] >= 0`` is
        ``LEVEL_COLUMNS[level[i]]``.  Tables are not memoized here: the
        timing engine's pricing LRU already keeps every table a repeated
        (schedule, mapping) needs.  So each call returns a fresh table the
        caller owns; the timing engine turns it into load bins in place.
        """
        s = np.asarray(src, dtype=np.int64)
        d = np.asarray(dst, dtype=np.int64)
        if s.shape != d.shape or s.ndim != 1:
            raise ValueError("src and dst must be equal-length 1-D arrays")
        if np.any(s == d):
            raise ValueError("self-message (src == dst) has no route")
        if s.size and (s.min() < 0 or d.min() < 0 or max(s.max(), d.max()) >= self.n_cores):
            raise ValueError("core id out of range")

        s, d = s.astype(np.int32), d.astype(np.int32)
        node_s, node_d = s // self.cores_per_node, d // self.cores_per_node
        # Nodes hold whole sockets, so the global socket is core // cps.
        sock_s = s // self.machine.cores_per_socket
        sock_d = d // self.machine.cores_per_socket
        inter_node = node_s != node_d
        # QPI lanes are crossed only when changing sockets inside a node.
        cross_socket = (sock_s != sock_d) & ~inter_node

        cols = np.full((MAX_ROUTE_LEN, s.size), -1, dtype=np.int32)
        np.add(s, self._core_up0, out=cols[0])
        np.add(sock_s, self._mem0, out=cols[1])
        np.add(s, self._qpi_up0, out=cols[2], where=cross_socket)
        np.add(node_s, self._hca_up0, out=cols[3], where=inter_node)
        npl = self.network.config.nodes_per_leaf
        far = np.flatnonzero(node_s // npl != node_d // npl)  # inter-leaf
        if far.size:
            node_far = node_d[far]
            cols[4:8, far] = self.network.route_columns(
                node_s[far] // npl, node_far // npl, node_far
            )
        np.add(node_d, self._hca_dn0, out=cols[8], where=inter_node)
        np.add(d, self._qpi_dn0, out=cols[9], where=cross_socket)
        np.add(sock_d, self._mem0, out=cols[10])
        np.add(d, self._core_dn0, out=cols[11])
        # The level index counts the masks that placed the padding: 1 for
        # cross socket, 2 for inter node, +1 for a leaf-line hop (inter
        # leaf) and +1 for a line-spine hop (route_columns' same-line test).
        level = np.add(inter_node, inter_node, dtype=np.int8)
        level += cross_socket
        level += cols[4] >= 0
        level += cols[5] >= 0
        return cols.T, level

    def route(self, src: int, dst: int) -> List[int]:
        """Readable single-message route (list of directed link ids)."""
        row = self.route_matrix([src], [dst])[0]
        return [int(x) for x in row if x >= 0]

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def _pair_distance(self, s: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Vectorised core-to-core distance (no route materialisation)."""
        w = self.weights
        node_s, node_d = self.node_of(s), self.node_of(d)
        gsock_s, gsock_d = self.global_socket_of(s), self.global_socket_of(d)
        leaf_s, leaf_d = self.leaf_of_node(node_s), self.leaf_of_node(node_d)
        lines = self.network.config.lines_per_core
        line_s, line_d = leaf_s % lines, leaf_d % lines

        out = np.zeros(np.broadcast(s, d).shape, dtype=np.float64)
        same_core = s == d
        diff_node = node_s != node_d
        cross_socket = (~diff_node) & (gsock_s != gsock_d)
        diff_leaf = leaf_s != leaf_d
        diff_line = diff_leaf & (line_s != line_d)

        out += np.where(same_core, 0.0, 2 * w[LinkClass.SMEM])
        out += np.where(cross_socket, 2 * w[LinkClass.QPI], 0.0)
        out += np.where(diff_node, 2 * w[LinkClass.HCA], 0.0)
        out += np.where(diff_leaf, 2 * w[LinkClass.LEAF_LINE], 0.0)
        out += np.where(diff_line, 2 * w[LinkClass.LINE_SPINE], 0.0)
        return out

    def distance(self, src, dst) -> np.ndarray:
        """Distance between core id(s) ``src`` and ``dst`` (broadcasting)."""
        s = np.asarray(src, dtype=np.int64)
        d = np.asarray(dst, dtype=np.int64)
        return self._pair_distance(s, d)

    def distance_row(self, core: int) -> np.ndarray:
        """Distances from ``core`` to every core (length ``n_cores``)."""
        all_cores = np.arange(self.n_cores, dtype=np.int64)
        return self._pair_distance(np.int64(core), all_cores)

    def distance_matrix(self) -> np.ndarray:
        """The full core-by-core distance matrix ``D`` (float32, cached).

        This is the object the paper extracts once via hwloc + IB tools and
        saves for future reference (§IV).
        """
        if self._distance_matrix is None:
            cores = np.arange(self.n_cores, dtype=np.int64)
            self._distance_matrix = self._pair_distance(
                cores[:, None], cores[None, :]
            ).astype(np.float32)
        return self._distance_matrix

    def implicit_distances(self):
        """Row-on-demand distance backend (no dense D materialisation).

        Returns the cluster's :class:`repro.topology.implicit.
        ImplicitDistances` view — the scalable alternative to
        :meth:`distance_matrix` for large core counts.  Rows computed by
        the view are bit-identical to the dense matrix.  The same view is
        returned for as long as any caller holds it.
        """
        ref = self._implicit_distances
        view = ref() if ref is not None else None
        if view is None:
            # Local import: implicit.py imports this module at top level.
            from repro.topology.implicit import ImplicitDistances

            view = ImplicitDistances(self)
            self._implicit_distances = weakref.ref(view)
        return view

    def fingerprint(self) -> str:
        """Stable identity of this cluster's structure (shape + wiring + weights).

        Two clusters with equal fingerprints produce identical distance
        matrices, routes and link layouts; the mapping cache and the
        persisted distance files key on this value.
        """
        if self._fingerprint is None:
            cfg = self.network.config
            payload = {
                "n_nodes": self.n_nodes,
                "n_sockets": self.machine.n_sockets,
                "cores_per_socket": self.machine.cores_per_socket,
                "n_leaves": cfg.n_leaves,
                "nodes_per_leaf": cfg.nodes_per_leaf,
                "n_core_switches": cfg.n_core_switches,
                "lines_per_core": cfg.lines_per_core,
                "spines_per_core": cfg.spines_per_core,
                "leaf_uplinks_per_core": cfg.leaf_uplinks_per_core,
                "line_spine_multiplicity": cfg.line_spine_multiplicity,
                "weights": {k.name: v for k, v in sorted(self.weights.items())},
            }
            blob = json.dumps(payload, sort_keys=True).encode()
            self._fingerprint = hashlib.sha256(blob).hexdigest()[:16]
        return self._fingerprint

    # ------------------------------------------------------------------
    # fault recovery
    # ------------------------------------------------------------------
    def shrink(self, failed_nodes: Sequence[int]) -> np.ndarray:
        """ULFM-style shrink: the usable cores once ``failed_nodes`` died.

        The physical fabric is unchanged (dead nodes keep their leaf
        ports, so every link id, route and distance stays valid); what
        contracts is the *usable core pool*.  Returns the surviving
        global core ids in ascending order — feed them to
        :mod:`repro.faults.shrink` to renumber a communicator's ranks.
        """
        failed = {int(n) for n in np.asarray(failed_nodes, dtype=np.int64).ravel()}
        for node in failed:
            if not 0 <= node < self.n_nodes:
                raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
        if len(failed) >= self.n_nodes:
            raise ValueError("cannot shrink: every node failed")
        cores = np.arange(self.n_cores, dtype=np.int64)
        alive = ~np.isin(self.node_of(cores), np.array(sorted(failed), dtype=np.int64))
        return cores[alive]

    # ------------------------------------------------------------------
    # channel classification (reporting / tests)
    # ------------------------------------------------------------------
    def channel_of(self, src: int, dst: int) -> str:
        """Coarse name of the dominant channel between two cores."""
        if not (0 <= src < self.n_cores and 0 <= dst < self.n_cores):
            raise ValueError("core id out of range")
        if src == dst:
            return "self"
        if self.node_of(src) == self.node_of(dst):
            return "smem" if self.socket_of(src) == self.socket_of(dst) else "qpi"
        leaf_s, leaf_d = int(self.leaf_of(src)), int(self.leaf_of(dst))
        hops = self.network.switch_hops(leaf_s, leaf_d)
        return {0: "leaf", 2: "line", 4: "spine"}[hops]

    def __repr__(self) -> str:
        return (
            f"ClusterTopology({self.n_nodes} nodes x {self.cores_per_node} cores = "
            f"{self.n_cores} cores; {self.network.describe()})"
        )
