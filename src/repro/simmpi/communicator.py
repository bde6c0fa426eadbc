"""mpi4py-flavoured virtual communicators with run-time rank reordering.

This is the user-facing face of the simulated MPI runtime: a
:class:`Session` owns a cluster and an initial layout, hands out a
``COMM_WORLD``-like :class:`VirtualComm`, and supports the paper's §IV
workflow:

>>> sess = Session(small_cluster(), layout="cyclic-bunch")
>>> comm = sess.comm_world()
>>> ring = comm.reordered("ring")            # reorder once at "run time"
>>> out = ring.allgather_data()              # functionally correct output
>>> t = ring.allgather_latency(block_bytes=65536)   # simulated latency

Reordering honours the paper's info-key idea ("we could also use an info
key to allow the programmer to enable/disable the whole approach for each
communicator separately"): communicators carry an ``info`` dict and
``reordered()`` is a no-op when ``info["topo_reorder"] == "false"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.collectives.correctness import (
    OrderStrategy,
    RankReordering,
    execute_reordered_allgather,
)
from repro.collectives.registry import select_allgather
from repro.evaluation.evaluator import AllgatherEvaluator
from repro.mapping.initial import make_layout
from repro.mapping.reorder import reorder_ranks
from repro.simmpi.costmodel import CostModel
from repro.topology.cluster import ClusterTopology
from repro.util.rng import RngLike, make_rng

__all__ = ["Session", "VirtualComm"]


class Session:
    """A simulated MPI job: cluster + initial layout + evaluator."""

    def __init__(
        self,
        cluster: ClusterTopology,
        layout="block-bunch",
        n_processes: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
        rng: RngLike = 0,
    ) -> None:
        self.cluster = cluster
        p = cluster.n_cores if n_processes is None else int(n_processes)
        if isinstance(layout, str):
            self.layout = make_layout(layout, cluster, p)
        else:
            self.layout = np.asarray(layout, dtype=np.int64)
            if self.layout.size != p:
                raise ValueError("explicit layout length disagrees with n_processes")
        self.evaluator = AllgatherEvaluator(cluster, cost_model=cost_model, rng=rng)
        self._bcast_evaluator = None
        self.rng = make_rng(rng)

    def comm_world(self, info: Optional[Dict[str, str]] = None) -> "VirtualComm":
        """The world communicator over the initial layout."""
        return VirtualComm(
            session=self,
            reordering=RankReordering.identity(self.layout),
            info=dict(info or {}),
        )


@dataclass
class VirtualComm:
    """A communicator: a binding of ranks to cores plus collective ops."""

    session: Session
    reordering: RankReordering
    info: Dict[str, str] = field(default_factory=dict)
    pattern: str = ""

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of processes (``MPI_Comm_size``)."""
        return self.reordering.p

    def core_of_rank(self, rank: int) -> int:
        """Physical core hosting ``rank``."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        return int(self.reordering.mapping[rank])

    def is_reordered(self) -> bool:
        """True iff any rank's core binding differs from the layout."""
        return not self.reordering.is_identity()

    # ------------------------------------------------------------------
    def reordered(
        self,
        pattern: str,
        kind: str = "heuristic",
        rng: Optional[RngLike] = None,
        **mapper_kwargs,
    ) -> "VirtualComm":
        """Create the rank-reordered copy of this communicator (paper §IV).

        Happens once; the returned communicator is reused by subsequent
        collective calls.  Disabled (returns ``self``) when the info key
        ``topo_reorder`` is set to ``"false"``.
        """
        if self.info.get("topo_reorder", "true").lower() == "false":
            return self
        if rng is None:
            rng = int(self.session.rng.integers(2**31))
        result = reorder_ranks(
            pattern,
            self.reordering.mapping,
            self.session.evaluator.distances,
            kind=kind,
            rng=rng,
            **mapper_kwargs,
        )
        return VirtualComm(
            session=self.session,
            reordering=RankReordering(
                layout=self.reordering.layout, mapping=result.mapping
            ),
            info=dict(self.info),
            pattern=pattern,
        )

    # ------------------------------------------------------------------
    def shrink(self, failed_nodes: Sequence[int]) -> "VirtualComm":
        """ULFM ``MPI_Comm_shrink``: drop ranks hosted on dead nodes.

        Survivors are renumbered densely in rank order; a reordered
        communicator stays reordered with the holes closed up (the
        *shrink-keep-mapping* recovery state).  Chain with
        :meth:`reordered` to realise *shrink-remap*:

        >>> healed = comm.shrink([3]).reordered("ring")
        """
        from repro.faults.shrink import shrink_reordering

        return VirtualComm(
            session=self.session,
            reordering=shrink_reordering(
                self.session.cluster, self.reordering, failed_nodes
            ),
            info=dict(self.info),
            pattern=self.pattern,
        )

    # ------------------------------------------------------------------
    def split(self, colors: Sequence[int]) -> Dict[int, "VirtualComm"]:
        """MPI_Comm_split: partition ranks by colour, keeping rank order.

        ``colors[rank]`` assigns each rank a colour; returns one
        sub-communicator per colour.  The canonical use is the node
        communicator of the hierarchical algorithms:

        >>> node_comms = comm.split(cluster.node_of(layout))
        """
        colors = np.asarray(colors)
        if colors.shape != (self.size,):
            raise ValueError(f"colors must have shape ({self.size},), got {colors.shape}")
        out: Dict[int, "VirtualComm"] = {}
        for color in np.unique(colors):
            members = np.flatnonzero(colors == color)
            # the sub-communicator starts unreordered relative to its own
            # rank order (like a fresh MPI communicator); its processes
            # are this communicator's current rank->core binding
            cores = self.reordering.mapping[members]
            out[int(color)] = VirtualComm(
                session=self.session,
                reordering=RankReordering.identity(cores),
                info=dict(self.info),
            )
        return out

    def node_comms(self) -> Dict[int, "VirtualComm"]:
        """Split into per-node communicators (the hierarchical building block)."""
        nodes = self.session.cluster.node_of(self.reordering.mapping)
        return self.split(nodes)

    # ------------------------------------------------------------------
    def allgather_latency(
        self,
        block_bytes: float,
        strategy: str = "initcomm",
        algorithm=None,
    ) -> float:
        """Simulated latency of one MPI_Allgather on this communicator."""
        ev = self.session.evaluator
        p = self.size
        alg = algorithm if algorithm is not None else select_allgather(p, block_bytes)
        coll = ev.engine.evaluate_sizes(
            alg.schedule(p), self.reordering.mapping, [block_bytes]
        ).total_seconds
        inline = getattr(alg, "supports_inline_placement", False)
        _, restore = ev._restore(
            OrderStrategy.parse(strategy), alg.name, self.reordering, [block_bytes], inline
        )
        return float(coll[0] + restore[0])

    def bcast_latency(self, message_bytes: float, kind: str = "none") -> float:
        """Simulated latency of one MPI_Bcast from rank 0.

        ``kind="none"`` prices the current binding; a mapper kind
        ("heuristic", "scotch", "greedy") prices a freshly reordered one
        (BBMH for the tree regime, per the §V claim).
        """
        from repro.evaluation.bcast import BcastEvaluator

        if self.session._bcast_evaluator is None:
            self.session._bcast_evaluator = BcastEvaluator(
                self.session.cluster, cost_model=self.session.evaluator.cost
            )
        ev = self.session._bcast_evaluator
        if kind == "none":
            return ev.default_latency(self.reordering.mapping, message_bytes).seconds
        return ev.reordered_latency(self.reordering.mapping, message_bytes, kind).seconds

    def allgather_data(
        self,
        strategy: str = "initcomm",
        algorithm=None,
        block_bytes: float = 64,
    ) -> np.ndarray:
        """Run the allgather on real data; rows are per-process outputs.

        The output of every process is in original-rank order, whatever
        the reordering — this is the §V-B guarantee, actually executed.
        """
        p = self.size
        alg = algorithm if algorithm is not None else select_allgather(p, block_bytes)
        strat = OrderStrategy.parse(strategy)
        if self.reordering.is_identity():
            strat = OrderStrategy.NONE
        elif getattr(alg, "supports_inline_placement", False):
            strat = OrderStrategy.INLINE
        return execute_reordered_allgather(alg, self.reordering, strat)

    def __repr__(self) -> str:
        tag = f" reordered[{self.pattern}]" if self.is_reordered() else ""
        return f"VirtualComm(size={self.size}{tag})"
