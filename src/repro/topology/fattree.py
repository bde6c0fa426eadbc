"""InfiniBand fat-tree network model with deterministic up/down routing.

This reproduces the network of the paper's Fig. 2: compute nodes hang off
36-port *leaf* switches; each leaf switch has a bundle of parallel uplinks
into each of the *core* switches; each core switch is internally a two-level
fat-tree of *line* and *spine* switches.  On GPC, each leaf connects to one
line switch per core switch with 3 parallel cables, and each line switch
connects to every spine of its core switch with 2 parallel cables.

Routing is destination-based, mirroring InfiniBand's LID-forwarding-table
(ftree) routing: the output port a switch uses depends only on the
destination node, so a fixed (src, dst) pair always takes the same path and
different destinations spread over parallel cables and spines.  This
determinism is what makes congestion patterns stable — the property the
paper's heuristics exploit.

The network owns its own directed-link id space (leaf-line and line-spine
cables only; node-to-leaf HCA cables belong to the cluster layer).  Link
ids are dense integers so the timing engine can vectorise over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.util.validation import check_positive

__all__ = ["FatTreeConfig", "FatTreeNetwork"]


@dataclass(frozen=True)
class FatTreeConfig:
    """Shape parameters of the fat-tree.

    The defaults are the GPC values from the paper (§VI): two core
    switches, each internally 18 line + 9 spine switches; each leaf has 3
    parallel uplinks to one line switch per core switch; each line-spine
    pair is joined by 2 parallel cables.
    """

    n_leaves: int = 31
    nodes_per_leaf: int = 30
    n_core_switches: int = 2
    lines_per_core: int = 18
    spines_per_core: int = 9
    leaf_uplinks_per_core: int = 3
    line_spine_multiplicity: int = 2

    def __post_init__(self) -> None:
        for name in (
            "n_leaves",
            "nodes_per_leaf",
            "n_core_switches",
            "lines_per_core",
            "spines_per_core",
            "leaf_uplinks_per_core",
            "line_spine_multiplicity",
        ):
            check_positive(name, getattr(self, name))

    @property
    def max_nodes(self) -> int:
        """Capacity of the network in compute nodes."""
        return self.n_leaves * self.nodes_per_leaf


class FatTreeNetwork:
    """A concrete fat-tree instance: wiring, link ids and routes.

    Directed links are laid out in two dense blocks:

    * **leaf-line** cables: for leaf ``l``, core switch ``c``, parallel
      cable ``k`` there is an *up* link (leaf -> line) and a *down* link
      (line -> leaf).
    * **line-spine** cables: for core switch ``c``, line ``i``, spine
      ``j``, parallel cable ``k``: *up* (line -> spine) and *down*.

    Leaf ``l`` attaches to line switch ``l % lines_per_core`` inside every
    core switch (all its parallel cables to that core switch land on the
    same line switch, as on GPC's director switches).
    """

    def __init__(self, config: FatTreeConfig = FatTreeConfig()) -> None:
        self.config = config
        c = config
        # Block sizes of the directed-link id space.
        self._n_leaf_line = c.n_leaves * c.n_core_switches * c.leaf_uplinks_per_core
        self._n_line_spine = (
            c.n_core_switches * c.lines_per_core * c.spines_per_core * c.line_spine_multiplicity
        )
        # Layout: [leaf-line up | leaf-line down | line-spine up | line-spine down]
        self._ll_up0 = 0
        self._ll_dn0 = self._n_leaf_line
        self._ls_up0 = 2 * self._n_leaf_line
        self._ls_dn0 = 2 * self._n_leaf_line + self._n_line_spine
        self.n_links = 2 * self._n_leaf_line + 2 * self._n_line_spine

    # ------------------------------------------------------------------
    # link id computations
    # ------------------------------------------------------------------
    def _ll_index(self, leaf: int, core: int, cable: int) -> int:
        c = self.config
        if not 0 <= leaf < c.n_leaves:
            raise ValueError(f"leaf {leaf} out of range [0, {c.n_leaves})")
        if not 0 <= core < c.n_core_switches:
            raise ValueError(f"core switch {core} out of range")
        if not 0 <= cable < c.leaf_uplinks_per_core:
            raise ValueError(f"cable {cable} out of range")
        return (leaf * c.n_core_switches + core) * c.leaf_uplinks_per_core + cable

    def leaf_line_up(self, leaf: int, core: int, cable: int) -> int:
        """Directed link id: leaf switch -> line switch."""
        return self._ll_up0 + self._ll_index(leaf, core, cable)

    def leaf_line_down(self, leaf: int, core: int, cable: int) -> int:
        """Directed link id: line switch -> leaf switch."""
        return self._ll_dn0 + self._ll_index(leaf, core, cable)

    def _ls_index(self, core: int, line: int, spine: int, cable: int) -> int:
        c = self.config
        if not 0 <= line < c.lines_per_core:
            raise ValueError(f"line {line} out of range")
        if not 0 <= spine < c.spines_per_core:
            raise ValueError(f"spine {spine} out of range")
        if not 0 <= cable < c.line_spine_multiplicity:
            raise ValueError(f"cable {cable} out of range")
        return ((core * c.lines_per_core + line) * c.spines_per_core + spine) * c.line_spine_multiplicity + cable

    def line_spine_up(self, core: int, line: int, spine: int, cable: int) -> int:
        """Directed link id: line switch -> spine switch."""
        return self._ls_up0 + self._ls_index(core, line, spine, cable)

    def line_spine_down(self, core: int, line: int, spine: int, cable: int) -> int:
        """Directed link id: spine switch -> line switch."""
        return self._ls_dn0 + self._ls_index(core, line, spine, cable)

    def line_of_leaf(self, leaf: int) -> int:
        """Line switch (within any core switch) that serves ``leaf``."""
        return leaf % self.config.lines_per_core

    def is_leaf_line(self, link_id: int) -> bool:
        """True iff ``link_id`` is a leaf-line cable (either direction)."""
        if not 0 <= link_id < self.n_links:
            raise ValueError(f"link id {link_id} out of range")
        return link_id < self._ls_up0

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, src_leaf: int, dst_leaf: int, dst_node: int) -> List[int]:
        """Directed link ids between two leaf switches.

        Destination-based, like InfiniBand ftree routing: every choice
        (core switch, parallel cable, spine) is a function of the
        destination only, so forwarding tables are consistent and a given
        destination always pulls traffic over the same ports.

        Returns an empty route when ``src_leaf == dst_leaf`` (the message
        turns around inside the leaf switch).
        """
        if src_leaf == dst_leaf:
            return []
        c = self.config
        # Destination picks the core switch and the parallel cables.
        port = dst_node % (c.n_core_switches * c.leaf_uplinks_per_core)
        core = port // c.leaf_uplinks_per_core
        up_cable = port % c.leaf_uplinks_per_core
        dn_cable = dst_node % c.leaf_uplinks_per_core
        line_src = self.line_of_leaf(src_leaf)
        line_dst = self.line_of_leaf(dst_leaf)
        route = [self.leaf_line_up(src_leaf, core, up_cable)]
        if line_src != line_dst:
            spine = dst_leaf % c.spines_per_core
            ls_cable = dst_node % c.line_spine_multiplicity
            route.append(self.line_spine_up(core, line_src, spine, ls_cable))
            route.append(self.line_spine_down(core, line_dst, spine, ls_cable))
        route.append(self.leaf_line_down(dst_leaf, core, dn_cable))
        return route

    def route_columns(
        self, src_leaf: np.ndarray, dst_leaf: np.ndarray, dst_node: np.ndarray
    ) -> np.ndarray:
        """:meth:`route` for a batch of inter-leaf messages, one row per hop.

        Takes equal-length integer arrays with ``src_leaf != dst_leaf``
        everywhere and returns a ``(4, n)`` array of their dtype holding
        [leaf-line up, line-spine up, line-spine down, leaf-line down];
        the two line-spine rows are ``-1`` where both leaves share a line
        switch.  The same destination-based choices as :meth:`route`, in
        closed form, so no per-node-pair table is ever built.
        """
        c = self.config
        # Destination picks the core switch, the parallel cables and the spine.
        port = dst_node % (c.n_core_switches * c.leaf_uplinks_per_core)
        core = port // c.leaf_uplinks_per_core
        up_cable = port % c.leaf_uplinks_per_core
        dn_cable = dst_node % c.leaf_uplinks_per_core
        line_src = src_leaf % c.lines_per_core
        line_dst = dst_leaf % c.lines_per_core
        # _ls_index(core, line, spine, cable) == ls_spine + line * ls_per_line
        ls_per_line = c.spines_per_core * c.line_spine_multiplicity
        ls_spine = (
            core * (c.lines_per_core * c.spines_per_core) + dst_leaf % c.spines_per_core
        ) * c.line_spine_multiplicity + dst_node % c.line_spine_multiplicity

        cols = np.empty((4, dst_node.size), dtype=dst_node.dtype)
        cols[0] = self._ll_up0 + (
            (src_leaf * c.n_core_switches + core) * c.leaf_uplinks_per_core + up_cable
        )
        cols[1] = self._ls_up0 + ls_spine + line_src * ls_per_line
        cols[2] = self._ls_dn0 + ls_spine + line_dst * ls_per_line
        cols[3] = self._ll_dn0 + (
            (dst_leaf * c.n_core_switches + core) * c.leaf_uplinks_per_core + dn_cable
        )
        cols[1:3, line_src == line_dst] = -1
        return cols

    def switch_hops(self, src_leaf: int, dst_leaf: int) -> int:
        """Number of switch-to-switch hops between two leaves.

        0 within a leaf, 2 when both leaves share a line switch of the
        chosen core switch, 4 otherwise (up to a spine and back down).
        """
        if src_leaf == dst_leaf:
            return 0
        if self.line_of_leaf(src_leaf) == self.line_of_leaf(dst_leaf):
            return 2
        return 4

    # ------------------------------------------------------------------
    # structural summaries (used by tests and docs)
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable one-line summary."""
        c = self.config
        return (
            f"fat-tree: {c.n_leaves} leaves x {c.nodes_per_leaf} nodes, "
            f"{c.n_core_switches} core switches ({c.lines_per_core} line + "
            f"{c.spines_per_core} spine each), {self.n_links} directed links"
        )

    def all_link_ids(self) -> np.ndarray:
        """All directed link ids as an array."""
        return np.arange(self.n_links, dtype=np.int64)

    def endpoints(self, link_id: int) -> Tuple[str, str]:
        """Human-readable (source, target) switch names of a link."""
        c = self.config
        if link_id < self._ll_dn0:
            idx = link_id - self._ll_up0
            cable = idx % c.leaf_uplinks_per_core
            rest = idx // c.leaf_uplinks_per_core
            core, leaf = rest % c.n_core_switches, rest // c.n_core_switches
            return (f"leaf{leaf}", f"core{core}/line{self.line_of_leaf(leaf)}[{cable}]")
        if link_id < self._ls_up0:
            idx = link_id - self._ll_dn0
            cable = idx % c.leaf_uplinks_per_core
            rest = idx // c.leaf_uplinks_per_core
            core, leaf = rest % c.n_core_switches, rest // c.n_core_switches
            return (f"core{core}/line{self.line_of_leaf(leaf)}[{cable}]", f"leaf{leaf}")
        if link_id < self._ls_dn0:
            idx = link_id - self._ls_up0
        else:
            idx = link_id - self._ls_dn0
        cable = idx % c.line_spine_multiplicity
        rest = idx // c.line_spine_multiplicity
        spine = rest % c.spines_per_core
        rest //= c.spines_per_core
        line = rest % c.lines_per_core
        core = rest // c.lines_per_core
        a, b = f"core{core}/line{line}[{cable}]", f"core{core}/spine{spine}"
        return (a, b) if link_id < self._ls_dn0 else (b, a)
