"""Implicit (row-on-demand) distance backend — no dense D materialisation.

The paper's pipeline extracts the full core-by-core distance matrix once
(§IV); faithful, but O(cores²) memory and build time — 128 MB of float64
intermediates at the paper's 4096-process scale before a single mapping
step runs.  Every quantity the heuristics actually consume is derivable
in O(1) per pair from the *coordinates* of the two cores (node, socket,
leaf switch, line switch), because the fat-tree distance ladder depends
only on the deepest hierarchy level the pair shares.

:class:`ImplicitDistances` packages that observation as a drop-in
``D``-like object:

* ``shape`` / ``dtype`` / ``D[i, cols]`` / ``D[i]`` — the indexing the
  mappers and graph baselines use, served per-row (vectorised, float32,
  bit-identical to ``cluster.distance_matrix()``);
* :meth:`coords` — per-core hierarchy coordinates, the input of the
  vectorised placement driver in :mod:`repro.mapping.base`;
* :meth:`ladder` — the distance value of each hierarchy level, and
  :attr:`has_strict_ladder` — whether the levels are strictly increasing
  (true for the default weights; custom weights may collapse levels, in
  which case the mappers fall back to explicit row scans);
* ``fingerprint`` — the owning cluster's structural fingerprint, which
  makes mapping results content-addressable (see
  :mod:`repro.mapping.cache`);
* :meth:`dense` — the reference oracle: the full matrix, kept behind this
  explicit call for tests and small-scale tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.topology.cluster import ClusterTopology

__all__ = ["CoreCoords", "ImplicitDistances"]


@dataclass(frozen=True)
class CoreCoords:
    """Hierarchy coordinates of a set of cores (parallel int64 arrays).

    ``gsock`` is globally unique (node * sockets_per_node + socket), so
    equality of any single coordinate array answers "same socket / node /
    leaf / line switch?" directly.
    """

    gsock: np.ndarray
    node: np.ndarray
    leaf: np.ndarray
    line: np.ndarray


class ImplicitDistances:
    """Distance-matrix view over a cluster, computed per-row on demand.

    Parameters
    ----------
    cluster:
        The owning topology.  The view holds no O(cores²) state; rows are
        recomputed from coordinates on every access (callers that want
        reuse cache rows themselves, as :class:`repro.mapping.base.
        CorePool` does).
    """

    def __init__(self, cluster: ClusterTopology) -> None:
        self.cluster = cluster
        n = cluster.n_cores
        self.shape: Tuple[int, int] = (n, n)
        self.ndim = 2
        self.dtype = np.dtype(np.float32)
        self.fingerprint = cluster.fingerprint()
        self._ladder = self._build_ladder(cluster)
        # The ladder is private and never mutated, so strictness is fixed.
        lad32 = self._ladder.astype(np.float32)
        self._strict_ladder = bool(
            np.all(np.diff(self._ladder) > 0) and np.all(np.diff(lad32) > 0)
        )
        # integer constants for the ladder scan of row():
        # (cores_per_node, cores_per_socket, sockets_per_node,
        #  nodes_per_leaf, lines_per_core)
        self._coord_consts = (
            int(cluster.cores_per_node),
            int(cluster.machine.cores_per_socket),
            int(cluster.machine.n_sockets),
            int(cluster.network.config.nodes_per_leaf),
            int(cluster.network.config.lines_per_core),
        )

    # ------------------------------------------------------------------
    # the distance ladder
    # ------------------------------------------------------------------
    @staticmethod
    def _build_ladder(cluster: ClusterTopology) -> np.ndarray:
        """Distance of each hierarchy level, same arithmetic as the dense path.

        Levels: 0 same core, 1 same socket, 2 same node (cross socket),
        3 same leaf (cross node), 4 same line switch (cross leaf),
        5 cross line (via spine).
        """
        from repro.topology.cluster import LinkClass

        w = cluster.weights
        smem = 2 * w[LinkClass.SMEM]
        qpi = 2 * w[LinkClass.QPI]
        hca = 2 * w[LinkClass.HCA]
        leaf_line = 2 * w[LinkClass.LEAF_LINE]
        line_spine = 2 * w[LinkClass.LINE_SPINE]
        return np.array(
            [
                0.0,
                smem,
                smem + qpi,
                smem + hca,
                smem + hca + leaf_line,
                smem + hca + leaf_line + line_spine,
            ],
            dtype=np.float64,
        )

    def ladder(self) -> np.ndarray:
        """Per-level distances (copy; index = hierarchy level, 6 entries)."""
        return self._ladder.copy()

    @property
    def has_strict_ladder(self) -> bool:
        """True iff deeper sharing is always strictly closer.

        Holds for the default weights (0 < 1 < 3 < 5 < 7 < 9) but custom
        ``distance_weights`` can collapse or invert levels; the strictness
        must also survive the float32 cast the dense matrix applies, since
        the two paths are compared bit-for-bit.
        """
        return self._strict_ladder

    @property
    def supports_vectorized_placement(self) -> bool:
        """Duck-typing hook read by the mapping layer's placement driver."""
        return self.has_strict_ladder

    # ------------------------------------------------------------------
    # coordinates
    # ------------------------------------------------------------------
    def coords(self, cores) -> CoreCoords:
        """Hierarchy coordinates of ``cores`` (vectorised)."""
        c = np.asarray(cores, dtype=np.int64)
        cl = self.cluster
        node = cl.node_of(c)
        gsock = cl.global_socket_of(c)
        leaf = cl.leaf_of_node(node)
        line = leaf % cl.network.config.lines_per_core
        return CoreCoords(gsock=gsock, node=node, leaf=leaf, line=line)

    # ------------------------------------------------------------------
    # D-like indexing
    # ------------------------------------------------------------------
    def row(self, core: int, cols=None) -> np.ndarray:
        """Distances from ``core`` to ``cols`` (default: every core), float32.

        Bit-identical to ``cluster.distance_matrix()[core, cols]``: every
        pair's distance is the ladder value of the deepest level the pair
        shares, and each ladder entry is accumulated in the same float64
        addition order as the dense path (the skipped terms there are
        exact ``+ 0.0``s) before the same final float32 cast.  One
        vectorised level scan.
        """
        core = int(core)
        if cols is None:
            cols = np.arange(self.shape[1], dtype=np.int64)
        else:
            cols = np.asarray(cols, dtype=np.int64)
        # Shared-level scan: the level masks are nested (same socket =>
        # same node => same leaf => same line switch), so the deepest
        # shared level is 5 minus the count of satisfied masks.
        cc = self.coords(cols)
        cpn, cps, nspn, npl, nlines = self._coord_consts
        node_s = core // cpn
        gs_s = node_s * nspn + (core % cpn) // cps
        lf_s = node_s // npl
        lvl = 5 - (
            (cc.line == lf_s % nlines).astype(np.int64)
            + (cc.leaf == lf_s)
            + (cc.node == node_s)
            + (cc.gsock == gs_s)
            + (cols == core)
        )
        return self._ladder[lvl].astype(np.float32)

    def __getitem__(self, idx) -> Union[np.ndarray, float]:
        """Support the mappers' access patterns: ``D[i, cols]`` and ``D[i]``."""
        if isinstance(idx, tuple):
            if len(idx) != 2:
                raise IndexError(f"ImplicitDistances supports 2-D indexing, got {idx!r}")
            r, c = idx
            out = self.cluster.distance(r, c).astype(np.float32)
            return float(out) if np.ndim(out) == 0 else out
        return self.row(idx)

    def dense(self) -> np.ndarray:
        """The reference oracle: the full dense matrix (delegated, cached)."""
        return self.cluster.distance_matrix()

    def __repr__(self) -> str:
        return (
            f"ImplicitDistances({self.shape[0]} cores, fingerprint={self.fingerprint}, "
            f"strict_ladder={self.has_strict_ladder})"
        )
