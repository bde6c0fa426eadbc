"""Static invariants of mappings, distance matrices and cluster models.

Layer 2 of the analysis subsystem (paper §IV–§V): rank reordering is a
permutation over a fixed core set steered by a physical distance matrix,
so both objects have machine-checkable well-formedness conditions that
hold *independently of any timing result*:

* a mapping must be a bijection (``MAP001``) — a silent repeat or hole
  would corrupt collective results;
* a hierarchical world mapping must keep each node communicator's ranks
  together on one node of its own (``MAP007``) — the intra-node phase
  would otherwise cross the network;
* a distance matrix must be a square, symmetric, zero-diagonal,
  non-negative matrix (``MAP002``–``MAP005``), optionally satisfying the
  triangle inequality (``MAP006``, an opt-in audit: the paper's ladder
  metric satisfies it, but user-supplied matrices may not);
* a :class:`~repro.topology.cluster.ClusterTopology` must be internally
  consistent — core/node/socket arithmetic, fat-tree capacity, and the
  strict locality ladder same-socket < cross-socket < same-leaf <
  same-line < cross-spine (``TOP001``–``TOP003``).

The permutation check reuses :func:`repro.util.validation.check_permutation`
and the matrix checks reuse ``check_square_matrix`` / ``check_symmetric_matrix``
from the same module, so the static checker and the runtime argument
validation cannot drift apart.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.diagnostics import DiagnosticReport, Severity
from repro.util.validation import (
    check_permutation,
    check_square_matrix,
    check_symmetric_matrix,
)

__all__ = [
    "check_rank_permutation",
    "check_core_mapping",
    "check_distance_matrix",
    "check_node_groups",
    "check_cluster",
]


def check_rank_permutation(perm: Sequence[int], n: int) -> DiagnosticReport:
    """MAP001 unless ``perm`` is a permutation of ``0..n-1``."""
    report = DiagnosticReport(subject="rank permutation")
    try:
        check_permutation(perm, n, name="permutation")
    except ValueError as exc:
        report.add("MAP001", str(exc))
    return report


def check_core_mapping(mapping: Sequence[int], layout: Sequence[int]) -> DiagnosticReport:
    """MAP001 unless ``mapping`` is a bijection onto ``layout``'s cores.

    Mappings live in *core* space (global core ids, not ``0..p-1``), so
    bijectivity means: same length, same multiset of cores, no repeats —
    reordering never migrates a process to an unused core (paper §IV).
    """
    report = DiagnosticReport(subject="core mapping")
    M = np.asarray(mapping, dtype=np.int64)
    L = np.asarray(layout, dtype=np.int64)
    if M.shape != L.shape or M.ndim != 1:
        report.add(
            "MAP001",
            f"mapping shape {M.shape} does not match layout shape {L.shape}",
        )
        return report
    if np.unique(M).size != M.size:
        values, counts = np.unique(M, return_counts=True)
        dup = int(values[counts > 1][0])
        report.add("MAP001", f"mapping assigns core {dup} to multiple ranks")
    elif sorted(M.tolist()) != sorted(L.tolist()):
        stray = sorted(set(M.tolist()) - set(L.tolist()))[:4]
        report.add(
            "MAP001",
            f"mapping uses cores outside the layout's core set (e.g. {stray})",
        )
    return report


def check_node_groups(mapping: Sequence[int], groups, cluster) -> DiagnosticReport:
    """MAP007 unless every rank group sits on one node, no two on the same.

    ``groups`` lists the new ranks of each node communicator of a
    hierarchical world ``mapping`` (paper §VI-A2: ranks are reordered
    within each node and across the node leaders, never off their node).
    Together with :func:`check_core_mapping` against the layout, this
    puts each node's processes on exactly that node's cores.
    """
    report = DiagnosticReport(subject="node groups")
    M = np.asarray(mapping, dtype=np.int64)
    ranks = [np.asarray(g, dtype=np.int64) for g in groups]
    try:
        check_permutation(np.concatenate(ranks) if ranks else [], M.size, name="node groups")
    except ValueError as exc:
        report.add("MAP007", f"groups do not partition the ranks: {exc}")
        return report
    owner = {}
    for j, g in enumerate(ranks):
        nodes = np.unique(cluster.node_of(M[g])).tolist()
        if len(nodes) != 1:
            report.add("MAP007", f"node group {j} sits on nodes {nodes[:4]}, not on one")
        elif nodes[0] in owner:
            report.add("MAP007", f"node groups {owner[nodes[0]]} and {j} share node {nodes[0]}")
        else:
            owner[nodes[0]] = j
    return report


def check_distance_matrix(
    D: np.ndarray,
    *,
    triangle: bool = False,
    atol: float = 1e-6,
) -> DiagnosticReport:
    """MAP002–MAP006 well-formedness of a physical distance matrix."""
    report = DiagnosticReport(subject="distance matrix")
    A = np.asarray(D)
    try:
        check_square_matrix("distance matrix", A)
    except ValueError as exc:
        report.add("MAP002", str(exc))
        return report

    try:
        check_symmetric_matrix("distance matrix", A, atol=atol)
    except ValueError as exc:
        report.add("MAP003", str(exc))

    diag = np.abs(np.diagonal(A))
    if np.any(diag > atol):
        i = int(np.argmax(diag))
        report.add("MAP004", f"diagonal entry D[{i},{i}]={A[i, i]:g} is not zero")

    if np.any(A < -atol):
        i, j = np.unravel_index(int(np.argmin(A)), A.shape)
        report.add("MAP005", f"negative distance D[{i},{j}]={A[i, j]:g}")

    if triangle and report.ok() and A.shape[0] <= 512:
        # D[i,k] <= D[i,j] + D[j,k]: vectorised over j for each i.
        Af = A.astype(np.float64)
        for i in range(Af.shape[0]):
            slack = (Af[i, :, None] + Af) - Af[i, None, :]
            if slack.min() < -atol:
                j, k = np.unravel_index(int(np.argmin(slack)), slack.shape)
                report.add(
                    "MAP006",
                    f"triangle inequality violated: D[{i},{k}]={Af[i, k]:g} > "
                    f"D[{i},{j}]+D[{j},{k}]={Af[i, j] + Af[j, k]:g}",
                    severity=Severity.WARNING,
                )
                break
    return report


def check_cluster(cluster, *, triangle: bool = False) -> DiagnosticReport:
    """TOP001–TOP003 internal consistency of a cluster topology model.

    Duck-typed over :class:`~repro.topology.cluster.ClusterTopology` so
    tests can probe corrupted instances.
    """
    report = DiagnosticReport(subject="cluster topology")

    # -- TOP001: core / node / socket arithmetic ---------------------------
    expected_cores = cluster.n_nodes * cluster.cores_per_node
    if cluster.n_cores != expected_cores:
        report.add(
            "TOP001",
            f"n_cores={cluster.n_cores} != n_nodes x cores_per_node = {expected_cores}",
        )
    if cluster.cores_per_node != cluster.machine.n_cores:
        report.add(
            "TOP001",
            f"cores_per_node={cluster.cores_per_node} disagrees with the machine "
            f"model ({cluster.machine.n_cores})",
        )
    else:
        cores = np.arange(min(cluster.n_cores, expected_cores), dtype=np.int64)
        if cores.size:
            nodes = cluster.node_of(cores)
            if nodes.min() < 0 or nodes.max() >= cluster.n_nodes:
                report.add("TOP001", "node_of maps cores outside [0, n_nodes)")

    # -- TOP003: network capacity ------------------------------------------
    cfg = cluster.network.config
    if cluster.n_nodes > cfg.max_nodes:
        report.add(
            "TOP003",
            f"{cluster.n_nodes} nodes exceed fat-tree capacity {cfg.max_nodes}",
        )
    else:
        leaves = cluster.leaf_of_node(np.arange(cluster.n_nodes, dtype=np.int64))
        if leaves.size and (leaves.min() < 0 or leaves.max() >= cfg.n_leaves):
            report.add("TOP003", "leaf_of_node maps nodes outside [0, n_leaves)")
        elif leaves.size and np.any(np.diff(leaves) < 0):
            report.add(
                "TOP003",
                "leaf assignment is not monotone in node id (contiguous fill broken)",
            )

    if not report.ok():
        return report

    # -- TOP002: distance structure ----------------------------------------
    D = cluster.distance_matrix()
    matrix_report = check_distance_matrix(D, triangle=triangle)
    for diag in matrix_report.diagnostics:
        report.add(
            "TOP002",
            f"cluster distance matrix: {diag.message} ({diag.code})",
            severity=diag.severity,
        )

    # The strict locality ladder (paper §IV): distances must increase with
    # the channel hierarchy.  Sample one representative pair per channel.
    ladder = {}
    c0 = 0
    for other in range(1, cluster.n_cores):
        chan = cluster.channel_of(c0, other)
        if chan not in ladder:
            ladder[chan] = float(cluster.distance(c0, other))
    order = [c for c in ("smem", "qpi", "leaf", "line", "spine") if c in ladder]
    for near, far in zip(order, order[1:]):
        if not ladder[near] < ladder[far]:
            report.add(
                "TOP002",
                f"locality ladder broken: distance({near})={ladder[near]:g} is not "
                f"< distance({far})={ladder[far]:g}",
            )
    return report
