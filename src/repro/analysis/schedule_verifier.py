"""Static schedule verification by symbolic block-dataflow execution.

The paper models a collective as "a series of point-to-point communications
scheduled over a sequence of stages", and rank reordering as a pure
post-processing permutation — so every correctness property of a
:class:`~repro.collectives.schedule.Schedule` is checkable *before* the
event simulator runs.  :func:`verify_schedule` symbolically executes the
block dataflow: it tracks which blocks each rank owns entering every stage
(stage-synchronous snapshot semantics, exactly the barrier model of
:class:`~repro.simmpi.engine.TimingEngine`) and emits typed diagnostics
(see :mod:`repro.analysis.diagnostics` for the code catalogue).

Structural checks (rank bounds, port contention, duplicate transfers,
``units``/``blocks`` consistency) need no knowledge of what the collective
computes.  Dataflow checks (causality, redundancy, completeness) need the
collective's *semantics* — who owns which blocks initially and who must
own what at the end.  :func:`semantics_for` derives that from an
algorithm's registered name; :func:`verify_algorithm` puts the two
together and also structurally verifies the compressed timing view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Set

import numpy as np

from repro.analysis.diagnostics import DiagnosticReport, Severity
from repro.collectives.schedule import CollectiveAlgorithm, Schedule

__all__ = [
    "CollectiveSemantics",
    "allgather_semantics",
    "bcast_semantics",
    "gather_semantics",
    "scatter_semantics",
    "slice_bcast_semantics",
    "semantics_for",
    "verify_schedule",
    "verify_algorithm",
]


# ----------------------------------------------------------------------
# collective semantics: initial ownership and the completion contract
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CollectiveSemantics:
    """What a collective's block dataflow must achieve.

    ``initial(rank, p)`` is the set of blocks a rank owns before stage 0;
    ``required(rank, p)`` the set it must own after the last stage.
    """

    kind: str
    initial: Callable[[int, int], FrozenSet[int]]
    required: Callable[[int, int], FrozenSet[int]]


def allgather_semantics() -> CollectiveSemantics:
    """Every rank starts with its own block and must end with all ``p``."""
    return CollectiveSemantics(
        kind="allgather",
        initial=lambda r, p: frozenset((r,)),
        required=lambda r, p: frozenset(range(p)),
    )


def bcast_semantics(root: int = 0, payload: tuple = (0,)) -> CollectiveSemantics:
    """The root starts with the payload; everyone must end with it."""
    blocks = frozenset(payload)
    return CollectiveSemantics(
        kind="bcast",
        initial=lambda r, p: blocks if r == root % p else frozenset(),
        required=lambda r, p: blocks,
    )


def gather_semantics(root: int = 0) -> CollectiveSemantics:
    """Every rank starts with its block; the root must end with all."""
    return CollectiveSemantics(
        kind="gather",
        initial=lambda r, p: frozenset((r,)),
        required=lambda r, p: frozenset(range(p)) if r == root % p else frozenset(),
    )


def scatter_semantics(root: int = 0) -> CollectiveSemantics:
    """The root starts with every slice; rank ``r`` must end with slice ``r``."""
    return CollectiveSemantics(
        kind="scatter",
        initial=lambda r, p: frozenset(range(p)) if r == root % p else frozenset(),
        required=lambda r, p: frozenset((r,)),
    )


def slice_bcast_semantics(root: int = 0) -> CollectiveSemantics:
    """Scatter-allgather broadcast: root owns every slice, all must end
    with the full slice vector."""
    return CollectiveSemantics(
        kind="slice-bcast",
        initial=lambda r, p: frozenset(range(p)) if r == root % p else frozenset(),
        required=lambda r, p: frozenset(range(p)),
    )


#: Base algorithm name -> semantics factory.  ``None`` means the algorithm
#: has no slot-copy dataflow (reductions combine payloads), so only the
#: structural checks apply.
_SEMANTICS_FACTORIES = {
    "recursive-doubling": allgather_semantics,
    "recursive-doubling-folded": allgather_semantics,
    "ring": allgather_semantics,
    "bruck": allgather_semantics,
    "hierarchical": allgather_semantics,
    "multilevel": allgather_semantics,
    "binomial-bcast": bcast_semantics,
    "linear-bcast": bcast_semantics,
    "binomial-gather": gather_semantics,
    "linear-gather": gather_semantics,
    "binomial-scatter": scatter_semantics,
    "scatter-allgather-bcast": slice_bcast_semantics,
    "binomial-reduce": None,
    "allreduce-rd": None,
    "allreduce-rabenseifner": None,
}


def semantics_for(algorithm: CollectiveAlgorithm) -> Optional[CollectiveSemantics]:
    """Dataflow semantics of a known algorithm (``None`` = structural only).

    Raises :class:`KeyError` for algorithms whose contract is unknown —
    passing an unknown schedule to the dataflow checks silently would turn
    the completeness check into a no-op.
    """
    base = algorithm.name.split("[")[0]
    try:
        factory = _SEMANTICS_FACTORIES[base]
    except KeyError:
        raise KeyError(f"no verification semantics registered for {algorithm.name!r}")
    if factory is None:
        return None
    root = getattr(algorithm, "root", 0)
    if base in ("binomial-bcast", "linear-bcast"):
        return bcast_semantics(root=root, payload=getattr(algorithm, "payload_blocks", (0,)))
    if base in ("binomial-gather", "linear-gather"):
        return gather_semantics(root=root)
    return factory()


# ----------------------------------------------------------------------
# the verifier
# ----------------------------------------------------------------------
def verify_schedule(
    schedule: Schedule,
    semantics: Optional[CollectiveSemantics] = None,
    *,
    allow_multi_port: bool = False,
    flag_redundant: bool = True,
) -> DiagnosticReport:
    """Statically verify a schedule; returns the diagnostic report.

    Parameters
    ----------
    schedule:
        The rank-space schedule under test.
    semantics:
        Dataflow contract for the causality / redundancy / completeness
        checks.  With ``None`` only structural checks run; they also run
        when no stage carries block lists (compressed timing views).
    allow_multi_port:
        Suppress SCH005 for algorithms whose stages legitimately
        serialise several transfers on one rank (linear gather/bcast);
        every structured algorithm in the paper is single-port per stage.
    flag_redundant:
        Emit SCH007 for messages that deliver only blocks the destination
        already owns.  Only meaningful with ``semantics``.
    """
    report = DiagnosticReport(subject=f"schedule {schedule.name or '<unnamed>'}")
    p = schedule.p

    if p < 2:
        report.add("SCH001", f"communicator size p={p} cannot host a collective")
    if not schedule.stages:
        report.add("SCH001", "schedule has zero stages")
        return report

    track_blocks = semantics is not None and all(
        st.blocks is not None for st in schedule.stages
    )
    owned: List[Set[int]] = (
        [set(semantics.initial(r, p)) for r in range(p)] if track_blocks else []
    )

    for si, stage in enumerate(schedule.stages):
        src, dst = stage.src, stage.dst

        # -- SCH002: rank bounds -------------------------------------------
        stage_in_bounds = True
        for mi in np.flatnonzero((src < 0) | (src >= p) | (dst < 0) | (dst >= p)):
            stage_in_bounds = False
            report.add(
                "SCH002",
                f"message {int(src[mi])} -> {int(dst[mi])} references a rank "
                f"outside [0, {p})",
                stage=si,
                message_index=int(mi),
            )

        # -- SCH005: port contention ---------------------------------------
        if not allow_multi_port:
            for role, arr in (("sender", src), ("receiver", dst)):
                values, counts = np.unique(arr, return_counts=True)
                for rank, n in zip(values[counts > 1], counts[counts > 1]):
                    report.add(
                        "SCH005",
                        f"rank {int(rank)} is {role} of {int(n)} messages in one "
                        "synchronous stage",
                        stage=si,
                        rank=int(rank),
                    )

        # -- SCH006: duplicate transfers -----------------------------------
        seen_pairs: Set[tuple] = set()
        for mi in range(src.size):
            key = (int(src[mi]), int(dst[mi]))
            if key in seen_pairs:
                report.add(
                    "SCH006",
                    f"duplicate transfer {key[0]} -> {key[1]} within one stage",
                    stage=si,
                    message_index=mi,
                )
            seen_pairs.add(key)

        # -- SCH003: units / blocks consistency ----------------------------
        if stage.blocks is not None:
            for mi, blocks in enumerate(stage.blocks):
                if len(blocks) != int(stage.units[mi]) or stage.units[mi] != int(
                    stage.units[mi]
                ):
                    report.add(
                        "SCH003",
                        f"message carries {len(blocks)} block(s) but declares "
                        f"units={stage.units[mi]:g}",
                        stage=si,
                        message_index=mi,
                    )

        # -- dataflow: causality / redundancy / delivery -------------------
        if track_blocks and stage_in_bounds:
            deliveries: List[tuple] = []
            for mi, blocks in enumerate(stage.blocks):
                s, d = int(src[mi]), int(dst[mi])
                sent = set(blocks)
                missing = sent - owned[s]
                if missing:
                    report.add(
                        "SCH004",
                        f"rank {s} sends block(s) {sorted(missing)} to {d} "
                        "before owning them",
                        stage=si,
                        message_index=mi,
                        rank=s,
                    )
                if flag_redundant and sent and sent <= owned[d]:
                    report.add(
                        "SCH007",
                        f"transfer {s} -> {d} only carries blocks the "
                        f"destination already owns ({sorted(sent)})",
                        severity=Severity.WARNING,
                        stage=si,
                        message_index=mi,
                    )
                deliveries.append((d, sent))
            # Synchronous stage: all sends read the stage-entry snapshot,
            # deliveries land together afterwards (repeat > 1 re-delivers
            # the same blocks, so a single merge is exact).
            for d, sent in deliveries:
                owned[d] |= sent

    # -- SCH008: completion contract ---------------------------------------
    if track_blocks:
        for r in range(p):
            missing = set(semantics.required(r, p)) - owned[r]
            if missing:
                report.add(
                    "SCH008",
                    f"rank {r} ends without required block(s) "
                    f"{sorted(missing)[:8]}{'...' if len(missing) > 8 else ''} "
                    f"({len(missing)} missing)",
                    rank=r,
                )
    return report


def verify_algorithm(
    algorithm: CollectiveAlgorithm,
    p: int,
    *,
    semantics: str = "auto",
) -> DiagnosticReport:
    """Verify both views of an algorithm at communicator size ``p``.

    Runs the full dataflow verification on the exact :meth:`stages` view
    (when the algorithm materialises blocks) and the structural checks on
    the compressed :meth:`schedule` timing view.  ``semantics="auto"``
    resolves the completion contract through :func:`semantics_for`;
    ``semantics="structural"`` skips dataflow checks.
    """
    sem = semantics_for(algorithm) if semantics == "auto" else None
    multi_port = bool(getattr(algorithm, "multi_port_stages", False))
    report = DiagnosticReport(subject=f"{algorithm.name} @ p={p}")

    try:
        stage_list = list(algorithm.stages(p))
    except NotImplementedError:
        # Reductions expose only the timing view.
        stage_list = None
    if stage_list is not None:
        dataflow = Schedule(p=p, stages=stage_list, name=algorithm.name)
        report.extend(verify_schedule(dataflow, sem, allow_multi_port=multi_port))

    timing = algorithm.schedule(p)
    report.extend(verify_schedule(timing, None, allow_multi_port=multi_port))
    return report
