"""Event-driven (non-barrier) schedule timing.

The default :class:`~repro.simmpi.engine.TimingEngine` prices schedules
stage-synchronously: every rank waits for the slowest message of the
round.  Real MPI collectives pipeline — a ring rank forwards as soon as
*its* predecessor delivered, regardless of stragglers elsewhere.  This
module prices the same schedules under relaxed, per-rank dependencies:

* a rank's stage-``s`` operations start once it finished its own
  stage-``s-1`` operations (sends and receives), not everyone else's;
* a message starts at the later of its sender's and receiver's readiness
  (rendezvous semantics);
* links are serial resources with cut-through forwarding: a message
  waits until every link on its route is free (FIFO behind earlier
  traffic), then takes ``sum(alpha) + bytes x beta_bottleneck`` end to
  end while keeping each link busy for that link's own serialisation
  time — contention emerges from the timeline instead of a per-stage
  fair-share approximation.  An uncontended single message costs exactly
  what the barrier engine charges, so the engines differ only in how
  they model sharing.

The two engines bracket reality from different sides: the barrier model
is pessimistic about stragglers (everyone waits for the slowest message
of a round) but optimistic about sharing (fair-share drain); the event
model relaxes the barrier but serialises contending messages FIFO, which
is pessimistic about sharing.  They agree exactly on uncontended
traffic.  The ``bench_ablation_engines`` bench reports both for the
paper's key configurations and asserts the reproduction's conclusions
are invariant to the choice.

Complexity is O(total messages x route length) in Python, so this engine
targets moderate scales (it expands stage ``repeat`` counts); the
vectorised barrier engine remains the default for 4096-process sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.runtime import maybe_verify_schedule
from repro.collectives.schedule import Schedule, Stage
from repro.simmpi.costmodel import CostModel
from repro.topology.cluster import COLUMN_CLASSES, LEVEL_COLUMNS, ClusterTopology
from repro.util.validation import check_positive

__all__ = ["EventDrivenEngine", "EventTimingResult"]

#: Refuse runs that would melt the Python interpreter.
MAX_MESSAGE_OPS = 2_000_000

#: The real route columns of each locality level, in column order.
_LEVEL_COLS = [np.flatnonzero(real).tolist() for real in LEVEL_COLUMNS]


@dataclass
class EventTimingResult:
    """Outcome of one event-driven evaluation."""

    schedule_name: str
    total_seconds: float
    rank_finish_seconds: np.ndarray
    n_messages: int

    @property
    def finish_spread(self) -> float:
        """Gap between the first and last rank to finish (pipelining slack)."""
        return float(self.rank_finish_seconds.max() - self.rank_finish_seconds.min())


class EventDrivenEngine:
    """Per-rank-dependency, serial-link schedule pricing."""

    def __init__(
        self,
        cluster: ClusterTopology,
        cost_model: Optional[CostModel] = None,
        link_beta_scale: Optional[np.ndarray] = None,
    ) -> None:
        self.cluster = cluster
        self.cost = cost_model if cost_model is not None else CostModel()
        cls = cluster.link_class.astype(np.int64)
        self._beta = self.cost.beta_by_class()[cls]
        # A route's α-sum depends only on its locality level: each route
        # column holds one link class.  Summed over the level's columns in
        # route order, as a per-message sum over its links would add them.
        alpha = self.cost.alpha_by_class()
        self._level_alpha = [
            float(sum(alpha[COLUMN_CLASSES[col]] for col in cols)) for cols in _LEVEL_COLS
        ]
        if link_beta_scale is not None:
            scale = np.asarray(link_beta_scale, dtype=np.float64)
            if scale.shape != (cluster.n_links,):
                raise ValueError(
                    f"link_beta_scale must have shape ({cluster.n_links},), got {scale.shape}"
                )
            if np.any(scale <= 0):
                raise ValueError("link_beta_scale entries must be positive")
            self._beta = self._beta * scale

    # ------------------------------------------------------------------
    def evaluate(
        self,
        schedule: Schedule,
        mapping: Sequence[int],
        block_bytes: float,
        fault_plan=None,
    ) -> EventTimingResult:
        """Price ``schedule`` under ``mapping`` with event semantics.

        ``fault_plan`` (a :class:`repro.faults.plan.FaultPlan`) injects
        dynamic faults on the simulated clock: degradations apply to
        messages starting at or after their onset, and a message touching
        a failed node raises :class:`repro.faults.plan.FaultStopError`.
        Events with ``onset_seconds`` unset activate by communication
        round (stages expanded by their ``repeat`` counts, matching the
        barrier engine's fault clock).
        """
        check_positive("block_bytes", block_bytes)
        maybe_verify_schedule(schedule)  # opt-in static guard (REPRO_VERIFY=1)
        M = np.asarray(mapping, dtype=np.int64)
        if schedule.p > M.size:
            raise ValueError(
                f"schedule for p={schedule.p} but mapping covers only {M.size} ranks"
            )
        n_ops = schedule.n_messages()
        if n_ops > MAX_MESSAGE_OPS:
            raise ValueError(
                f"{n_ops} message events exceed the event engine's limit "
                f"({MAX_MESSAGE_OPS}); use the vectorised TimingEngine"
            )
        faults = None
        if fault_plan is not None:
            fault_plan.validate(self.cluster)
            faults = _FaultTracker(self, fault_plan, schedule.name)

        done = np.zeros(M.size)              # per-rank readiness
        link_free = {}                        # link id -> next free time
        total_msgs = 0

        round_idx = 0
        for stage in schedule.stages:
            for _ in range(stage.repeat):
                done = self._run_round(
                    stage, M, block_bytes, done, link_free, round_idx, faults
                )
                total_msgs += stage.n_messages
                round_idx += 1

        copy = self.cost.copy_cost(schedule.local_copy_units * block_bytes)
        finish = done + copy
        return EventTimingResult(
            schedule_name=schedule.name,
            total_seconds=float(finish.max()),
            rank_finish_seconds=finish,
            n_messages=total_msgs,
        )

    # ------------------------------------------------------------------
    def _run_round(
        self,
        stage: Stage,
        M: np.ndarray,
        block_bytes: float,
        done: np.ndarray,
        link_free: dict,
        round_idx: int = 0,
        faults: "Optional[_FaultTracker]" = None,
    ) -> np.ndarray:
        src_cores = M[stage.src]
        dst_cores = M[stage.dst]
        routes, level = self.cluster.routes_for(src_cores, dst_cores)
        table, levels = routes.tolist(), level.tolist()
        nbytes = stage.units * block_bytes

        # rendezvous start times, then FIFO processing order
        starts = np.maximum(done[stage.src], done[stage.dst]) + self.cost.stage_overhead
        order = np.argsort(starts, kind="stable")

        new_done = done.copy()
        for i in order:
            row, lvl = table[i], levels[i]
            links = [row[col] for col in _LEVEL_COLS[lvl]]
            # cut-through: the stream completes once every link has pushed
            # its share through, queueing FIFO behind earlier traffic
            ready = float(starts[i])
            if faults is None:
                beta = self._beta
            else:
                faults.check_alive(
                    ready, round_idx, int(src_cores[i]), int(dst_cores[i])
                )
                beta = faults.beta_at(ready, round_idx)
            start_tx = ready
            for link in links:
                start_tx = max(start_tx, link_free.get(link, 0.0))
            beta_max = float(max(beta[lid] for lid in links))
            finish = start_tx + self._level_alpha[lvl] + float(nbytes[i]) * beta_max
            for link in links:
                # each link serialises only its own share, from the moment
                # *it* could take the stream — reserving from the whole-path
                # start would let one busy link phantom-block idle links
                # downstream and convoy the entire schedule
                lf = max(link_free.get(link, 0.0), ready)
                link_free[link] = lf + float(nbytes[i]) * beta[link]
            s, d = int(stage.src[i]), int(stage.dst[i])
            new_done[s] = max(new_done[s], finish)
            new_done[d] = max(new_done[d], finish)
            self._on_message(stage, s, d, start_tx, finish, float(nbytes[i]), lvl)
        return new_done

    def _on_message(
        self, stage: Stage, s: int, d: int, start: float, finish: float, nbytes: float, level: int
    ) -> None:
        """Hook called once per priced message (ranks, interval, locality level)."""


class _FaultTracker:
    """Incremental fault activation on the event engine's timeline.

    Message start times are non-decreasing within a round and fault
    activation is monotone (no repair), so the effective beta table only
    changes when a new degradation sets in — track the active event set
    and rebuild the table on transitions instead of per message.
    """

    def __init__(self, engine: EventDrivenEngine, plan, schedule_name: str) -> None:
        self.engine = engine
        self.plan = plan
        self.schedule_name = schedule_name
        self._active = ()
        self._beta = engine._beta

    def beta_at(self, seconds: float, round_idx: int) -> np.ndarray:
        active = self.plan.degradations_active_at(seconds, round_idx)
        if active != self._active:
            self._active = active
            scale = self.plan.beta_scale_for(self.engine.cluster, active)
            self._beta = (
                self.engine._beta if scale is None else self.engine._beta * scale
            )
        return self._beta

    def check_alive(
        self, seconds: float, round_idx: int, src_core: int, dst_core: int
    ) -> None:
        failed = self.plan.failed_nodes_at_time(seconds, round_idx)
        if not failed:
            return
        touched = {
            int(self.engine.cluster.node_of(src_core)),
            int(self.engine.cluster.node_of(dst_core)),
        }
        dead = touched & set(failed)
        if dead:
            # Local import: repro.faults imports the engine modules.
            from repro.faults.plan import FaultStopError

            raise FaultStopError(dead, round_idx, self.schedule_name, at_seconds=seconds)
