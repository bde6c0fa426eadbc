"""Vectorised stage-synchronous timing engine.

Evaluates the latency of a collective :class:`~repro.collectives.schedule.Schedule`
on a :class:`~repro.topology.cluster.ClusterTopology` under a given rank-to-core
mapping.  Per stage:

1. ranks are bound to cores through the mapping array ``M``;
2. every message's route is fetched as a padded row of directed link ids,
   with its locality level (:meth:`TimingEngine._route_kernel`, once per
   schedule);
3. per-link byte loads are summed into one link-sized buffer, one route
   column at a time, over only the columns real at a level the stage
   holds, padding landing in a sentinel bin with α = β = 0;
4. message time = Σ α(link) (one sum per locality level) + max over route
   links of β(link)·bytes(link) — steps 3–4 being one per-stage helper
   behind every pricing path, :class:`_StageRoutes`;
5. stage time = max message time (stage-synchronous barrier semantics);
6. schedule time = Σ stage time · repeat, plus local-copy cost.

This is the substitute for running on the paper's InfiniBand testbed: it
keeps the two effects that produce every result in the paper — channel
heterogeneity (α/β per class) and link contention — while remaining fast
enough to sweep 4096-process schedules on one machine.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.runtime import maybe_verify_schedule
from repro.collectives.schedule import Schedule, Stage
from repro.simmpi.costmodel import CostModel
from repro.topology.cluster import (
    COLUMN_CLASSES,
    LEVEL_COLUMNS,
    MEM_BUS_COLUMNS,
    ClusterTopology,
)
from repro.util.lru import LRU
from repro.util.validation import check_nonnegative, check_positive

__all__ = [
    "TimingEngine",
    "TimingResult",
    "StageTiming",
    "StagePricing",
    "SchedulePricing",
    "BatchTimingResult",
]

#: (schedule, mapping) pricing tables kept per engine (LRU).
PRICING_CACHE_SIZE = 64


@dataclass(frozen=True)
class StageTiming:
    """Cost breakdown of one stage (single instance, before `repeat`)."""

    label: str
    seconds: float
    repeat: int
    n_messages: int
    max_link_load_bytes: float

    @property
    def total_seconds(self) -> float:
        return self.seconds * self.repeat


@dataclass
class TimingResult:
    """Latency of a full schedule under one mapping."""

    schedule_name: str
    total_seconds: float
    stage_timings: List[StageTiming] = field(default_factory=list)
    local_copy_seconds: float = 0.0

    def breakdown(self) -> str:
        """Readable per-stage table."""
        lines = [f"{self.schedule_name}: {self.total_seconds * 1e6:.2f} us total"]
        for st in self.stage_timings:
            lines.append(
                f"  {st.label or '<stage>':<18} {st.seconds * 1e6:>10.2f} us"
                f" x{st.repeat:<5d} ({st.n_messages} msgs)"
            )
        if self.local_copy_seconds:
            lines.append(f"  {'local copies':<18} {self.local_copy_seconds * 1e6:>10.2f} us")
        return "\n".join(lines)


def _pareto_envelope(
    unit_drain: np.ndarray, level: np.ndarray, levels: Sequence[int], level_alpha: np.ndarray
):
    """Upper envelope of the per-message lines ``alpha + size * drain``.

    For any size >= 0 the stage maximum is attained by a message whose
    (alpha_sum, unit_drain) pair is not dominated by another message with
    both a larger alpha-sum and a larger drain.  Keeping only the
    non-dominated staircase compresses thousands of messages down to a
    handful of candidate lines, and — because max() and multiplication by
    a non-negative size are monotone in floating point too — evaluating
    the envelope gives exactly the same maximum as scanning every message.

    A message's alpha-sum is ``level_alpha[level]``, and ``levels`` are
    the locality levels the stage holds, so it has at most five distinct
    alpha-sums.  The staircase is built from the highest one down: each
    keeps its distinct drains that lie above every drain of the higher
    ones.  The kept lines come out sorted by drain, each drain once, with
    the largest alpha-sum of any message at it.  Levels are grouped by
    alpha value, not by level, because two levels can tie.
    """
    alphas = sorted({level_alpha[lvl] for lvl in levels}, reverse=True)
    if len(alphas) == 1:
        drain = np.unique(unit_drain)
        return np.full(drain.size, alphas[0]), drain
    env_alpha, env_drain = [], []
    for alpha in alphas:
        tied = [lvl for lvl in levels if level_alpha[lvl] == alpha]
        at = level == tied[0]
        for lvl in tied[1:]:
            at |= level == lvl
        drain = unit_drain[at]
        if env_drain:
            drain = drain[drain > env_drain[-1][-1]]
        if drain.size:
            drain = np.unique(drain)
            env_alpha.append(np.full(drain.size, alpha))
            env_drain.append(drain)
    return np.concatenate(env_alpha), np.concatenate(env_drain)


@dataclass(frozen=True)
class StagePricing:
    """Size-independent pricing tables of one stage under one mapping.

    ``env_alpha``/``env_drain`` hold the Pareto envelope of the stage's
    per-message ``alpha_sum + block_bytes * unit_drain`` lines, where the
    unit drain is the bandwidth term for a 1-byte block: one instance of
    the stage costs ``max(env_alpha + block_bytes * env_drain)`` plus the
    fixed stage overhead, for *any* block size.
    """

    label: str
    repeat: int
    n_messages: int
    env_alpha: np.ndarray      # seconds (per-message route alpha-sums)
    env_drain: np.ndarray      # seconds per block byte (bottleneck drain)
    unit_load_max: float       # max per-link byte load at block_bytes = 1

    def seconds_for(self, sizes: np.ndarray, stage_overhead: float) -> np.ndarray:
        """Single-instance stage seconds for a vector of block sizes."""
        per_size = (
            self.env_alpha[None, :] + sizes[:, None] * self.env_drain[None, :]
        ).max(axis=1)
        return per_size + stage_overhead

    def timing_for(self, block_bytes: float, stage_overhead: float) -> StageTiming:
        """Per-size :class:`StageTiming` view (reports / trace tooling)."""
        sizes = np.asarray([block_bytes], dtype=np.float64)
        return StageTiming(
            label=self.label,
            seconds=float(self.seconds_for(sizes, stage_overhead)[0]),
            repeat=self.repeat,
            n_messages=self.n_messages,
            max_link_load_bytes=self.unit_load_max * float(block_bytes),
        )


@dataclass
class BatchTimingResult:
    """Latency of one schedule under one mapping for a vector of sizes.

    ``total_seconds[k]`` corresponds to ``sizes[k]`` and agrees with
    :meth:`TimingEngine.evaluate` at that block size to floating-point
    tolerance (the batched path factors the shared ``block_bytes`` out of
    the bincount, so the rounding order differs slightly).
    """

    schedule_name: str
    sizes: np.ndarray              # float64, the priced block sizes
    total_seconds: np.ndarray      # per size
    local_copy_seconds: np.ndarray  # per size
    pricing: "SchedulePricing"

    def result(self, k: int) -> TimingResult:
        """Expand entry ``k`` into a full per-size :class:`TimingResult`."""
        overhead = self.pricing.cost.stage_overhead
        bb = float(self.sizes[k])
        return TimingResult(
            schedule_name=self.schedule_name,
            total_seconds=float(self.total_seconds[k]),
            stage_timings=[s.timing_for(bb, overhead) for s in self.pricing.stages],
            local_copy_seconds=float(self.local_copy_seconds[k]),
        )


class SchedulePricing:
    """Reusable pricing tables for one (schedule, mapping) pair.

    Built once from the schedule's routes; pricing any block size
    afterwards is a small envelope evaluation with no route construction,
    no bincount and no per-message scan.  Obtained (and cached) via
    :meth:`TimingEngine.pricing`.
    """

    def __init__(self, engine: "TimingEngine", schedule: Schedule, mapping: np.ndarray):
        self.schedule_name = schedule.name
        self.p = schedule.p
        self.local_copy_units = float(schedule.local_copy_units)
        self.cost = engine.cost
        self.stages: List[StagePricing] = engine._price_schedule(schedule, mapping)
        # Fused evaluation tables: every stage's Pareto envelope
        # concatenated into one flat alpha/drain pair plus the reduceat
        # segment starts, so pricing a size vector is one broadcast and
        # one segmented max instead of a numpy pass per stage.  No segment
        # is empty: schedules and stages reject being empty, and the
        # envelope keeps every distinct drain of the highest alpha-sum.
        self._fused_alpha = np.concatenate([s.env_alpha for s in self.stages])
        self._fused_drain = np.concatenate([s.env_drain for s in self.stages])
        counts = np.array([s.env_alpha.size for s in self.stages], dtype=np.int64)
        self._fused_starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        self._fused_repeats = [float(s.repeat) for s in self.stages]

    def evaluate_sizes(
        self, sizes: Sequence[float], extra_copy_bytes: float = 0.0
    ) -> BatchTimingResult:
        """Price the whole size vector in one fused stage-concatenated pass.

        Bit-identical to the per-stage walk in ``tests/simmpi/
        test_fused_pricing.py``: the per-line ``alpha + size * drain``
        terms are the same elementwise operations on the same values, the
        segmented ``np.maximum.reduceat`` computes each stage's envelope
        max over exactly the elements the per-stage ``max`` sees (max is
        rounding-free), and the accumulation below walks the stages in
        the walk's left-to-right order, so every intermediate rounding
        matches.
        """
        sz = self._check_sizes(sizes)
        check_nonnegative("extra_copy_bytes", extra_copy_bytes)
        vals = self._fused_alpha[None, :] + sz[:, None] * self._fused_drain[None, :]
        stage_max = np.maximum.reduceat(vals, self._fused_starts, axis=1)
        overhead = self.cost.stage_overhead
        total = np.zeros(sz.size, dtype=np.float64)
        for j, repeat in enumerate(self._fused_repeats):
            total += (stage_max[:, j] + overhead) * repeat
        return self._finish_sizes(sz, total, extra_copy_bytes)

    @staticmethod
    def _check_sizes(sizes: Sequence[float]) -> np.ndarray:
        sz = np.asarray(list(sizes), dtype=np.float64)
        if sz.ndim != 1 or sz.size == 0:
            raise ValueError("sizes must be a non-empty 1-D sequence")
        if not np.all((sz > 0) & np.isfinite(sz)):
            raise ValueError("block sizes must be positive and finite")
        return sz

    def _finish_sizes(
        self, sz: np.ndarray, total: np.ndarray, extra_copy_bytes: float
    ) -> BatchTimingResult:
        copy_bytes = self.local_copy_units * sz + extra_copy_bytes
        copy_seconds = np.where(
            copy_bytes > 0, self.cost.copy_alpha + copy_bytes * self.cost.copy_beta, 0.0
        )
        return BatchTimingResult(
            schedule_name=self.schedule_name,
            sizes=sz,
            total_seconds=total + copy_seconds,
            local_copy_seconds=copy_seconds,
            pricing=self,
        )


#: A stage's layout: its levels, its real route columns, their runs.
_StageLayout = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[Tuple[int, int, int], ...]]


@functools.lru_cache(maxsize=None)  # one entry per set of levels, at most 31
def _stage_columns(mask: int) -> _StageLayout:
    """Layout of a stage whose locality levels are the set bits of ``mask``.

    Returns the levels, the route columns real at one of them, and those
    columns as runs ``(first, end, row)`` of adjacent columns: route
    columns ``first:end`` land in rows ``row:row + end - first``.
    """
    levels = [lvl for lvl in range(len(LEVEL_COLUMNS)) if mask >> lvl & 1]
    cols = np.flatnonzero(LEVEL_COLUMNS[levels].any(axis=0)).tolist()
    runs: List[Tuple[int, int, int]] = []
    for row, col in enumerate(cols):
        if runs and runs[-1][1] == col:
            runs[-1] = (runs[-1][0], col + 1, runs[-1][2])
        else:
            runs.append((col, col + 1, row))
    return tuple(levels), tuple(cols), tuple(runs)


class _Routed(NamedTuple):
    """A message batch after routing: what every stage's loads read.

    ``bins`` is the route table as ``(MAX_ROUTE_LEN, n)`` contiguous rows
    of load bins: link id + 1, so a ``-1`` pad lands in the sentinel bin
    0 with α = β = 0.  ``level`` is each message's locality level, which
    fixes the route columns that are real for it (``LEVEL_COLUMNS``).
    """

    bins: np.ndarray
    level: np.ndarray

    def stage(self, lo: int = 0, hi: Optional[int] = None) -> "_StageRoutes":
        """Messages ``lo:hi`` as one stage, cut to the columns they cross.

        A column real at none of the stage's levels (the six network
        columns of an intra-node stage, the QPI columns of an inter-node
        one) is neither cast, summed nor gathered: its loads would land in
        the sentinel bin, which no caller reads, and its drains would be
        the sentinel's 0, which never raises a max.  The kept columns are
        cast to ``intp`` in one pass, a run of adjacent columns at a time.
        """
        level = self.level[lo:hi]
        mask = int(np.bitwise_or.reduce(np.left_shift(np.uint8(1), level.view(np.uint8))))
        levels, cols, runs = _stage_columns(mask)
        rows = np.empty((len(cols), level.size), dtype=np.intp)
        for first, end, row in runs:
            rows[row : row + end - first] = self.bins[first:end, lo:hi]
        return _StageRoutes(cols, rows, level, levels)


class _StageRoutes(NamedTuple):
    """One stage's routed messages: the per-stage load and drain helper.

    ``rows`` holds the load bins of the route columns ``cols`` the stage
    crosses; ``level`` is each message's locality level and ``levels``
    the levels the stage holds.  Loads and drains go into link-sized
    buffers the caller owns, so nothing here has an entry per (stage,
    link).
    """

    cols: Tuple[int, ...]
    rows: np.ndarray
    level: np.ndarray
    levels: Tuple[int, ...]

    def load(self, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Add the messages' ``weights`` into the zeroed link-sized ``out``.

        Every link id lives in one route column, except the memory bus,
        whose two columns (real at every level) are interleaved message
        by message.  So each link's entries are summed, and rounded, in
        message order, as the masked bincount summed them.
        """
        for col, row in zip(self.cols, self.rows):
            if col not in MEM_BUS_COLUMNS:
                np.add.at(out, row, weights)
        first, second = (self.rows[self.cols.index(col)] for col in MEM_BUS_COLUMNS)
        mem = np.empty(2 * weights.size, dtype=np.intp)
        mem[0::2], mem[1::2] = first, second
        np.add.at(out, mem, np.repeat(weights, 2))
        return out

    def drains(self, load: np.ndarray, beta: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Per-message drains: max over route links of β·load.

        ``load`` comes from :meth:`load`, ``beta`` is laid out like
        ``TimingEngine._beta`` and ``out`` is a link-sized scratch buffer.
        The gather and the max run one route column at a time (``max``
        never rounds).
        """
        np.multiply(load, beta, out=out)
        out[0] = 0.0  # padding drains nothing, whatever its load
        drain = out[self.rows[0]]
        for row in self.rows[1:]:
            np.maximum(drain, out[row], out=drain)
        return drain


class TimingEngine:
    """Binds schedules + mappings to the cluster and prices them."""

    def __init__(
        self,
        cluster: ClusterTopology,
        cost_model: Optional[CostModel] = None,
        link_beta_scale: Optional[np.ndarray] = None,
    ) -> None:
        self.cluster = cluster
        self.cost = cost_model if cost_model is not None else CostModel()
        # Dense per-link α/β tables indexed by link id + 1: slot 0 is the
        # sentinel bin that route padding lands in, with α = β = 0.
        cls = cluster.link_class.astype(np.int64)
        self._beta = np.concatenate(([0.0], self.cost.beta_by_class()[cls]))
        # Route α-sum by locality level: α depends only on a link's class
        # and each route column holds one class, so every message at a
        # level has the same α row.  Each level's 12-entry row, 0 at its
        # pads, is reduced as one contiguous row, rounding exactly as the
        # per-message ``sum(axis=1)`` over the padded table.
        column_alpha = self.cost.alpha_by_class()[list(COLUMN_CLASSES)]
        self._level_alpha = np.where(LEVEL_COLUMNS, column_alpha, 0.0).sum(axis=1)
        if link_beta_scale is not None:
            scale = np.asarray(link_beta_scale, dtype=np.float64)
            if scale.shape != (cluster.n_links,):
                raise ValueError(
                    f"link_beta_scale must have shape ({cluster.n_links},), got {scale.shape}"
                )
            if np.any(scale <= 0):
                raise ValueError("link_beta_scale entries must be positive")
            # a scale of k divides the link's bandwidth by k (degradation)
            self._beta = self._scaled_beta(scale)
        self.pricing_cache: "LRU[SchedulePricing]" = LRU(PRICING_CACHE_SIZE)

    @property
    def pricing_hits(self) -> int:
        """Pricing-LRU hits so far (read by the outside-in benchmark spans)."""
        return self.pricing_cache.hits

    # ------------------------------------------------------------------
    def _scaled_beta(self, scale: np.ndarray) -> np.ndarray:
        """The β table with each link's β multiplied by ``scale[link]``."""
        return self._beta * np.concatenate(([1.0], scale))

    def _route_kernel(self, src: np.ndarray, dst: np.ndarray) -> _Routed:
        """Route a batch of messages once (every pricing path).

        Reads one ``routes_for`` table and its locality levels and turns
        the table into load bins in place; :meth:`_Routed.stage` then cuts
        any run of the batch into a stage, whose loads and drains fill
        link-sized buffers the caller owns.  Bit-identical to the masked
        builder in ``tests/simmpi/test_pricing_kernel.py``, for the
        reasons docs/performance.md gives.
        """
        routes, level = self.cluster.routes_for(src, dst)
        bins = routes.T  # contiguous columns
        bins += 1
        return _Routed(bins, level)

    # ------------------------------------------------------------------
    def stage_time(self, stage: Stage, mapping: np.ndarray, block_bytes: float) -> StageTiming:
        """Price a single instance of ``stage`` under ``mapping``."""
        part, load = self._stage_loads(stage, mapping, block_bytes)
        return self._stage_timing(stage, part, load, self._beta)

    def _stage_loads(
        self, stage: Stage, mapping: np.ndarray, block_bytes: float
    ) -> Tuple[_StageRoutes, np.ndarray]:
        """One stage instance at ``block_bytes``, routed, and its link loads."""
        part = self._route_kernel(mapping[stage.src], mapping[stage.dst]).stage()
        return part, part.load(stage.units * block_bytes, np.zeros(self._beta.size))

    def _stage_timing(
        self, stage: Stage, part: _StageRoutes, load: np.ndarray, beta: np.ndarray
    ) -> StageTiming:
        """A routed, loaded stage priced against an explicit per-link β table.

        The fault-injection path drains one stage's loads under the β
        table of each fault state; the healthy path passes ``self._beta``.
        """
        drain = part.drains(load, beta, np.empty_like(load))
        per_msg = self._level_alpha[part.level] + drain
        return StageTiming(
            label=stage.label,
            seconds=float(per_msg.max()) + self.cost.stage_overhead,
            repeat=stage.repeat,
            n_messages=stage.n_messages,
            max_link_load_bytes=float(load[1:].max()),
        )

    def evaluate(
        self,
        schedule: Schedule,
        mapping: Sequence[int],
        block_bytes: float,
        extra_copy_bytes: float = 0.0,
        fault_plan=None,
    ) -> TimingResult:
        """Total latency of ``schedule``.

        Parameters
        ----------
        schedule:
            Rank-space schedule from a collective algorithm.
        mapping:
            Array ``M`` with ``M[rank] = core`` (a permutation when the job
            fully subscribes its cores, which is the paper's setting).
        block_bytes:
            Size of one block (the per-rank allgather message size).
        extra_copy_bytes:
            Additional local data movement to price (endShfl shuffles).
        fault_plan:
            Optional :class:`repro.faults.plan.FaultPlan`.  Degradations
            take effect from their onset stage; a failed node that is
            asked to communicate raises
            :class:`repro.faults.plan.FaultStopError` (fail-stop
            semantics — catch it and shrink via ``repro.faults``).
        """
        check_positive("block_bytes", block_bytes)
        check_nonnegative("extra_copy_bytes", extra_copy_bytes)
        maybe_verify_schedule(schedule)  # opt-in static guard (REPRO_VERIFY=1)
        M = self._check_mapping(schedule, mapping)
        if fault_plan is not None:
            return self._evaluate_with_faults(
                schedule, M, block_bytes, extra_copy_bytes, fault_plan
            )

        timings = [self.stage_time(s, M, block_bytes) for s in schedule.stages]
        copy_bytes = schedule.local_copy_units * block_bytes + extra_copy_bytes
        copy_seconds = self.cost.copy_cost(copy_bytes)
        total = sum(t.total_seconds for t in timings) + copy_seconds
        return TimingResult(
            schedule_name=schedule.name,
            total_seconds=total,
            stage_timings=timings,
            local_copy_seconds=copy_seconds,
        )

    def _evaluate_with_faults(
        self,
        schedule: Schedule,
        M: np.ndarray,
        block_bytes: float,
        extra_copy_bytes: float,
        fault_plan,
    ) -> TimingResult:
        """Round-wise pricing under a dynamic fault plan.

        Fault onsets are indexed by communication *round* (the stage list
        with per-stage ``repeat`` counts expanded, so a ring's p-1
        iterations are p-1 distinct onsets).  Each round is priced with
        the beta table of the degradations active at its index; the
        first round in which a failed node must send or receive aborts
        the collective.  Fault activation is monotone, so rounds are
        re-priced only when the active event set changes, and then only
        the drain: a stage's routes, α-sums and loads do not depend on β.
        """
        # Local import: repro.faults imports this module at package level.
        from dataclasses import replace

        from repro.faults.plan import FaultStopError

        fault_plan.validate(self.cluster)
        timings: List[StageTiming] = []
        round_idx = 0
        for stage in schedule.stages:
            state = None
            timing: Optional[StageTiming] = None
            loaded: Optional[Tuple[_StageRoutes, np.ndarray]] = None
            for _ in range(stage.repeat):
                key = tuple(
                    ev.active_at_stage(round_idx) for ev in fault_plan.events
                )
                if timing is None or key != state:
                    state = key
                    failed = fault_plan.failed_nodes_at_stage(round_idx)
                    if failed:
                        touched = set(
                            int(n)
                            for n in np.union1d(
                                self.cluster.node_of(M[stage.src]),
                                self.cluster.node_of(M[stage.dst]),
                            )
                        )
                        dead = touched & set(failed)
                        if dead:
                            raise FaultStopError(dead, round_idx, schedule.name)
                    scale = fault_plan.beta_scale_at_stage(self.cluster, round_idx)
                    beta = self._beta if scale is None else self._scaled_beta(scale)
                    if loaded is None:
                        loaded = self._stage_loads(stage, M, block_bytes)
                    timing = replace(self._stage_timing(stage, *loaded, beta), repeat=1)
                timings.append(timing)
                round_idx += 1
        copy_bytes = schedule.local_copy_units * block_bytes + extra_copy_bytes
        copy_seconds = self.cost.copy_cost(copy_bytes)
        total = sum(t.total_seconds for t in timings) + copy_seconds
        return TimingResult(
            schedule_name=schedule.name,
            total_seconds=total,
            stage_timings=timings,
            local_copy_seconds=copy_seconds,
        )

    # ------------------------------------------------------------------
    # batched multi-size pricing
    # ------------------------------------------------------------------
    def _check_mapping(self, schedule: Schedule, mapping: Sequence[int]) -> np.ndarray:
        M = np.asarray(mapping, dtype=np.int64)
        if schedule.p > M.size:
            raise ValueError(
                f"schedule for p={schedule.p} but mapping covers only {M.size} ranks"
            )
        if M.min(initial=0) < 0 or M.max(initial=0) >= self.cluster.n_cores:
            raise ValueError("mapping references cores outside the cluster")
        return M

    def _price_schedule(self, schedule: Schedule, mapping: np.ndarray) -> List[StagePricing]:
        """Price every stage of ``schedule`` over one route table.

        All stage messages are concatenated so the route lookup runs once
        per schedule.  Then, stage by stage, the loads are summed into one
        link-sized buffer, drained into another, reduced to the stage's
        envelope and zeroed again.  Loads are for a 1-byte block: the real
        load is linear in the block size, so one table serves every size.
        """
        stages = schedule.stages
        bounds = np.cumsum([0] + [s.src.size for s in stages]).tolist()
        src = mapping[np.concatenate([s.src for s in stages])]
        dst = mapping[np.concatenate([s.dst for s in stages])]
        routed = self._route_kernel(src, dst)
        load = np.zeros(self._beta.size)
        bin_drain = np.empty_like(load)

        priced: List[StagePricing] = []
        for i, stage in enumerate(stages):
            part = routed.stage(bounds[i], bounds[i + 1])
            part.load(stage.units, load)
            drain = part.drains(load, self._beta, bin_drain)
            env_alpha, env_drain = _pareto_envelope(
                drain, part.level, part.levels, self._level_alpha
            )
            priced.append(
                StagePricing(
                    label=stage.label,
                    repeat=stage.repeat,
                    n_messages=stage.n_messages,
                    env_alpha=env_alpha,
                    env_drain=env_drain,
                    unit_load_max=float(load[1:].max()),
                )
            )
            load.fill(0.0)
        return priced

    def pricing(self, schedule: Schedule, mapping: Sequence[int]) -> SchedulePricing:
        """Cached :class:`SchedulePricing` for a (schedule, mapping) pair.

        Keyed on the schedule's kept :attr:`~Schedule.digest` and a hash of
        the mapping, so equal schedules rebuilt by different callers (or
        the same schedule priced under the same mapping again) share one
        table, kept in :attr:`pricing_cache`.
        """
        maybe_verify_schedule(schedule)  # opt-in static guard (REPRO_VERIFY=1)
        M = self._check_mapping(schedule, mapping)
        m_used = np.ascontiguousarray(M[: schedule.p])
        key = (schedule.digest, hashlib.sha1(m_used).digest())
        return self.pricing_cache.get_or_build(key, lambda: SchedulePricing(self, schedule, M))

    def evaluate_sizes(
        self,
        schedule: Schedule,
        mapping: Sequence[int],
        sizes: Sequence[float],
        extra_copy_bytes: float = 0.0,
    ) -> BatchTimingResult:
        """Price ``schedule`` for every block size in ``sizes`` at once.

        Routes, alpha-sums and per-link unit-byte loads are computed once
        (and cached across calls); each size then costs one envelope
        evaluation.  Agrees with per-size :meth:`evaluate` to floating
        point tolerance.
        """
        return self.pricing(schedule, mapping).evaluate_sizes(sizes, extra_copy_bytes)

    # ------------------------------------------------------------------
    def link_loads(self, stage: Stage, mapping: np.ndarray, block_bytes: float) -> np.ndarray:
        """Per-link byte loads of one stage (diagnostics / tests)."""
        M = np.asarray(mapping, dtype=np.int64)
        return self._stage_loads(stage, M, block_bytes)[1][1:]
