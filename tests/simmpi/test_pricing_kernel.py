"""The mask-free pricing kernel vs. the masked builder it replaced.

``TimingEngine._route_kernel`` reads ``routes_for``'s ``-1``-padded
table without a validity mask: link ids are offset by one so padding
lands in a sentinel bin with α = β = 0, route α-sums come from a table
keyed by each message's locality level, and a stage's loads and drains
skip the columns real at none of its levels.  :class:`MaskedOracle` is
the masked per-stage builder the engine used before, and
:func:`oracle_envelope` the one-sort Pareto envelope it fed, which the
engine's level-wise walk replaced; both are kept as the reference.
Every table and timing the engine produces must match them byte for
byte: downstream figure pipelines and ``sweep.json`` compare latencies
with exact equality.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bench import microbench
from repro.collectives.hierarchical import HierarchicalAllgather
from repro.collectives.registry import make_algorithm, registered_algorithm_names
from repro.evaluation.evaluator import AllgatherEvaluator
from repro.faults.plan import cable_degradation, hca_retrain
from repro.faults.shrink import shrink_layout
from repro.mapping.initial import make_layout
from repro.simmpi.costmodel import DEFAULT_ALPHA, CostModel
from repro.simmpi.engine import TimingEngine, _pareto_envelope
from repro.topology.cluster import (
    COLUMN_CLASSES,
    LEVEL_CHANNELS,
    LEVEL_COLUMNS,
    MAX_ROUTE_LEN,
    MEM_BUS_COLUMNS,
    LinkClass,
)
from repro.topology.gpc import gpc_cluster, small_cluster
from repro.util.rng import make_rng

#: 16 nodes on 8 two-node leaves over 3 line switches: every locality
#: level (socket, node, leaf, line, spine) occurs.
CLUSTER = small_cluster(n_nodes=16, cores_per_socket=4)
SCALE = make_rng(7).uniform(0.5, 4.0, CLUSTER.n_links)
#: block sizes, including ones whose byte loads round
BLOCK_BYTES = (1.0, 3.7, 1000.0)


def oracle_envelope(alpha_sum, unit_drain):
    """The one-sort Pareto envelope the level-wise walk replaced.

    Per distinct drain, the largest alpha-sum of any message at it; then
    every line whose alpha-sum is beaten at an equal-or-larger drain goes.
    """
    u_drain, inverse = np.unique(unit_drain, return_inverse=True)
    u_alpha = np.full(u_drain.size, -np.inf)
    np.maximum.at(u_alpha, inverse, alpha_sum)
    suffix_max = np.maximum.accumulate(u_alpha[::-1])[::-1]
    keep = u_alpha >= suffix_max
    return u_alpha[keep], u_drain[keep]


class MaskedOracle:
    """The masked route -> load -> drain builder (the reference)."""

    def __init__(self, cluster, cost, link_beta_scale=None):
        self.cluster = cluster
        self.cost = cost
        cls = cluster.link_class.astype(np.int64)
        self.alpha = cost.alpha_by_class()[cls]
        self.beta = cost.beta_by_class()[cls]
        if link_beta_scale is not None:
            self.beta = self.beta * link_beta_scale

    def routes(self, src, dst):
        # The row-major int64 table the masked builder consumed, so each
        # row reduction runs over one contiguous route as it did.
        return np.ascontiguousarray(self.cluster.route_matrix(src, dst), dtype=np.int64)

    def stage_time(self, stage, M, block_bytes, beta):
        """(seconds, max_link_load_bytes) of one stage instance."""
        routes = self.routes(M[stage.src], M[stage.dst])
        valid = routes >= 0
        safe = np.where(valid, routes, 0)
        nbytes = stage.units * block_bytes
        weights = np.broadcast_to(nbytes[:, None], routes.shape)[valid]
        load = np.bincount(routes[valid], weights=weights, minlength=self.cluster.n_links)
        alpha_sum = np.where(valid, self.alpha[safe], 0.0).sum(axis=1)
        drain = np.where(valid, beta[safe] * load[safe], 0.0).max(axis=1)
        per_msg = alpha_sum + drain
        return float(per_msg.max()) + self.cost.stage_overhead, float(load.max())

    def price_stage(self, stage, M):
        """(alpha_sum, unit_drain, unit_load_max) of one stage."""
        routes = self.routes(M[stage.src], M[stage.dst])
        valid = routes >= 0
        safe = np.where(valid, routes, 0)
        unit_weights = np.broadcast_to(stage.units[:, None], routes.shape)[valid]
        unit_load = np.bincount(
            routes[valid], weights=unit_weights, minlength=self.cluster.n_links
        )
        alpha_sum = np.where(valid, self.alpha[safe], 0.0).sum(axis=1)
        unit_drain = np.where(valid, self.beta[safe] * unit_load[safe], 0.0).max(axis=1)
        return alpha_sum, unit_drain, float(unit_load.max())

    def link_loads(self, stage, M, block_bytes):
        routes = self.routes(M[stage.src], M[stage.dst])
        valid = routes >= 0
        nbytes = stage.units * block_bytes
        weights = np.broadcast_to(nbytes[:, None], routes.shape)[valid]
        return np.bincount(routes[valid], weights=weights, minlength=self.cluster.n_links)

    def fault_rounds(self, schedule, M, block_bytes, plan):
        """Per-round stage times under a degradation-only fault plan."""
        rounds = []
        for stage in schedule.stages:
            for _ in range(stage.repeat):
                scale = plan.beta_scale_at_stage(self.cluster, len(rounds))
                beta = self.beta if scale is None else self.beta * scale
                rounds.append(self.stage_time(stage, M, block_bytes, beta))
        return rounds


def _mappings():
    cl = CLUSTER
    identity = np.arange(cl.n_cores, dtype=np.int64)
    cyclic = make_layout("cyclic-scatter", cl, cl.n_cores)
    return {
        "identity": identity,
        "cyclic-scatter": cyclic,
        "random-permutation": make_rng(3).permutation(cl.n_cores),
        "shrunk-survivor": shrink_layout(cl, cyclic, failed_nodes=[5]),
    }


def _node_groups(M, cluster=CLUSTER):
    """Ranks grouped by node, in order of each node's first rank."""
    groups = {}
    for rank, node in enumerate(cluster.node_of(M).tolist()):
        groups.setdefault(node, []).append(rank)
    return list(groups.values())


def _schedules(M):
    p = M.size
    for name in registered_algorithm_names():
        alg = make_algorithm(name)
        try:
            alg.validate_p(p)
        except ValueError:
            continue
        yield alg.schedule(p)
    groups = _node_groups(M)
    for leader_alg in ("rd", "ring"):
        for intra in ("binomial", "linear"):
            try:
                alg = HierarchicalAllgather(groups, leader_alg=leader_alg, intra=intra)
            except ValueError:
                continue  # rd leaders need a power-of-two group count
            yield alg.schedule(p)


def _engines():
    cost = CostModel()
    # QPI and HCA share one α, so cross-socket and same-leaf routes tie on
    # their α-sum, and line-spine hops cost no α, so same-line and
    # via-spine routes tie too: the envelope must group levels by α value.
    # The second tie is between the highest α-sums of most stages, where a
    # walk grouped by level would drop lines.
    tied = CostModel(
        alpha={LinkClass.QPI: DEFAULT_ALPHA[LinkClass.HCA], LinkClass.LINE_SPINE: 0.0}
    )
    return {
        "plain": (TimingEngine(CLUSTER, cost), MaskedOracle(CLUSTER, cost)),
        "link_beta_scale": (
            TimingEngine(CLUSTER, cost, link_beta_scale=SCALE),
            MaskedOracle(CLUSTER, cost, link_beta_scale=SCALE),
        ),
        "tied_alpha": (TimingEngine(CLUSTER, tied), MaskedOracle(CLUSTER, tied)),
    }


ENGINES = _engines()
MAPPINGS = _mappings()
FAULT_PLANS = {
    "hca_retrain": hca_retrain(node=1, factor=2.0, onset_stage=2),
    "cable_degradation": cable_degradation(
        range(0, CLUSTER.network.n_links, 3), factor=4.0, onset_stage=1
    ),
}


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("mapping", sorted(MAPPINGS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestKernelMatchesMaskedOracle:
    def test_pricing_tables(self, engine, mapping):
        eng, oracle = ENGINES[engine]
        M = MAPPINGS[mapping]
        checked = 0
        for sched in _schedules(M):
            pricing = eng.pricing(sched, M)
            assert len(pricing.stages) == len(sched.stages)
            for stage, priced in zip(sched.stages, pricing.stages):
                alpha_sum, unit_drain, load_max = oracle.price_stage(stage, M)
                env_alpha, env_drain = oracle_envelope(alpha_sum, unit_drain)
                where = (sched.name, stage.label)
                assert _bits(priced.env_alpha) == _bits(env_alpha), where
                assert _bits(priced.env_drain) == _bits(env_drain), where
                assert _bits(priced.unit_load_max) == _bits(load_max), where
            checked += 1
        assert checked >= 8  # the registry and the hierarchical variants ran

    def test_per_size_stage_time_and_link_loads(self, engine, mapping):
        eng, oracle = ENGINES[engine]
        M = MAPPINGS[mapping]
        for sched in _schedules(M):
            for stage in sched.stages:
                for bb in BLOCK_BYTES:
                    got = eng.stage_time(stage, M, bb)
                    seconds, load_max = oracle.stage_time(stage, M, bb, oracle.beta)
                    where = (sched.name, stage.label, bb)
                    assert _bits(got.seconds) == _bits(seconds), where
                    assert _bits(got.max_link_load_bytes) == _bits(load_max), where
                loads = eng.link_loads(stage, M, BLOCK_BYTES[1])
                ref = oracle.link_loads(stage, M, BLOCK_BYTES[1])
                assert loads.shape == ref.shape
                assert _bits(loads) == _bits(ref), (sched.name, stage.label)

    @pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
    def test_fault_path(self, engine, mapping, plan):
        eng, oracle = ENGINES[engine]
        M = MAPPINGS[mapping]
        fault_plan = FAULT_PLANS[plan]
        bb = BLOCK_BYTES[1]
        for sched in _schedules(M):
            res = eng.evaluate(sched, M, bb, fault_plan=fault_plan)
            rounds = oracle.fault_rounds(sched, M, bb, fault_plan)
            assert len(res.stage_timings) == len(rounds)
            for k, (timing, (seconds, load_max)) in enumerate(zip(res.stage_timings, rounds)):
                assert _bits(timing.seconds) == _bits(seconds), (sched.name, k)
                assert _bits(timing.max_link_load_bytes) == _bits(load_max), (sched.name, k)
            copy = eng.cost.copy_cost(sched.local_copy_units * bb)
            total = sum(seconds for seconds, _ in rounds) + copy
            assert _bits(res.total_seconds) == _bits(total), sched.name


def test_tied_alpha_engine_has_stages_with_tied_levels():
    """Under ``tied_alpha`` cross-socket and same-leaf routes tie on their
    α-sum, and so do same-line and via-spine ones; stages holding both
    levels of a tie occur, so ``test_pricing_tables`` checks that the
    envelope groups levels by α value."""
    eng, _ = ENGINES["tied_alpha"]
    assert eng._level_alpha[1] == eng._level_alpha[2]
    assert eng._level_alpha[3] == eng._level_alpha[4]
    assert np.unique(eng._level_alpha).size == len(LEVEL_COLUMNS) - 2
    M = MAPPINGS["random-permutation"]
    held = [
        set(CLUSTER.routes_for(M[stage.src], M[stage.dst])[1].tolist())
        for sched in _schedules(M)
        for stage in sched.stages
    ]
    assert sum({1, 2} <= levels for levels in held) >= 10
    assert sum({3, 4} <= levels for levels in held) >= 10


#: Tie-heavy stages for the level-wise envelope: the levels present, how
#: many distinct drains the messages draw from, and pairs of levels given
#: one α.
TIE_CASES = {
    "one-alpha": ([2], 6, ()),
    "five-alphas": ([0, 1, 2, 3, 4], 40, ()),
    "drains-repeated-across-alphas": ([0, 1, 2, 3, 4], 3, ()),
    "equal-alpha-at-two-levels": ([0, 1, 2, 4], 8, ((1, 2),)),
}


def _tie_heavy_stage(case, rng):
    """(unit_drain, level, levels, level_alpha) with every listed level present."""
    present, n_drains, ties = TIE_CASES[case]
    level_alpha = rng.choice(np.arange(1, 40) * 1e-7, len(LEVEL_COLUMNS), replace=False)
    for a, b in ties:
        level_alpha[b] = level_alpha[a]
    pool = rng.uniform(0.0, 1e-9, n_drains)
    if rng.random() < 0.2:
        pool[0] = 0.0  # an intra-stage drain of nothing
    extra = rng.choice(present, rng.integers(0, 48))
    level = rng.permutation(np.concatenate([present, extra])).astype(np.int8)
    drain = pool[rng.integers(0, n_drains, level.size)]
    return drain, level, sorted(set(level.tolist())), level_alpha


class TestLevelWiseEnvelope:
    @pytest.mark.parametrize("case", sorted(TIE_CASES))
    def test_tie_heavy_random_stages(self, case):
        """The level-wise walk against the one-sort envelope, byte for byte."""
        rng = make_rng(11)
        for draw in range(300):
            drain, level, levels, level_alpha = _tie_heavy_stage(case, rng)
            got = _pareto_envelope(drain, level, levels, level_alpha)
            want = oracle_envelope(level_alpha[level], drain)
            assert _bits(got[0]) == _bits(want[0]), (case, draw)
            assert _bits(got[1]) == _bits(want[1]), (case, draw)


class TestRouteLayout:
    """What the kernel's α table and per-column load sums rely on."""

    def _pairs(self):
        cores = np.arange(CLUSTER.n_cores)
        src, dst = np.meshgrid(cores, cores, indexing="ij")
        off = src != dst
        return src[off], dst[off]

    def _all_pairs(self):
        return CLUSTER.route_matrix(*self._pairs())

    def test_every_column_holds_one_link_class(self):
        routes = self._all_pairs()
        assert routes.shape[1] == MAX_ROUTE_LEN
        for col in range(MAX_ROUTE_LEN):
            ids = routes[:, col]
            classes = np.unique(CLUSTER.link_class[ids[ids >= 0]])
            assert classes.tolist() == [COLUMN_CLASSES[col]], (
                col,
                [LinkClass(c).name for c in classes],
            )

    def test_columns_draw_from_disjoint_link_blocks(self):
        """Only the memory-bus columns share link ids, so summing loads
        column by column (the memory bus interleaved) keeps every link's
        message-order sum."""
        routes = self._all_pairs()
        blocks = []
        for col in range(MAX_ROUTE_LEN):
            ids = routes[:, col]
            ids = ids[ids >= 0]
            blocks.append((int(ids.min()), int(ids.max()), col))
        first, second = MEM_BUS_COLUMNS
        assert np.array_equal(np.unique(routes[:, first]), np.unique(routes[:, second]))
        disjoint = sorted(b for b in blocks if b[2] != second)
        for (_, hi, col), (lo, _, nxt) in zip(disjoint, disjoint[1:]):
            assert hi < lo, (col, nxt)

    def test_padding_is_the_level_layout(self):
        """Over every ordered core pair, a route's padding pattern is its
        level's row of ``LEVEL_COLUMNS``, and its level names the channel
        ``channel_of`` reports."""
        src, dst = self._pairs()
        routes, level = CLUSTER.routes_for(src, dst)
        assert level.dtype == np.int8
        assert np.array_equal(routes, CLUSTER.route_matrix(src, dst))
        assert np.array_equal(routes >= 0, LEVEL_COLUMNS[level])
        channels = [CLUSTER.channel_of(s, d) for s, d in zip(src.tolist(), dst.tolist())]
        assert [LEVEL_CHANNELS[lvl] for lvl in level.tolist()] == channels
        assert np.unique(level).tolist() == [0, 1, 2, 3, 4]  # every level occurs


def _price_peak(cluster, sched, M):
    """Tracemalloc peak of one schedule's tables on a fresh engine."""
    engine = TimingEngine(cluster, CostModel())
    tracemalloc.start()
    try:
        priced = engine._price_schedule(sched, M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(priced) == len(sched.stages)
    return peak


class TestKernelMemory:
    """Pricing holds per-message arrays and link-sized buffers, nothing
    with an entry per (stage, link)."""

    def test_rd_table_at_p4096_is_linear_in_messages(self):
        """One flat recursive-doubling table at p = 4096 (49,152 messages,
        12 stages) on a fresh cluster and engine peaks under 8 MiB.

        The kernel holds one int32 route table and sums each stage's loads
        one route column at a time into one reused link-sized buffer; a
        flattened id array, its weights and the drain gather with an entry
        per route slot peaked at 24 MiB, and stages x links load and drain
        tables at 8.6 MiB.
        """
        cluster = gpc_cluster(512)
        sched = make_algorithm("recursive-doubling").schedule(cluster.n_cores)
        M = make_layout("cyclic-scatter", cluster, cluster.n_cores)
        assert len(sched.stages) == 12
        peak = _price_peak(cluster, sched, M)
        assert peak < 8 << 20, f"peak {peak / 2**20:.2f} MiB"

    def test_hierarchical_table_at_p4096_is_linear_in_messages(self):
        """A ``hierarchical[rd,binomial]`` table at p = 4096 on block-bunch
        node groups (11,776 messages over 15 stages) peaks under 2 MiB.

        Its stages are sparse, so stages x links load and drain tables
        made it 5.8 MiB, about 516 bytes per message.
        """
        cluster = gpc_cluster(512)
        M = make_layout("block-bunch", cluster, cluster.n_cores)
        alg = HierarchicalAllgather(_node_groups(M, cluster), leader_alg="rd", intra="binomial")
        sched = alg.schedule(cluster.n_cores)
        assert len(sched.stages) == 15
        peak = _price_peak(cluster, sched, M)
        assert peak < 2 << 20, f"peak {peak / 2**20:.2f} MiB"


class TestFaultPathReuse:
    def test_each_stage_routed_once(self, monkeypatch):
        """A fault state change re-drains the stage; it does not re-route it."""
        eng, _ = ENGINES["plain"]
        M = MAPPINGS["cyclic-scatter"]
        sched = make_algorithm("ring").schedule(M.size)  # one stage, p - 1 rounds
        calls = []
        routes_for = CLUSTER.routes_for

        def counted(src, dst):
            calls.append(len(src))
            return routes_for(src, dst)

        monkeypatch.setattr(CLUSTER, "routes_for", counted)
        res = eng.evaluate(sched, M, BLOCK_BYTES[1], fault_plan=FAULT_PLANS["cable_degradation"])
        assert len({t.seconds for t in res.stage_timings}) == 2  # the onset changed the state
        assert len(calls) == len(sched.stages) == 1


def _assert_tables_match_oracle(oracle, tables):
    """Every stage of every (schedule, mapping, tables) triple, byte for byte."""
    for sched, M, priced_stages in tables:
        assert len(priced_stages) == len(sched.stages)
        for stage, priced in zip(sched.stages, priced_stages):
            alpha_sum, unit_drain, load_max = oracle.price_stage(stage, M)
            env_alpha, env_drain = oracle_envelope(alpha_sum, unit_drain)
            where = (sched.name, stage.label)
            assert _bits(priced.env_alpha) == _bits(env_alpha), where
            assert _bits(priced.env_drain) == _bits(env_drain), where
            assert _bits(priced.unit_load_max) == _bits(load_max), where


@pytest.mark.slow
def test_fig34_grid_tables_at_p4096_match_oracle(monkeypatch):
    """The 32 tables one Fig. 3/4 heuristic grid op prices at p = 4096.

    Both sides are computed here rather than pinned as a digest, so the
    check holds under any NumPy whose float outputs differ in the last
    bit.  Level 3 (same line switch) never occurs on 512 nodes: its 18
    leaves sit on 18 distinct line switches.  Only ``CLUSTER`` covers it.
    """
    cluster = gpc_cluster(512)
    ev = AllgatherEvaluator(cluster, rng=0)
    tables = []
    price_schedule = TimingEngine._price_schedule

    def recorded(engine, schedule, mapping):
        priced = price_schedule(engine, schedule, mapping)
        tables.append((schedule, mapping, priced))
        return priced

    monkeypatch.setattr(TimingEngine, "_price_schedule", recorded)
    p = cluster.n_cores
    microbench.sweep_nonhierarchical(ev, p, mappers=("heuristic",))
    microbench.sweep_hierarchical(ev, p, mappers=("heuristic",))
    assert len(tables) == 32
    _assert_tables_match_oracle(MaskedOracle(cluster, ev.engine.cost), tables)
