"""The claims ledger: quotable paper statements, asserted mechanically.

Each test quotes one sentence from the paper and checks the library
exhibits it.  This is the reproduction's table of contents in executable
form — distinct from the figure benches (which sweep and report) in that
each claim here is a single, pinned behaviour.
"""

import numpy as np
import pytest

from repro.collectives.allgather_rd import RecursiveDoublingAllgather
from repro.collectives.allgather_ring import RingAllgather
from repro.collectives.correctness import RankReordering, execute_reordered_allgather
from repro.evaluation.evaluator import AllgatherEvaluator
from repro.mapping.initial import block_bunch, cyclic_bunch, cyclic_scatter
from repro.mapping.cache import global_mapping_cache
from repro.mapping.rdmh import RDMH
from repro.mapping.reorder import ReorderResult, reorder_ranks
from repro.topology.gpc import gpc_cluster
from repro.util.rng import make_rng


@pytest.fixture(scope="module")
def cluster():
    return gpc_cluster(n_nodes=16)  # 128 processes


@pytest.fixture(scope="module")
def ev(cluster):
    return AllgatherEvaluator(cluster, rng=0)


class TestSectionII:
    def test_rd_stage_structure(self):
        """'At each stage s ... rank i exchanges data with rank i xor 2^s'
        and 'the volume of the exchanged messages is doubled at each
        stage'."""
        stages = list(RecursiveDoublingAllgather().stages(8))
        for s, stage in enumerate(stages):
            assert np.array_equal(stage.dst, stage.src ^ (1 << s))
            assert np.all(stage.units == float(1 << s))

    def test_ring_runs_n_minus_1_stages(self):
        """'With N processes, the algorithm runs for N-1 stages.'"""
        assert RingAllgather().schedule(37).n_stages() == 36

    def test_inter_node_slower_than_intra(self, ev, cluster):
        """'Inter-node communications are generally slower than the
        intra-node communications that use the shared memory.'"""
        from repro.collectives.schedule import Schedule, Stage

        M = np.arange(cluster.n_cores)
        intra = Schedule(p=2, stages=[Stage(np.array([0]), np.array([1]), np.ones(1))])
        inter = Schedule(p=9, stages=[Stage(np.array([0]), np.array([8]), np.ones(1))])
        assert (
            ev.engine.evaluate(intra, M, 4096).total_seconds
            < ev.engine.evaluate(inter, M, 4096).total_seconds
        )

    def test_more_links_more_latency(self):
        """'Messages that pass across a larger number of links suffer
        more in terms of latency.'"""
        from repro.collectives.schedule import Schedule, Stage
        from repro.simmpi.engine import TimingEngine

        wide = gpc_cluster(n_nodes=64)  # spans 3 leaf switches
        engine = TimingEngine(wide)
        M = np.arange(wide.n_cores)
        # same leaf (node 1) vs a spine crossing (node 31, other leaf/line)
        same_leaf = Schedule(p=9, stages=[Stage(np.array([0]), np.array([8]), np.ones(1))])
        cross = Schedule(
            p=31 * 8 + 1, stages=[Stage(np.array([0]), np.array([31 * 8]), np.ones(1))]
        )
        assert wide.channel_of(0, 8) == "leaf"
        assert wide.channel_of(0, 31 * 8) == "spine"
        assert (
            engine.evaluate(same_leaf, M, 8).total_seconds
            < engine.evaluate(cross, M, 8).total_seconds
        )


class TestSectionIV:
    def test_algorithms_kept_intact(self, ev, cluster):
        """'We keep collective algorithms intact, and reorder the ranks.'
        — the same schedule object serves every mapping."""
        sched = RingAllgather().schedule(128)
        L = cyclic_bunch(cluster, 128)
        res = reorder_ranks("ring", L, ev.D, rng=0)
        t1 = ev.engine.evaluate(sched, L, 65536).total_seconds
        t2 = ev.engine.evaluate(sched, res.mapping, 65536).total_seconds
        assert t2 < t1  # only the binding changed, and it was enough

    def test_performance_changes_under_mappings(self, ev, cluster):
        """'The performance of a given collective can significantly
        change under different mappings of processes.'"""
        sched = RingAllgather().schedule(128)
        t_block = ev.engine.evaluate(sched, block_bunch(cluster, 128), 65536).total_seconds
        t_cyclic = ev.engine.evaluate(sched, cyclic_bunch(cluster, 128), 65536).total_seconds
        assert t_cyclic > 2 * t_block


class TestSectionV:
    def test_rank0_fixed(self, ev, cluster):
        """'The process with rank 0 is fixed on the core already hosting
        it' (Algorithm 1, step 1)."""
        for pattern in ("recursive-doubling", "ring", "binomial-bcast", "binomial-gather"):
            L = cyclic_scatter(cluster, 128)
            res = reorder_ranks(pattern, L, ev.D, rng=3)
            assert res.mapping[0] == L[0], pattern

    def test_rdmh_prioritises_last_stage(self, ev, cluster):
        """'We start with the pairs of communications that fall in the
        last stage': the first placement after rank 0 is rank p/2 = 0 xor
        p/2, as close to rank 0 as possible."""
        p = 128
        L = cyclic_scatter(cluster, p)
        M = RDMH(tie_break="first").map(L, ev.D, rng=0)
        d = ev.D[int(M[0]), int(M[p // 2])]
        others = [ev.D[int(M[0]), int(c)] for c in L if c != M[0]]
        assert d == min(others)

    def test_output_order_preserved(self):
        """'The elements of this vector should appear in a correct order'
        — under every restoration mechanism (§V-B)."""
        rng = make_rng(0)
        ro = RankReordering(layout=np.arange(16), mapping=rng.permutation(16))
        expected = np.arange(16) * 1000003 + 7
        for alg, strat in [
            (RecursiveDoublingAllgather(), "initcomm"),
            (RecursiveDoublingAllgather(), "endshfl"),
            (RingAllgather(), "inline"),
        ]:
            out = execute_reordered_allgather(alg, ro, strat)
            assert np.array_equal(out, np.broadcast_to(expected, (16, 16)))

    def test_ring_needs_no_mechanism(self, ev, cluster):
        """'For the ring ... we will not have any extra overheads in
        terms of preserving the correct order of the output vector.'"""
        L = cyclic_bunch(cluster, 128)
        rep = ev.reordered_latency(L, 65536, "heuristic", "initcomm")
        assert rep.restore_seconds == 0.0


class TestSectionVI:
    def test_goal_one_fix_bad_mappings(self, ev, cluster):
        """Goal 1: 'capable of modifying the initial layout ... even if
        the initial mapping is quite far from ideal.'"""
        L = cyclic_scatter(cluster, 128)
        assert ev.improvement_pct(L, 65536) > 40

    def test_goal_two_no_harm(self, ev, cluster):
        """Goal 2: 'should not cause performance degradation if the
        initial layout ... is already a good match.'"""
        L = block_bunch(cluster, 128)
        assert ev.improvement_pct(L, 65536) > -2

    def test_poor_mapping_for_one_algorithm_good_for_another(self, ev, cluster):
        """'A poor initial mapping for one algorithm can be relatively
        better for another' — cyclic loses the ring but wins recursive
        doubling."""
        blk, cyc = block_bunch(cluster, 128), cyclic_bunch(cluster, 128)
        ring = RingAllgather().schedule(128)
        rd = RecursiveDoublingAllgather().schedule(128)
        assert (
            ev.engine.evaluate(ring, blk, 65536).total_seconds
            < ev.engine.evaluate(ring, cyc, 65536).total_seconds
        )
        assert (
            ev.engine.evaluate(rd, cyc, 1024).total_seconds
            < ev.engine.evaluate(rd, blk, 1024).total_seconds
        )

    def test_reordering_happens_once(self, ev, cluster, monkeypatch):
        """'The whole rank reordering process happens only once at
        run-time' — a repeat runs no mapper, and a fresh evaluator takes
        the kept reordering from the mapping cache without rebuilding it."""
        import repro.mapping.reorder as reorder

        L = cyclic_bunch(cluster, 128)
        a = ev.reordered_latency(L, 65536, "heuristic", "initcomm")
        [kept] = [
            r
            for r in ev._reorder_cache.values()
            if isinstance(r, ReorderResult)
            and r.pattern == "ring"
            and np.array_equal(r.reordering.layout, L)
        ]

        def rerun(*args, **kwargs):
            raise AssertionError("the reordering was computed or built again")

        monkeypatch.setattr(reorder, "map_batch", rerun)
        monkeypatch.setattr(RankReordering, "__post_init__", rerun)
        cache = global_mapping_cache()
        hits, misses = cache.hits, cache.misses
        assert ev.reordered_latency(L, 65536, "heuristic", "initcomm") == a
        assert (cache.hits, cache.misses) == (hits, misses)  # not even a lookup

        fresh = AllgatherEvaluator(cluster, rng=0)
        assert fresh.reordered_latency(L, 65536, "heuristic", "initcomm") == a
        assert (cache.hits - hits, cache.misses - misses) == (1, 0)
        [res] = fresh._reorder_cache.values()
        assert res.cached and res.reordering is kept.reordering

    def test_heuristic_overhead_below_scotch(self, ev, cluster):
        """'The proposed heuristics ... a significantly lower overhead
        compared to Scotch.'"""
        L = cyclic_bunch(cluster, 128)
        h = reorder_ranks("ring", L, ev.D, kind="heuristic", rng=0)
        s = reorder_ranks("ring", L, ev.D, kind="scotch", rng=0)
        assert h.total_seconds < s.total_seconds
