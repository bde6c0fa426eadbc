"""AllgatherEvaluator tests — the §VI measurement pipeline."""

import dataclasses

import numpy as np
import pytest

from repro.bench.microbench import OSU_SIZES
from repro.evaluation.evaluator import AllgatherEvaluator
from repro.mapping.initial import block_bunch, cyclic_scatter, make_layout
from repro.util.rng import make_rng


@pytest.fixture(scope="module")
def evaluator(mid_cluster):
    return AllgatherEvaluator(mid_cluster, rng=0)


class TestDefaultLatency:
    def test_algorithm_selection_by_size(self, evaluator, mid_cluster):
        L = block_bunch(mid_cluster, 64)
        small = evaluator.default_latency(L, 256)
        large = evaluator.default_latency(L, 1 << 16)
        assert small.algorithm == "recursive-doubling"
        assert large.algorithm == "ring"
        assert small.seconds > 0 and large.seconds > small.seconds

    def test_hierarchical_algorithm(self, evaluator, mid_cluster):
        L = block_bunch(mid_cluster, 64)
        rep = evaluator.default_latency(L, 256, hierarchical=True)
        assert rep.algorithm.startswith("hierarchical")

    def test_no_restore_cost(self, evaluator, mid_cluster):
        rep = evaluator.default_latency(block_bunch(mid_cluster, 64), 256)
        assert rep.restore_seconds == 0.0
        assert rep.strategy == "none"


class TestReorderedLatency:
    def test_cyclic_ring_improves_big_time(self, evaluator, mid_cluster):
        """The paper's headline effect: reordering rescues cyclic ring."""
        L = cyclic_scatter(mid_cluster, 64)
        base = evaluator.default_latency(L, 1 << 16)
        tuned = evaluator.reordered_latency(L, 1 << 16, "heuristic", "initcomm")
        assert tuned.seconds < 0.7 * base.seconds

    def test_block_ring_no_harm(self, evaluator, mid_cluster):
        """Paper goal 2: no degradation when the layout is already good."""
        L = block_bunch(mid_cluster, 64)
        base = evaluator.default_latency(L, 1 << 16)
        tuned = evaluator.reordered_latency(L, 1 << 16, "heuristic", "initcomm")
        assert tuned.seconds <= base.seconds * 1.05

    def test_ring_pays_no_restore(self, evaluator, mid_cluster):
        L = cyclic_scatter(mid_cluster, 64)
        rep = evaluator.reordered_latency(L, 1 << 16, "heuristic", "initcomm")
        assert rep.strategy in ("inline", "none")
        assert rep.restore_seconds == 0.0

    def test_rd_pays_restore(self, evaluator, mid_cluster):
        L = cyclic_scatter(mid_cluster, 64)
        ic = evaluator.reordered_latency(L, 256, "heuristic", "initcomm")
        es = evaluator.reordered_latency(L, 256, "heuristic", "endshfl")
        assert ic.strategy == "initcomm" and ic.restore_seconds > 0
        assert es.strategy == "endshfl" and es.restore_seconds > 0
        assert ic.collective_seconds == pytest.approx(es.collective_seconds)

    def test_reorder_overhead_reported(self, evaluator, mid_cluster):
        L = cyclic_scatter(mid_cluster, 64)
        rep = evaluator.reordered_latency(L, 256, "heuristic", "initcomm")
        assert rep.reorder_seconds > 0.0
        assert rep.mapper == "rdmh"

    def test_caching_is_stable(self, mid_cluster):
        ev = AllgatherEvaluator(mid_cluster, rng=0)
        L = cyclic_scatter(mid_cluster, 64)
        a = ev.reordered_latency(L, 256, "heuristic", "initcomm")
        b = ev.reordered_latency(L, 256, "heuristic", "initcomm")
        assert a.seconds == b.seconds  # cached reordering reused

    @pytest.mark.parametrize("kind", ["scotch", "greedy"])
    def test_baseline_mappers_run(self, evaluator, mid_cluster, kind):
        L = cyclic_scatter(mid_cluster, 64)
        rep = evaluator.reordered_latency(L, 256, kind, "initcomm")
        assert rep.seconds > 0


class TestPerSizeSharesBatchedCaches:
    """The one-size entry points run the batched pipeline, so they share
    its reorder cache, schedule cache and pricing LRU."""

    def test_repeat_default_latency_hits_pricing_lru(self, mid_cluster):
        ev = AllgatherEvaluator(mid_cluster, rng=0)
        L = block_bunch(mid_cluster, 64)
        assert ev.default_latency(L, 256) == ev.default_latency(L, 256)
        assert ev.engine.pricing_cache.misses == 1
        assert ev.engine.pricing_hits == 1

    def test_reordered_latency_reuses_the_batched_cell(self, mid_cluster):
        ev = AllgatherEvaluator(mid_cluster, rng=0)
        L = cyclic_scatter(mid_cluster, 64)
        sizes = [256, 1 << 16]
        batched = ev.reordered_latencies(L, sizes, "heuristic", "initcomm")
        misses, hits = ev.engine.pricing_cache.misses, ev.engine.pricing_hits
        for bb, rep in zip(sizes, batched):
            assert ev.reordered_latency(L, bb, "heuristic", "initcomm") == rep
        assert ev.engine.pricing_cache.misses == misses
        assert ev.engine.pricing_hits > hits


class TestHierarchicalReordered:
    @pytest.mark.parametrize("intra", ["binomial", "linear"])
    def test_runs_and_reports(self, evaluator, mid_cluster, intra):
        L = make_layout("block-scatter", mid_cluster, 64)
        rep = evaluator.reordered_latency(
            L, 256, "heuristic", "initcomm", hierarchical=True, intra=intra
        )
        assert rep.algorithm.startswith("hierarchical")
        assert rep.seconds > 0

    def test_hier_collective_no_harm(self, evaluator, mid_cluster):
        """The reordered hierarchical collective itself is never slower;
        at this miniature scale the one-round initComm cost can outweigh
        the gain, so only the collective part is asserted."""
        L = make_layout("block-scatter", mid_cluster, 64)
        base = evaluator.default_latency(L, 64, hierarchical=True)
        tuned = evaluator.reordered_latency(L, 64, "heuristic", "initcomm", hierarchical=True)
        assert tuned.collective_seconds <= base.collective_seconds * 1.05
        assert tuned.restore_seconds < base.seconds  # restore is one cheap round

    def test_world_mapping_is_valid_reordering(self, evaluator, mid_cluster):
        L = make_layout("block-scatter", mid_cluster, 64)
        ro, groups, overhead = evaluator._hierarchical_reordering(
            L, "heuristic", "binomial", "recursive-doubling", rng=0
        )
        assert sorted(ro.mapping.tolist()) == sorted(L.tolist())
        assert [len(g) for g in groups] == [8] * 8
        # groups stay node-aligned: each new group's cores share a node
        for g in groups:
            nodes = set(int(mid_cluster.node_of(ro.mapping[r])) for r in g)
            assert len(nodes) == 1
        assert overhead > 0


class TestGroupsFromLayout:
    def test_block_layout_groups(self, evaluator, mid_cluster):
        groups = evaluator.groups_from_layout(block_bunch(mid_cluster, 64))
        assert groups == [list(range(g * 8, (g + 1) * 8)) for g in range(8)]

    def test_cyclic_layout_groups(self, evaluator, mid_cluster):
        groups = evaluator.groups_from_layout(cyclic_scatter(mid_cluster, 64))
        assert groups[0] == list(range(0, 64, 8))


class TestImprovementPct:
    def test_sign_convention(self, evaluator, mid_cluster):
        L = cyclic_scatter(mid_cluster, 64)
        pct = evaluator.improvement_pct(L, 1 << 16)
        assert pct > 0  # reordering helps => positive improvement


class TestIntraHeuristicChoice:
    def test_bbmh_option_runs(self, mid_cluster):
        ev = AllgatherEvaluator(mid_cluster, intra_heuristic="bbmh", rng=0)
        L = make_layout("block-scatter", mid_cluster, 64)
        rep = ev.reordered_latency(L, 64, "heuristic", "initcomm", hierarchical=True)
        assert rep.seconds > 0

    def test_invalid_choice_rejected(self, mid_cluster):
        with pytest.raises(ValueError, match="intra_heuristic"):
            AllgatherEvaluator(mid_cluster, intra_heuristic="rdmh")

    def test_choices_can_differ(self, mid_cluster):
        import numpy as np

        rng = make_rng(3)
        L = make_layout("block-bunch", mid_cluster, 64).reshape(8, 8)
        for row in L:
            rng.shuffle(row)
        L = L.reshape(-1)
        a = AllgatherEvaluator(mid_cluster, intra_heuristic="bgmh", rng=0)
        b = AllgatherEvaluator(mid_cluster, intra_heuristic="bbmh", rng=0)
        ra, _, _ = a._hierarchical_reordering(L, "heuristic", "binomial", "recursive-doubling", rng=0)
        rb, _, _ = b._hierarchical_reordering(L, "heuristic", "binomial", "recursive-doubling", rng=0)
        # both valid; orders may differ (same tie-break seeds could coincide)
        assert sorted(ra.mapping.tolist()) == sorted(rb.mapping.tolist())


class TestSharedIntraPhase:
    """One batched call reorders the intra-node phase once for both leader
    patterns; its results must equal two calls that each need one."""

    @staticmethod
    def _layout(cluster):
        rng = make_rng(5)
        L = make_layout("block-bunch", cluster, 64).reshape(8, 8)
        for row in L:
            rng.shuffle(row)
        return L.reshape(-1)

    @pytest.mark.parametrize("kind", ["heuristic", "scotch"])
    @pytest.mark.parametrize("intra", ["binomial", "linear"])
    def test_both_leader_patterns_match_separate_calls(self, mid_cluster, kind, intra):
        L = self._layout(mid_cluster)
        both = AllgatherEvaluator(mid_cluster, rng=0)
        sizes = list(OSU_SIZES)
        reports = both.reordered_latencies(L, sizes, kind, hierarchical=True, intra=intra)
        assert {r.algorithm for r in reports} == {
            f"hierarchical[rd,{intra}]",
            f"hierarchical[ring,{intra}]",
        }
        small = [bb for bb in sizes if bb < both.rd_threshold]
        large = [bb for bb in sizes if bb >= both.rd_threshold]
        solo = {}
        for part in (small, large):
            ev = AllgatherEvaluator(mid_cluster, rng=0)
            reps = ev.reordered_latencies(L, part, kind, hierarchical=True, intra=intra)
            solo.update(zip(part, reps))
            for key, (ro, groups, _) in ev._reorder_cache.items():
                mine, my_groups, _ = both._reorder_cache[key]
                assert np.array_equal(mine.mapping, ro.mapping), key
                assert my_groups == groups, key
        for bb, rep in zip(sizes, reports):
            # reorder_seconds is measured wall clock; every other field is exact
            assert dataclasses.replace(rep, reorder_seconds=0.0) == dataclasses.replace(
                solo[bb], reorder_seconds=0.0
            ), bb
        assert len(both._reorder_cache) == 2


class TestNonPowerOfTwo:
    def test_bruck_path_with_bruckmh(self, mid_cluster):
        """Non-power-of-two communicators route small messages through
        Bruck and the BruckMH heuristic (the §VII extension)."""
        ev = AllgatherEvaluator(mid_cluster, rng=0)
        L = cyclic_scatter(mid_cluster, 48)
        base = ev.default_latency(L, 256)
        tuned = ev.reordered_latency(L, 256, "heuristic", "endshfl")
        assert base.algorithm == "bruck"
        assert tuned.mapper == "bruckmh"
        assert tuned.collective_seconds < base.seconds

    def test_ring_path_any_p(self, mid_cluster):
        ev = AllgatherEvaluator(mid_cluster, rng=0)
        L = cyclic_scatter(mid_cluster, 48)
        rep = ev.reordered_latency(L, 1 << 16, "heuristic", "initcomm")
        assert rep.mapper == "rmh"
