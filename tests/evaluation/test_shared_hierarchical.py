"""Hierarchical reorderings in the process-wide mapping cache.

A hierarchical world reordering depends only on the topology, the
layout, the mapper kind, the intra-node phase and heuristic, the leader
pattern and the seed, so the mapping cache keeps it under those fields:
a fresh evaluator on an equal cluster maps nothing, and evaluators that
differ in any of them keep their own reorderings.
"""

import numpy as np
import pytest

from repro.bench.microbench import OSU_SIZES
from repro.evaluation import evaluator as evaluator_mod
from repro.evaluation.evaluator import AllgatherEvaluator, _layout_key, _seed_for
from repro.mapping import base
from repro.mapping.cache import global_mapping_cache
from repro.mapping.initial import make_layout
from repro.topology.cluster import DEFAULT_DISTANCE_WEIGHTS, ClusterTopology, LinkClass
from repro.topology.gpc import gpc_cluster

SIZES = list(OSU_SIZES)
STRATEGIES = ("initcomm", "endshfl")
LEADER_PATTERNS = ("recursive-doubling", "ring")


def _layout(cluster):
    return make_layout("block-scatter", cluster, cluster.n_cores)


def _grid(ev, L, kind="heuristic", intra="binomial", sizes=SIZES):
    """Reports of both strategies over ``sizes``, hierarchical."""
    return [
        ev.reordered_latencies(L, sizes, kind, strategy, hierarchical=True, intra=intra)
        for strategy in STRATEGIES
    ]


def _traffic(before):
    after = global_mapping_cache().stats()
    return after["hits"] - before["hits"], after["misses"] - before["misses"]


def _mappings(ev):
    """Leader pattern -> world mapping of every hierarchical memo entry."""
    return {key[1]: res.mapping for key, res in ev._reorder_cache.items() if key[0] == "hier"}


def _refuse(*args, **kwargs):
    raise AssertionError("a reordering was mapped again")


@pytest.mark.parametrize("kind", ["heuristic", "scotch"])
def test_fresh_evaluator_on_an_equal_cluster_maps_nothing(kind, empty_mapping_cache, monkeypatch):
    first = AllgatherEvaluator(gpc_cluster(n_nodes=8), rng=0)
    L = _layout(first.cluster)
    before = global_mapping_cache().stats()
    expected = _grid(first, L, kind)
    assert _traffic(before) == (0, len(LEADER_PATTERNS))

    monkeypatch.setattr(base.Mapper, "map_groups", _refuse)
    monkeypatch.setattr(base.GreedyPlacementMapper, "map_groups", _refuse)
    monkeypatch.setattr(base._PoolStructure, "__init__", _refuse)
    monkeypatch.setattr(evaluator_mod, "reorder_ranks", _refuse)
    fresh = AllgatherEvaluator(gpc_cluster(n_nodes=8), rng=0)
    before = global_mapping_cache().stats()
    # reorder_seconds included: a hit carries the original computation's
    assert _grid(fresh, L, kind) == expected
    assert _traffic(before) == (len(LEADER_PATTERNS), 0)  # one hit per leader pattern
    assert all(res.cached for res in fresh._reorder_cache.values())
    assert _grid(fresh, L, kind) == expected
    assert _traffic(before) == (len(LEADER_PATTERNS), 0)  # repeats stay in the memo


def _weighted_cluster():
    weights = dict(DEFAULT_DISTANCE_WEIGHTS)
    weights[LinkClass.HCA] += 1.0
    shape = gpc_cluster(n_nodes=8)
    return ClusterTopology(8, shape.machine, shape.network, distance_weights=weights)


VARIANTS = {
    "intra_heuristic": (lambda: AllgatherEvaluator(gpc_cluster(n_nodes=8), intra_heuristic="bbmh"),
                        {}),
    "intra": (lambda: AllgatherEvaluator(gpc_cluster(n_nodes=8)), {"intra": "linear"}),
    "kind": (lambda: AllgatherEvaluator(gpc_cluster(n_nodes=8)), {"kind": "scotch"}),
    "weights": (lambda: AllgatherEvaluator(_weighted_cluster()), {}),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_no_sharing_across_differences(variant, empty_mapping_cache):
    ev = AllgatherEvaluator(gpc_cluster(n_nodes=8))
    L = _layout(ev.cluster)
    _grid(ev, L)
    make, call = VARIANTS[variant]
    other = make()
    before = global_mapping_cache().stats()
    _grid(other, L, **call)
    assert _traffic(before) == (0, len(LEADER_PATTERNS))
    assert not any(res.cached for res in other._reorder_cache.values())


def test_bgmh_and_bbmh_keep_their_own_mappings(empty_mapping_cache):
    L = _layout(gpc_cluster(n_nodes=8))
    seed = _seed_for("reorder", _layout_key(L), "heuristic", True, "binomial")
    worlds = {}
    for heuristic in ("bgmh", "bbmh"):
        ev = AllgatherEvaluator(gpc_cluster(n_nodes=8), intra_heuristic=heuristic)
        _grid(ev, L)
        worlds[heuristic] = got = _mappings(ev)
        for pattern in LEADER_PATTERNS:
            oracle, _, _ = ev._hierarchical_reordering(L, "heuristic", "binomial", pattern, seed)
            assert np.array_equal(got[pattern], oracle.mapping), (heuristic, pattern)
    for pattern in LEADER_PATTERNS:
        assert not np.array_equal(worlds["bgmh"][pattern], worlds["bbmh"][pattern]), pattern


@pytest.mark.parametrize("second", ["ring-only", "both"])
def test_partial_hit_reruns_the_intra_pass(second, empty_mapping_cache):
    cluster = gpc_cluster(n_nodes=8)
    L = _layout(cluster)
    small = [bb for bb in SIZES if bb < AllgatherEvaluator(cluster).rd_threshold]
    large = [bb for bb in SIZES if bb not in small]

    both = AllgatherEvaluator(cluster)
    _grid(both, L)
    expected = _mappings(both)

    empty_mapping_cache()
    _grid(AllgatherEvaluator(cluster), L, sizes=small)  # keeps the rd entry only
    fresh = AllgatherEvaluator(cluster)
    before = global_mapping_cache().stats()
    _grid(fresh, L, sizes=large if second == "ring-only" else SIZES)
    got = _mappings(fresh)
    assert _traffic(before) == ((0, 1) if second == "ring-only" else (1, 1))
    assert sorted(got) == (["ring"] if second == "ring-only" else sorted(LEADER_PATTERNS))
    for pattern, mapping in got.items():
        assert np.array_equal(mapping, expected[pattern]), pattern
