"""Pinned Fig. 4 hierarchical reorderings at p = 4096 (512 GPC nodes).

The hierarchical pipeline maps each node's cores with one intra-node
``Mapper.map`` call, then reorders the node leaders.  Both leader
patterns start from a copy of the generator the intra pass leaves
behind (``AllgatherEvaluator._hierarchical_reordered_batch``).  These
digests freeze every world mapping and every generator state of that
pipeline for the Fig. 4 layouts, so a change to the per-node maps that
moves one core or one draw fails here.
"""

import copy
import hashlib

import numpy as np
import pytest

from repro.evaluation.evaluator import AllgatherEvaluator, _layout_key, _seed_for
from repro.mapping.initial import make_layout
from repro.topology.gpc import gpc_cluster
from repro.util.rng import make_rng

#: The generator's next ``integers(1 << 62)`` after the intra pass, by
#: (layout, mapper).
NEXT_DRAW_AFTER_INTRA = {
    ("block-bunch", "heuristic"): 273980996552031632,
    ("block-bunch", "scotch"): 4115305347440746991,
    ("block-scatter", "heuristic"): 3082352391312407849,
    ("block-scatter", "scotch"): 662309393931157665,
}

#: sha1 of the world mapping (little-endian int64) and the generator's
#: next ``integers(1 << 62)`` after the leader reorder, by (layout,
#: mapper, leader pattern).
WORLD_MAPPINGS = {
    ("block-bunch", "heuristic", "recursive-doubling"):
        ("38d651305cc7708da5850f4eaa49f3074da9a07b", 52378126288300974),
    ("block-bunch", "heuristic", "ring"):
        ("2c981e5f44a30206753fb9c7586b985f7b6e62ff", 52378126288300974),
    ("block-bunch", "scotch", "recursive-doubling"):
        ("4d2885bf9f66dfe15599bf658162e2bf2b9dd196", 4115305347440746991),
    ("block-bunch", "scotch", "ring"):
        ("2feb02b39f2957227a246e64c39182407acd7a64", 4115305347440746991),
    ("block-scatter", "heuristic", "recursive-doubling"):
        ("226571e5fb2e62ac21d72e0decce39a3cbc6ed76", 2438544550478029635),
    ("block-scatter", "heuristic", "ring"):
        ("080b4baa0656d10e50a861b862cce939af336130", 2438544550478029635),
    ("block-scatter", "scotch", "recursive-doubling"):
        ("4d2885bf9f66dfe15599bf658162e2bf2b9dd196", 662309393931157665),
    ("block-scatter", "scotch", "ring"):
        ("2feb02b39f2957227a246e64c39182407acd7a64", 662309393931157665),
}


@pytest.mark.slow
def test_fig4_hierarchical_reorderings_p4096_pinned():
    """Intra-node plus leader reorderings, both leader patterns (~1.2 s CPU)."""
    cluster = gpc_cluster(n_nodes=512)
    ev = AllgatherEvaluator(cluster, rng=0)
    p = cluster.n_cores
    after_intra, worlds = {}, {}
    for name in ("block-bunch", "block-scatter"):
        L = make_layout(name, cluster, p)
        groups = ev.groups_from_layout(L)
        for kind in ("heuristic", "scotch"):
            # the seed and generator hand-off of the evaluator's pipeline
            gen = make_rng(_seed_for("reorder", _layout_key(L), kind, True, "binomial"))
            per_group, _ = ev._intra_reordering(L, groups, kind, "binomial", gen)
            after_intra[(name, kind)] = int(copy.deepcopy(gen).integers(1 << 62))
            for pattern in ("recursive-doubling", "ring"):
                g = copy.deepcopy(gen)
                world, _, _ = ev._leader_reordering(L, per_group, kind, pattern, g, 0.0)
                mapping = np.ascontiguousarray(world.mapping, dtype="<i8")
                worlds[(name, kind, pattern)] = (
                    hashlib.sha1(mapping.tobytes()).hexdigest(),
                    int(g.integers(1 << 62)),
                )
    assert after_intra == NEXT_DRAW_AFTER_INTRA
    assert worlds == WORLD_MAPPINGS
