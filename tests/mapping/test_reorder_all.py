"""Batched multi-heuristic driver: reorder_all vs. sequential reorder_ranks.

The batched driver must be a pure amortisation — identical mappings,
identical cache entries (a sequential caller later hits what the batch
stored and vice versa), identical rng-stream consumption for shared
Generators — or the evaluator, the sweep cells and fault recovery would
diverge from the per-pattern reference paths they replaced.
"""

import time

import numpy as np
import pytest

from repro.mapping.base import HierarchicalFreePool
from repro.mapping.cache import MAPPING_CACHE_SIZE
from repro.mapping.initial import make_layout
from repro.mapping.reorder import HEURISTICS, reorder_all, reorder_ranks
from repro.topology.gpc import gpc_cluster
from repro.util.lru import LRU
from repro.util.rng import make_rng


class TestReorderAllEquality:
    def test_matches_sequential_int_seed(self, mid_cluster):
        impl = mid_cluster.implicit_distances()
        L = make_layout("cyclic-bunch", mid_cluster, 64)
        batch = reorder_all(L, impl, rng=3, cache="off")
        assert list(batch) == list(HEURISTICS)
        for pattern in HEURISTICS:
            solo = reorder_ranks(pattern, L, impl, rng=3, cache="off")
            assert np.array_equal(batch[pattern].mapping, solo.mapping), pattern
            assert batch[pattern].pattern == pattern
            assert batch[pattern].mapper_name == solo.mapper_name
            assert batch[pattern].graph_seconds == 0.0

    def test_matches_sequential_shared_generator(self, mid_cluster):
        """A live Generator is consumed in pattern order, exactly as the
        equivalent sequence of solo calls would consume it."""
        impl = mid_cluster.implicit_distances()
        L = make_layout("block-scatter", mid_cluster, 64)
        patterns = sorted(HEURISTICS)
        g_batch = make_rng(11)
        g_solo = make_rng(11)
        batch = reorder_all(L, impl, patterns=patterns, rng=g_batch, cache="off")
        for pattern in patterns:
            solo = reorder_ranks(pattern, L, impl, rng=g_solo, cache="off")
            assert np.array_equal(batch[pattern].mapping, solo.mapping), pattern
        assert g_batch.integers(1 << 30) == g_solo.integers(1 << 30)

    def test_per_pattern_rng_mapping(self, mid_cluster):
        impl = mid_cluster.implicit_distances()
        L = make_layout("cyclic-scatter", mid_cluster, 32)
        patterns = ["ring", "bruck"]
        seeds = {"ring": 5, "bruck": 17}
        batch = reorder_all(L, impl, patterns=patterns, rng=seeds, cache="off")
        for pattern in patterns:
            solo = reorder_ranks(pattern, L, impl, rng=seeds[pattern], cache="off")
            assert np.array_equal(batch[pattern].mapping, solo.mapping), pattern

    def test_rng_mapping_missing_pattern(self, mid_cluster):
        impl = mid_cluster.implicit_distances()
        L = make_layout("block-bunch", mid_cluster, 16)
        with pytest.raises(KeyError, match="rng mapping lacks"):
            reorder_all(L, impl, patterns=["ring", "bruck"], rng={"ring": 1})

    def test_unknown_pattern(self, mid_cluster):
        impl = mid_cluster.implicit_distances()
        L = make_layout("block-bunch", mid_cluster, 16)
        with pytest.raises(KeyError, match="nope"):
            reorder_all(L, impl, patterns=["nope"])


class TestReorderAllCache:
    def test_batch_entries_hit_from_sequential_path(self, mid_cluster):
        """Entries stored by the batch are exactly what solo calls look up."""
        impl = mid_cluster.implicit_distances()
        L = make_layout("cyclic-bunch", mid_cluster, 64)
        cache = LRU(MAPPING_CACHE_SIZE)
        batch = reorder_all(L, impl, rng=0, cache=cache)
        assert all(not r.cached for r in batch.values())
        assert cache.misses == len(HEURISTICS)
        for pattern in HEURISTICS:
            solo = reorder_ranks(pattern, L, impl, rng=0, cache=cache)
            assert solo.cached, pattern
            assert np.array_equal(solo.mapping, batch[pattern].mapping)

    def test_sequential_entries_hit_from_batch_path(self, mid_cluster):
        impl = mid_cluster.implicit_distances()
        L = make_layout("block-bunch", mid_cluster, 64)
        cache = LRU(MAPPING_CACHE_SIZE)
        solos = {
            pt: reorder_ranks(pt, L, impl, rng=4, cache=cache) for pt in HEURISTICS
        }
        hits_before = cache.hits
        batch = reorder_all(L, impl, rng=4, cache=cache)
        assert cache.hits == hits_before + len(HEURISTICS)
        for pattern in HEURISTICS:
            assert batch[pattern].cached, pattern
            assert np.array_equal(batch[pattern].mapping, solos[pattern].mapping)

    def test_mixed_hits_and_misses(self, mid_cluster):
        """A batch with a partial cache maps only the missing patterns."""
        impl = mid_cluster.implicit_distances()
        L = make_layout("cyclic-scatter", mid_cluster, 64)
        cache = LRU(MAPPING_CACHE_SIZE)
        reorder_ranks("ring", L, impl, rng=2, cache=cache)
        batch = reorder_all(L, impl, patterns=["ring", "bruck"], rng=2, cache=cache)
        assert batch["ring"].cached
        assert not batch["bruck"].cached
        solo = reorder_ranks("bruck", L, impl, rng=2, cache="off")
        assert np.array_equal(batch["bruck"].mapping, solo.mapping)

    def test_generator_rng_bypasses_cache(self, mid_cluster):
        impl = mid_cluster.implicit_distances()
        L = make_layout("block-bunch", mid_cluster, 32)
        cache = LRU(MAPPING_CACHE_SIZE)
        reorder_all(L, impl, patterns=["ring"], rng=make_rng(0), cache=cache)
        assert cache.hits == 0 and cache.misses == 0


class TestReorderAllTiming:
    def test_pool_structure_built_once_per_batch(self):
        """The first mapper's map builds the structure; the rest hit it."""
        cluster = gpc_cluster(n_nodes=8)
        impl = cluster.implicit_distances()
        L = make_layout("block-bunch", cluster, 64)
        reorder_all(L, impl, rng=0, cache="off")
        st = HierarchicalFreePool._structure_caches[impl].stats()
        assert (st["misses"], st["hits"]) == (1, len(HEURISTICS) - 1)

    def test_pool_warm_up_charged_to_first_pattern(self, mid_cluster, monkeypatch):
        """The first mapper's map builds the shared pool structure; a
        standalone map would pay that setup itself, so the first
        result's map_seconds must include it."""
        impl = mid_cluster.implicit_distances()
        L = make_layout("block-bunch", mid_cluster, 64)
        structure_for = HierarchicalFreePool._structure_for.__func__
        calls = []

        def slow_first_call(cls, backend, cores):
            if not calls:
                time.sleep(0.1)
            calls.append(1)
            return structure_for(cls, backend, cores)

        monkeypatch.setattr(
            HierarchicalFreePool, "_structure_for", classmethod(slow_first_call)
        )
        batch = reorder_all(L, impl, patterns=["ring", "bruck"], rng=0, cache="off")
        assert batch["ring"].map_seconds >= 0.1
