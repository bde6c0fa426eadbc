"""Algorithm-selection registry tests (MVAPICH-like policy) and the schedule memo."""

import numpy as np
import pytest

from repro.collectives.registry import (
    DEFAULT_RD_THRESHOLD_BYTES,
    compiled_schedule,
    hierarchical_schedule,
    make_algorithm,
    pattern_of,
    registered_algorithm_names,
    schedule_memo_stats,
    select_allgather,
    select_hierarchical_allgather,
)
from repro.collectives.allgather_bruck import BruckAllgather
from repro.collectives.allgather_rd import RecursiveDoublingAllgather
from repro.collectives.allgather_ring import RingAllgather
from repro.collectives.bcast_binomial import BinomialBroadcast
from repro.collectives.hierarchical import HierarchicalAllgather, contiguous_groups
from repro.collectives.scatter_allgather import ScatterAllgatherBroadcast
from repro.util.rng import make_rng


class TestSelectAllgather:
    def test_small_pow2_uses_rd(self):
        assert isinstance(select_allgather(64, 256), RecursiveDoublingAllgather)

    def test_small_non_pow2_uses_bruck(self):
        assert isinstance(select_allgather(48, 256), BruckAllgather)

    def test_large_uses_ring(self):
        assert isinstance(select_allgather(64, 1 << 16), RingAllgather)
        assert isinstance(select_allgather(48, 1 << 16), RingAllgather)

    def test_threshold_boundary(self):
        assert isinstance(
            select_allgather(64, DEFAULT_RD_THRESHOLD_BYTES - 1), RecursiveDoublingAllgather
        )
        assert isinstance(select_allgather(64, DEFAULT_RD_THRESHOLD_BYTES), RingAllgather)

    def test_custom_threshold(self):
        assert isinstance(select_allgather(64, 4096, rd_threshold=8192), RecursiveDoublingAllgather)

    def test_tiny_comm_rejected(self):
        with pytest.raises(ValueError):
            select_allgather(1, 64)


class TestSelectHierarchical:
    def test_rd_leaders_for_small_messages(self):
        alg = select_hierarchical_allgather(contiguous_groups(32, 8), 256)
        assert alg.leader_alg == "rd"

    def test_ring_leaders_for_large_messages(self):
        alg = select_hierarchical_allgather(contiguous_groups(32, 8), 1 << 16)
        assert alg.leader_alg == "ring"

    def test_ring_leaders_for_non_pow2_groups(self):
        alg = select_hierarchical_allgather(contiguous_groups(24, 8), 256)
        assert alg.leader_alg == "ring"

    def test_intra_forwarded(self):
        alg = select_hierarchical_allgather(contiguous_groups(32, 8), 256, intra="linear")
        assert alg.intra == "linear"


class TestPatternOf:
    def test_known_patterns(self):
        assert pattern_of(RecursiveDoublingAllgather()) == "recursive-doubling"
        assert pattern_of(RingAllgather()) == "ring"
        assert pattern_of(BruckAllgather()) == "bruck"
        assert pattern_of(BinomialBroadcast()) == "binomial-bcast"

    def test_parametrised_names_resolve(self):
        from repro.collectives.allreduce import RecursiveDoublingAllreduce

        assert pattern_of(RecursiveDoublingAllreduce()) == "recursive-doubling"

    def test_unknown_rejected(self):
        class Weird:
            name = "weird"

        with pytest.raises(KeyError):
            pattern_of(Weird())


def _same_schedule(a, b):
    """Field-by-field equality of two schedules, arrays included."""
    assert (a.p, a.name, a.local_copy_units, len(a.stages)) == (
        b.p, b.name, b.local_copy_units, len(b.stages)
    )
    for x, y in zip(a.stages, b.stages):
        assert (x.repeat, x.label) == (y.repeat, y.label)
        for field in ("src", "dst", "units"):
            assert np.array_equal(getattr(x, field), getattr(y, field)), field
    return a.digest == b.digest


class TestCompiledSchedule:
    @pytest.mark.parametrize("name", registered_algorithm_names())
    def test_registered_names_build_bare_and_name_themselves(self, name):
        assert make_algorithm(name).name == name

    @pytest.mark.parametrize("name", registered_algorithm_names())
    def test_matches_a_fresh_build(self, name):
        p = 16
        sched = compiled_schedule(name, p)
        assert _same_schedule(sched, make_algorithm(name).schedule(p))

    @pytest.mark.parametrize("name", ["ring", "bruck", "binomial-gather"])
    def test_repeat_returns_the_same_object_and_digest(self, name):
        first = compiled_schedule(name, 24)
        digest = first.digest
        again = compiled_schedule(name, 24)
        assert again is first
        assert again.digest is digest  # hashed once, then kept

    def test_counters(self):
        before = schedule_memo_stats()
        assert set(before) == {"entries", "capacity", "hits", "misses", "evictions"}
        assert before["capacity"] == 64
        compiled_schedule("ring", 26)
        compiled_schedule("ring", 26)
        after = schedule_memo_stats()
        assert after["hits"] - before["hits"] >= 1
        assert after["entries"] <= after["capacity"]

    @pytest.mark.parametrize("kind", ["rd", "ring"])
    def test_scatter_allgather_broadcasts_served_by_name(self, kind):
        """Their names encode their one argument; they stay unregistered."""
        name = f"scatter-allgather-bcast[{kind}]"
        assert name not in registered_algorithm_names()
        sched = compiled_schedule(name, 16)
        assert compiled_schedule(name, 16) is sched
        assert _same_schedule(sched, ScatterAllgatherBroadcast(kind).schedule(16))

    def test_unknown_name_and_bad_p_store_nothing(self):
        before = schedule_memo_stats()
        with pytest.raises(KeyError):
            compiled_schedule("no-such-algorithm", 8)
        with pytest.raises(ValueError):
            compiled_schedule("recursive-doubling", 12)
        assert schedule_memo_stats() == before


class TestHierarchicalSchedule:
    RANKS = np.array([3, 0, 1, 2, 7, 4, 5, 6], dtype=np.int64)
    SIZES = (4, 4)

    def test_equal_partition_from_fresh_arrays_is_one_object(self):
        a = hierarchical_schedule(self.RANKS.copy(), list(self.SIZES), "rd", "binomial")
        b = hierarchical_schedule(
            self.RANKS.astype(np.int32), np.array(self.SIZES), "rd", "binomial"
        )
        assert a is b

    @pytest.mark.parametrize(
        "change",
        [
            {"ranks": np.array([0, 3, 1, 2, 7, 4, 5, 6])},
            {"sizes": (2, 6)},
            {"leader_alg": "ring"},
            {"intra": "linear"},
        ],
    )
    def test_every_part_of_the_key_matters(self, change):
        base = dict(ranks=self.RANKS, sizes=self.SIZES, leader_alg="rd", intra="binomial")
        a = hierarchical_schedule(**base)
        base.update(change)
        b = hierarchical_schedule(**base)
        assert b is not a and b.digest != a.digest
        alg = HierarchicalAllgather.from_partition(
            base["ranks"], base["sizes"], base["leader_alg"], base["intra"]
        )
        assert _same_schedule(b, alg.schedule(alg.p))

    @pytest.mark.parametrize("sizes", [(3, 5), (5, 3)])
    @pytest.mark.parametrize("contiguous_first", [True, False])
    def test_contiguous_and_permuted_partitions_differ(self, sizes, contiguous_first):
        """A contiguous partition is keyed on its sizes alone; a permuted
        one with equal sizes still gets its own schedule."""
        ranks = {"contiguous": np.arange(8), "permuted": self.RANKS}
        order = ["contiguous", "permuted"] if contiguous_first else ["permuted", "contiguous"]
        got = {k: hierarchical_schedule(ranks[k], sizes, "ring", "binomial") for k in order}
        assert got["contiguous"] is not got["permuted"]
        assert got["contiguous"].digest != got["permuted"].digest
        for k, sched in got.items():
            assert hierarchical_schedule(ranks[k].copy(), sizes, "ring", "binomial") is sched
            alg = HierarchicalAllgather.from_partition(ranks[k], sizes, "ring", "binomial")
            assert _same_schedule(sched, alg.schedule(8))

    def test_contiguous_ranks_not_covered_by_sizes_are_refused(self):
        hierarchical_schedule(np.arange(8), (4, 4), "rd", "binomial")
        with pytest.raises(ValueError, match="partition"):
            hierarchical_schedule(np.arange(9), (4, 4), "rd", "binomial")

    @pytest.mark.parametrize("leader_alg", ["rd", "ring"])
    @pytest.mark.parametrize("intra", ["binomial", "linear"])
    def test_mixed_group_sizes_match_from_partition(self, leader_alg, intra):
        sizes = (1, 3, 8, 3) if leader_alg == "rd" else (1, 3, 8)
        p = sum(sizes)
        ranks = make_rng(7).permutation(p)
        sched = hierarchical_schedule(ranks, sizes, leader_alg, intra)
        alg = HierarchicalAllgather.from_partition(ranks, sizes, leader_alg, intra)
        assert _same_schedule(sched, alg.schedule(p))

