"""Order-restoration tests (paper §V-B) — the heart of reordering safety."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.allgather_bruck import BruckAllgather
from repro.collectives.allgather_rd import RecursiveDoublingAllgather
from repro.collectives.allgather_ring import RingAllgather
from repro.collectives.correctness import (
    OrderStrategy,
    RankReordering,
    end_shuffle_seconds,
    execute_reordered_allgather,
    init_comm_stage,
)
from repro.collectives.hierarchical import HierarchicalAllgather, contiguous_groups
from repro.simmpi.costmodel import CostModel
from repro.util.rng import make_rng
from repro.util.validation import PY_SCAN_MAX


def reordering_from_perm(perm):
    """Layout = identity cores; mapping permutes them."""
    layout = np.arange(len(perm), dtype=np.int64)
    return RankReordering(layout=layout, mapping=np.asarray(perm, dtype=np.int64))


class TestRankReordering:
    def test_identity(self):
        ro = RankReordering.identity(np.array([4, 5, 6, 7]))
        assert ro.is_identity()
        assert ro.n_displaced() == 0
        assert np.array_equal(ro.old_of_new, np.arange(4))

    def test_inverse_consistency(self):
        ro = reordering_from_perm([2, 0, 3, 1])
        assert np.array_equal(ro.new_of_old[ro.old_of_new], np.arange(4))
        assert np.array_equal(ro.old_of_new[ro.new_of_old], np.arange(4))

    def test_nontrivial_layout(self):
        """Reordering over non-identity core labels still inverts correctly."""
        layout = np.array([10, 30, 20, 40])
        mapping = np.array([30, 10, 40, 20])
        ro = RankReordering(layout=layout, mapping=mapping)
        # new rank 0 runs on core 30, which hosted old rank 1
        assert ro.old_of_new[0] == 1
        assert ro.new_of_old[1] == 0

    def test_core_set_mismatch_rejected(self):
        # both sides of the list-sort / np.sort size gate
        for p in (2, 1024):
            layout = np.arange(p)
            mapping = layout.copy()
            mapping[-1] = p
            with pytest.raises(ValueError, match="cores"):
                RankReordering(layout=layout, mapping=mapping)
            mapping[-1] = 0  # core 0 twice, core p - 1 missing
            with pytest.raises(ValueError, match="cores"):
                RankReordering(layout=layout, mapping=mapping)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RankReordering(layout=np.array([0, 1, 2]), mapping=np.array([0, 1]))

    def test_foreign_cores_rejected(self):
        with pytest.raises(ValueError, match="cores"):
            RankReordering(layout=[5, 6], mapping=[0, 1])

    def test_non_permutation_rejected(self):
        for mapping, layout in (([5, 5], [5, 6]), ([5, 6, 7], [5, 6])):
            with pytest.raises(ValueError):
                RankReordering(layout=np.array(layout), mapping=np.array(mapping))

    @pytest.mark.parametrize("p", [4, PY_SCAN_MAX, PY_SCAN_MAX + 1, 1024])
    def test_repeated_core_rejected(self, p):
        # Both sides of the list-sort / np.sort gate: a layout that
        # repeats a core has no consistent inverse, whatever the mapping.
        layout = np.arange(p)
        layout[1] = layout[0]
        with pytest.raises(ValueError, match="each once"):
            RankReordering(layout=layout, mapping=layout[::-1])
        with pytest.raises(ValueError, match="each once"):
            RankReordering(layout=layout, mapping=layout.copy())

    def test_repeated_core_reported_cases(self):
        for layout, mapping in (([0, 0, 1], [0, 1, 0]), ([3, 3, 5, 5], [3, 3, 5, 5])):
            with pytest.raises(ValueError, match="each once"):
                RankReordering(layout=np.array(layout), mapping=np.array(mapping))

    def test_identity_refuses_repeated_core(self):
        with pytest.raises(ValueError, match="each once"):
            RankReordering.identity(np.array([3, 3, 5, 5]))

    def test_arrays_read_only(self):
        layout = np.array([3, 1, 2])
        ro = RankReordering(layout=layout, mapping=[2, 1, 3])
        assert ro.layout.dtype == np.int64 and ro.mapping.dtype == np.int64
        assert ro.layout is layout  # frozen in place, not copied
        for arr in (ro.layout, ro.mapping, ro.old_of_new, ro.new_of_old):
            with pytest.raises(ValueError):
                arr[0] = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            ro.mapping = np.array([1, 2, 3])

    def test_view_is_copied(self):
        base = np.arange(8)
        ro = RankReordering(layout=base[:4], mapping=[3, 2, 1, 0])
        base[0] = 99  # the view's base stays writable and the caller's
        assert ro.layout.tolist() == [0, 1, 2, 3]

    def test_inverse_built_on_first_use_and_kept(self):
        ro = reordering_from_perm([2, 0, 1, 3])
        # Counting displaced ranks needs no inverse.
        assert ro.n_displaced() == 3 and not ro.is_identity()
        assert {"old_of_new", "new_of_old"}.isdisjoint(vars(ro))
        assert ro.old_of_new is ro.old_of_new and ro.new_of_old is ro.new_of_old
        assert {"old_of_new", "new_of_old"} <= set(vars(ro))
        assert ro.n_displaced() == int(np.count_nonzero(ro.old_of_new != np.arange(4)))


class TestInitCommStage:
    def test_identity_gives_none(self):
        assert init_comm_stage(RankReordering.identity(np.arange(8))) is None

    def test_stage_contents(self):
        ro = reordering_from_perm([1, 0, 2, 3])  # ranks 0 and 1 swapped
        stage = init_comm_stage(ro)
        assert stage.n_messages == 2
        # block b flows from its holder (new rank new_of_old[b]) to rank b,
        # one unit each: the message to rank d carries block d
        msgs = {(int(s), int(d), float(u)) for s, d, u in zip(stage.src, stage.dst, stage.units)}
        assert msgs == {(1, 0, 1.0), (0, 1, 1.0)}
        assert np.array_equal(stage.src, ro.new_of_old[stage.dst])

    def test_all_messages_single_block(self):
        ro = reordering_from_perm([3, 2, 1, 0])
        stage = init_comm_stage(ro)
        assert np.all(stage.units == 1.0)


class TestEndShuffleSeconds:
    def test_identity_free(self):
        assert end_shuffle_seconds(RankReordering.identity(np.arange(4)), 1024, CostModel()) == 0.0

    def test_scales_with_displaced_count(self):
        cm = CostModel()
        two = end_shuffle_seconds(reordering_from_perm([1, 0, 2, 3]), 1024, cm)
        four = end_shuffle_seconds(reordering_from_perm([1, 0, 3, 2]), 1024, cm)
        assert four == pytest.approx(2 * two)

    def test_has_per_block_overhead(self):
        """Small blocks still pay the per-move cost (the Fig. 3 endShfl dips)."""
        cm = CostModel()
        tiny = end_shuffle_seconds(reordering_from_perm([1, 0, 2, 3]), 1, cm)
        assert tiny >= 2 * cm.copy_alpha


class TestExecuteReordered:
    PAYLOAD = staticmethod(lambda o: o * 1000003 + 7)

    def assert_ordered(self, out, p):
        expected = np.array([self.PAYLOAD(j) for j in range(p)])
        assert np.array_equal(out, np.broadcast_to(expected, (p, p)))

    @pytest.mark.parametrize("strategy", ["initcomm", "endshfl"])
    @pytest.mark.parametrize("alg", [RecursiveDoublingAllgather(), BruckAllgather()])
    def test_rd_bruck_strategies(self, alg, strategy):
        rng = make_rng(3)
        ro = reordering_from_perm(rng.permutation(16))
        out = execute_reordered_allgather(alg, ro, strategy)
        self.assert_ordered(out, 16)

    def test_ring_inline(self):
        rng = make_rng(4)
        ro = reordering_from_perm(rng.permutation(12))
        out = execute_reordered_allgather(RingAllgather(), ro, "inline")
        self.assert_ordered(out, 12)

    def test_hierarchical_reordered(self):
        rng = make_rng(5)
        ro = reordering_from_perm(rng.permutation(16))
        alg = HierarchicalAllgather(contiguous_groups(16, 4), "rd", "binomial")
        for strategy in ("initcomm", "endshfl"):
            out = execute_reordered_allgather(alg, ro, strategy)
            self.assert_ordered(out, 16)

    def test_inline_rejected_for_rd(self):
        ro = reordering_from_perm([1, 0, 2, 3])
        with pytest.raises(ValueError, match="inline placement"):
            execute_reordered_allgather(RecursiveDoublingAllgather(), ro, "inline")

    def test_none_rejected_for_real_reordering(self):
        ro = reordering_from_perm([1, 0, 2, 3])
        with pytest.raises(ValueError, match="identity"):
            execute_reordered_allgather(RingAllgather(), ro, "none")

    def test_none_ok_for_identity(self):
        ro = RankReordering.identity(np.arange(8))
        out = execute_reordered_allgather(RingAllgather(), ro, "none")
        self.assert_ordered(out, 8)

    @settings(max_examples=25, deadline=None)
    @given(perm=st.permutations(list(range(8))))
    def test_property_rd_initcomm(self, perm):
        out = execute_reordered_allgather(
            RecursiveDoublingAllgather(), reordering_from_perm(perm), "initcomm"
        )
        self.assert_ordered(out, 8)

    @settings(max_examples=25, deadline=None)
    @given(perm=st.permutations(list(range(9))))
    def test_property_ring_inline(self, perm):
        out = execute_reordered_allgather(
            RingAllgather(), reordering_from_perm(perm), "inline"
        )
        self.assert_ordered(out, 9)

    @settings(max_examples=25, deadline=None)
    @given(perm=st.permutations(list(range(10))))
    def test_property_bruck_endshfl(self, perm):
        out = execute_reordered_allgather(
            BruckAllgather(), reordering_from_perm(perm), "endshfl"
        )
        self.assert_ordered(out, 10)


class TestOrderStrategyParse:
    def test_parse_names(self):
        assert OrderStrategy.parse("initcomm") is OrderStrategy.INIT_COMM
        assert OrderStrategy.parse("ENDSHFL") is OrderStrategy.END_SHUFFLE
        assert OrderStrategy.parse(OrderStrategy.INLINE) is OrderStrategy.INLINE

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            OrderStrategy.parse("whatever")
