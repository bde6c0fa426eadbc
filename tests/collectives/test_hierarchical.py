"""Hierarchical allgather tests (paper §II / Fig. 4 substrate)."""

import numpy as np
import pytest

from repro.collectives.hierarchical import HierarchicalAllgather, contiguous_groups
from repro.simmpi.data import DataExecutor
from repro.util.bits import is_power_of_two
from repro.util.rng import make_rng


def run(groups, leader_alg, intra):
    p = sum(len(g) for g in groups)
    alg = HierarchicalAllgather(groups, leader_alg=leader_alg, intra=intra)
    exe = DataExecutor(p)
    exe.fill_identity()
    exe.run(alg.stages(p))
    exe.assert_allgather_complete()
    return alg


class TestCorrectness:
    @pytest.mark.parametrize("leader_alg", ["rd", "ring"])
    @pytest.mark.parametrize("intra", ["binomial", "linear"])
    def test_uniform_groups(self, leader_alg, intra):
        run(contiguous_groups(32, 8), leader_alg, intra)

    def test_nonuniform_groups_ring(self):
        run([[0, 1, 2], [3, 4], [5, 6, 7, 8], [9]], "ring", "binomial")

    def test_permuted_groups(self):
        """Reordered group order / membership still gathers correctly."""
        groups = [[5, 2, 7], [0, 4, 1], [3, 6, 8]]
        run(groups, "ring", "binomial")

    def test_single_group(self):
        run([list(range(6))], "ring", "binomial")

    def test_non_pow2_group_count_rd_rejected(self):
        with pytest.raises(ValueError, match="power-of-two group count"):
            HierarchicalAllgather(contiguous_groups(12, 4), leader_alg="rd")

    def test_groups_must_partition(self):
        with pytest.raises(ValueError, match="partition"):
            HierarchicalAllgather([[0, 1], [1, 2]])
        with pytest.raises(ValueError, match="empty"):
            HierarchicalAllgather([[0, 1], []])

    def test_bad_kind_args(self):
        with pytest.raises(ValueError):
            HierarchicalAllgather([[0, 1]], leader_alg="foo")
        with pytest.raises(ValueError):
            HierarchicalAllgather([[0, 1]], intra="bar")


class TestStructure:
    def test_phase_labels_in_order(self):
        alg = HierarchicalAllgather(contiguous_groups(16, 4), "rd", "binomial")
        labels = [s.label for s in alg.stages(16)]
        gather = [l for l in labels if l.startswith("hier:gather")]
        leaders = [l for l in labels if l.startswith("hier:leaders")]
        bcast = [l for l in labels if l.startswith("hier:bcast")]
        assert labels == gather + leaders + bcast
        assert len(gather) == 2      # log2(4)
        assert len(leaders) == 2     # log2(4) groups
        assert len(bcast) == 2

    def test_leaders_are_group_heads(self):
        groups = [[3, 1], [0, 2]]
        alg = HierarchicalAllgather(groups, "ring", "linear")
        assert alg.leaders == [3, 0]

    def test_wrong_p_rejected(self):
        alg = HierarchicalAllgather(contiguous_groups(8, 4))
        with pytest.raises(ValueError):
            list(alg.stages(16))
        with pytest.raises(ValueError):
            alg.schedule(16)


class TestTimingView:
    def test_ring_compression(self):
        alg = HierarchicalAllgather(contiguous_groups(32, 4), "ring", "binomial")
        sched = alg.schedule(32)
        ring_stages = [s for s in sched.stages if "leaders-ring" in s.label]
        assert len(ring_stages) == 1
        assert ring_stages[0].repeat == 7

    def test_compression_preserves_volume(self):
        alg = HierarchicalAllgather(contiguous_groups(32, 4), "ring", "binomial")
        sched_units = alg.schedule(32).total_units()
        stage_units = sum(s.total_units() for s in alg.stages(32))
        assert sched_units == pytest.approx(stage_units)

    def test_nonuniform_ring_not_compressed(self):
        alg = HierarchicalAllgather([[0, 1, 2], [3, 4], [5, 6, 7, 8]], "ring", "linear")
        sched = alg.schedule(9)
        ring_stages = [s for s in sched.stages if "leaders-ring" in s.label]
        assert len(ring_stages) == 2  # G-1 explicit stages

    def test_rd_leader_volume_doubles(self):
        alg = HierarchicalAllgather(contiguous_groups(32, 4), "rd", "linear")
        leader = [s for s in alg.schedule(32).stages if "leaders-rd" in s.label]
        assert [float(s.units.max()) for s in leader] == [4.0, 8.0, 16.0]

    def test_bcast_carries_full_vector(self):
        alg = HierarchicalAllgather(contiguous_groups(8, 4), "ring", "binomial")
        bcast = [s for s in alg.schedule(8).stages if "bcast" in s.label]
        assert all(np.all(s.units == 8.0) for s in bcast)


def _group_sets(shape, G):
    """Group partitions of one shape: uniform sizes 1-8, random ragged
    sizes 1-8 with contiguous ("ragged") or shuffled ("permuted") ranks, or
    sizes 1, 3 and 8 in turn ("mixed", each rotation) over shuffled ranks
    given as int64 arrays instead of lists."""
    rng = make_rng([G, len(shape)])
    if shape == "uniform":
        size_lists = [[m] * G for m in range(1, 9)]
    elif shape == "mixed":
        size_lists = [[(1, 3, 8)[(g + k) % 3] for g in range(G)] for k in range(3)]
    else:
        size_lists = [rng.integers(1, 9, size=G).tolist() for _ in range(4)]
    out = []
    for sizes in size_lists:
        p = sum(sizes)
        if p < 2:
            continue
        ranks = np.arange(p) if shape in ("uniform", "ragged") else rng.permutation(p)
        bounds = np.cumsum([0] + sizes)
        groups = [ranks[a:b].astype(np.int64) for a, b in zip(bounds[:-1], bounds[1:])]
        out.append(groups if shape == "mixed" else [g.tolist() for g in groups])
    return out


_SCHEDULE_CASES = [
    (G, shape, leader_alg, intra)
    for G in (1, 2, 3, 4, 8, 64)
    for shape in ("uniform", "ragged", "permuted", "mixed")
    for leader_alg in ("rd", "ring")
    for intra in ("binomial", "linear")
    if leader_alg == "ring" or is_power_of_two(G)
]


class TestScheduleMatchesStages:
    """The array-built timing view equals the block-carrying stage view."""

    @pytest.mark.parametrize("G,shape,leader_alg,intra", _SCHEDULE_CASES)
    def test_schedule_equals_stage_view(self, G, shape, leader_alg, intra):
        for groups in _group_sets(shape, G):
            alg = HierarchicalAllgather(groups, leader_alg=leader_alg, intra=intra)
            sched = alg.schedule(alg.p)
            view = list(alg.stages(alg.p))
            compressed = [s for s in sched.stages if s.label == "hier:leaders-ring*"]
            uniform = len({len(g) for g in groups}) == 1
            if leader_alg == "ring" and uniform and G >= 2:
                assert [s.repeat for s in compressed] == [G - 1]
            else:
                assert compressed == []
            # Expand the compressed ring: each repeat equals one ring step.
            expanded = [(st, t) for st in sched.stages for t in range(st.repeat)]
            assert len(expanded) == len(view)
            for (st, t), ref in zip(expanded, view):
                for name in ("src", "dst", "units"):
                    got, want = getattr(st, name), getattr(ref, name)
                    assert got.dtype == want.dtype, (ref.label, name)
                    assert np.array_equal(got, want), (ref.label, name)
                if st.label == "hier:leaders-ring*":
                    assert ref.label == f"hier:leaders-ring{t}"
                else:
                    assert st.label == ref.label
                assert st.blocks is None


class TestPartitionForms:
    """Rank lists, int64 arrays and the flat form build the same algorithm."""

    LISTS = [[5, 2, 7], [0], [4, 1, 3, 6, 8, 9, 10, 11]]

    def _forms(self, groups, leader_alg="ring", intra="binomial"):
        arrays = [np.asarray(g, dtype=np.int64) for g in groups]
        flat = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        return [
            lambda: HierarchicalAllgather(groups, leader_alg, intra),
            lambda: HierarchicalAllgather(arrays, leader_alg, intra),
            lambda: HierarchicalAllgather.from_partition(
                flat, [a.size for a in arrays], leader_alg, intra
            ),
        ]

    def test_groups_and_leaders_agree(self):
        for build in self._forms(self.LISTS):
            alg = build()
            assert alg.groups == self.LISTS
            assert all(type(r) is int for g in alg.groups for r in g)
            assert alg.leaders == [5, 0, 4]
            assert alg.p == 12

    @pytest.mark.parametrize(
        "groups,leader_alg,match",
        [
            ([[0, 1], [1, 2]], "ring", "partition"),
            ([[0, 2], [3]], "ring", "partition"),
            ([[0, 1], []], "ring", "empty group"),
            ([[0], [1], [2]], "rd", "power-of-two group count"),
        ],
    )
    def test_partition_errors_agree(self, groups, leader_alg, match):
        for build in self._forms(groups, leader_alg):
            with pytest.raises(ValueError, match=match):
                build()

    def test_flat_sizes_must_cover_the_ranks(self):
        with pytest.raises(ValueError, match="partition"):
            HierarchicalAllgather.from_partition(np.arange(4), [2, 1], "ring")


class TestContiguousGroups:
    def test_shape(self):
        g = contiguous_groups(12, 3)
        assert g == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            contiguous_groups(10, 3)
