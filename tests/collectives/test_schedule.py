"""Schedule IR tests."""

import dataclasses

import numpy as np
import pytest

from repro.collectives.schedule import Schedule, Stage, make_stage


class TestStage:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Stage(src=np.array([0, 1]), dst=np.array([1]), units=np.array([1.0, 1.0]))

    def test_self_message_rejected(self):
        with pytest.raises(ValueError, match="self-message"):
            Stage(src=np.array([0]), dst=np.array([0]), units=np.array([1.0]))

    def test_bad_repeat_rejected(self):
        with pytest.raises(ValueError):
            Stage(src=np.array([0]), dst=np.array([1]), units=np.array([1.0]), repeat=0)

    def test_blocks_length_checked(self):
        with pytest.raises(ValueError, match="one entry per message"):
            Stage(
                src=np.array([0, 1]),
                dst=np.array([1, 2]),
                units=np.array([1.0, 1.0]),
                blocks=[(0,)],
            )

    def test_total_units(self):
        s = Stage(src=np.array([0, 1]), dst=np.array([1, 0]), units=np.array([2.0, 3.0]), repeat=4)
        assert s.total_units() == 20.0
        assert s.n_messages == 2

    @pytest.mark.parametrize("units", [float("nan"), float("inf"), -3.0])
    def test_bad_units_rejected(self, units):
        with pytest.raises(ValueError, match="finite and non-negative"):
            Stage(src=np.array([0, 1]), dst=np.array([1, 0]), units=np.array([1.0, units]))

    def test_arrays_made_read_only_in_place(self):
        src, dst, units = np.array([0, 1]), np.array([1, 0]), np.array([1.0, 2.0])
        s = Stage(src=src, dst=dst, units=units)
        assert s.src is src and s.dst is dst and s.units is units
        assert not (src.flags.writeable or dst.flags.writeable or units.flags.writeable)

    def test_views_are_copied(self):
        ranks = np.arange(4)
        s = Stage(src=ranks[:2], dst=ranks[2:], units=np.ones(2))
        ranks[0] = 3  # the caller's base stays writable; the stage does not see it
        assert s.src.tolist() == [0, 1]
        assert ranks.flags.writeable


class TestMakeStage:
    def test_units_from_blocks(self):
        s = make_stage([(0, 1, (5, 6)), (1, 2, (7,))])
        assert list(s.units) == [2.0, 1.0]
        assert s.blocks == [(5, 6), (7,)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_stage([])


class TestSchedule:
    def test_counters(self):
        st1 = make_stage([(0, 1, (0,))], repeat=3)
        st2 = make_stage([(1, 0, (1,)), (0, 2, (0,))])
        sched = Schedule(p=3, stages=[st1, st2], name="x")
        assert sched.n_stages() == 4
        assert sched.n_messages() == 5
        assert sched.total_units() == 3 + 2
        assert sched.max_rank() == 2

    def test_empty_schedule_rejected(self):
        # An all-empty schedule must never be mistaken for a valid one.
        with pytest.raises(ValueError, match="at least one stage"):
            Schedule(p=2)
        with pytest.raises(ValueError, match="p >= 2"):
            Schedule(p=1)

    @pytest.mark.parametrize("copy_units", [float("nan"), float("inf"), -1.0])
    def test_bad_local_copy_units_rejected(self, copy_units):
        with pytest.raises(ValueError, match="local_copy_units"):
            Schedule(p=2, stages=[make_stage([(0, 1, (0,))])], local_copy_units=copy_units)

    def test_stages_kept_as_tuple(self):
        st = make_stage([(0, 1, (0,))])
        sched = Schedule(p=2, stages=[st])
        assert sched.stages == (st,)

    def test_rank_out_of_bounds_rejected(self):
        st = make_stage([(0, 3, (0,))])
        with pytest.raises(ValueError, match="outside"):
            Schedule(p=3, stages=[st])

    def test_built_schedule_is_immutable(self):
        sched = Schedule(p=3, stages=[make_stage([(0, 1, (0,))])])
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.stages = []
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.stages[0].units = np.array([2.0])
        with pytest.raises(ValueError, match="read-only"):
            sched.stages[0].dst[0] = 2
        assert sched.max_rank() == 1
