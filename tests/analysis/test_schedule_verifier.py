"""Schedule-verifier tests: the registry sweep plus one negative test
per SCH diagnostic code."""

import pytest

import numpy as np

from repro.analysis import (
    allgather_semantics,
    semantics_for,
    verify_algorithm,
    verify_schedule,
)
from repro.collectives.registry import make_algorithm, registered_algorithm_names
from repro.collectives.schedule import Schedule, Stage, make_stage

# Acceptance sweep from ISSUE: powers of two, odd sizes, non-powers.
P_SWEEP = [2, 3, 4, 7, 8, 16, 17, 32, 64]


def supported(alg, p):
    try:
        alg.validate_p(p)
    except ValueError:
        return False
    return True


class TestRegistrySweep:
    @pytest.mark.parametrize("name", registered_algorithm_names())
    @pytest.mark.parametrize("p", P_SWEEP)
    def test_registered_algorithms_verify_clean(self, name, p):
        """Every registered collective is verifier-clean at every
        supported communicator size (the ISSUE acceptance criterion)."""
        alg = make_algorithm(name)
        if not supported(alg, p):
            pytest.skip(f"{name} does not support p={p}")
        report = verify_algorithm(alg, p)
        assert report.ok(), report.format()
        assert not report.warnings, report.format()

    def test_semantics_known_for_all_registered(self):
        for name in registered_algorithm_names():
            # Must not raise: every registered name has a contract entry
            # (None is fine — it means structural-only).
            semantics_for(make_algorithm(name))

    def test_unknown_algorithm_semantics_rejected(self):
        class Mystery:
            name = "totally-unknown"

        with pytest.raises(KeyError, match="totally-unknown"):
            semantics_for(Mystery())


def one_block_schedule(p=2):
    """Minimal valid allgather-shaped schedule: 0 <-> 1 exchange."""
    return Schedule(
        p=p,
        stages=[make_stage([(0, 1, (0,)), (1, 0, (1,))])],
        name="pair",
    )


class TestNegativeSchedules:
    """Each SCH code must be reachable (where Schedule.__post_init__ would
    reject the input, a built schedule is corrupted with
    ``object.__setattr__``, which the frozen dataclass cannot stop)."""

    def test_sch001_zero_stages(self):
        sched = one_block_schedule()
        object.__setattr__(sched, "stages", ())  # bypass the constructor guard
        report = verify_schedule(sched)
        assert report.has("SCH001")
        assert not report.ok()

    def test_sch001_tiny_communicator(self):
        sched = one_block_schedule()
        object.__setattr__(sched, "p", 1)
        assert verify_schedule(sched).has("SCH001")

    def test_sch002_rank_out_of_bounds(self):
        sched = Schedule(p=9, stages=[make_stage([(0, 8, (0,))])])
        object.__setattr__(sched, "p", 2)  # now rank 8 is out of range
        report = verify_schedule(sched)
        assert report.has("SCH002")

    def test_sch003_units_blocks_mismatch(self):
        stage = Stage(
            src=np.array([0]),
            dst=np.array([1]),
            units=np.array([2.0]),
            blocks=[(0,)],  # 1 block but units=2
        )
        sched = Schedule(p=2, stages=[stage])
        assert verify_schedule(sched).has("SCH003")

    def test_sch004_causality_violation(self):
        # Rank 0 forwards rank 1's block before ever receiving it.
        sched = Schedule(p=2, stages=[make_stage([(0, 1, (1,))])])
        report = verify_schedule(sched, allgather_semantics())
        assert report.has("SCH004")

    def test_sch005_port_contention(self):
        sched = Schedule(
            p=3, stages=[make_stage([(0, 1, (0,)), (0, 2, (0,))])]
        )
        report = verify_schedule(sched)
        assert report.has("SCH005")
        assert verify_schedule(sched, allow_multi_port=True).ok()

    def test_sch006_duplicate_transfer(self):
        sched = Schedule(
            p=2, stages=[make_stage([(0, 1, (0,)), (0, 1, (0,))])]
        )
        report = verify_schedule(sched, allow_multi_port=True)
        assert report.has("SCH006")

    def test_sch007_redundant_transfer_is_warning(self):
        sched = Schedule(
            p=2,
            stages=[
                make_stage([(0, 1, (0,)), (1, 0, (1,))]),
                make_stage([(0, 1, (0,)), (1, 0, (1,))]),  # repeats stage 1
            ],
        )
        report = verify_schedule(sched, allgather_semantics())
        assert report.has("SCH007")
        assert report.ok()  # warnings do not fail verification
        assert not verify_schedule(
            sched, allgather_semantics(), flag_redundant=False
        ).has("SCH007")

    def test_sch008_incomplete_collective(self):
        # Only 0 -> 1; rank 0 never receives block 1.
        sched = Schedule(p=2, stages=[make_stage([(0, 1, (0,))])])
        report = verify_schedule(sched, allgather_semantics())
        assert report.has("SCH008")
        missing = [d for d in report.diagnostics if d.code == "SCH008"]
        assert missing[0].rank == 0

    def test_structural_only_without_blocks(self):
        # No block lists -> dataflow checks silently skipped even with
        # semantics (the compressed timing view case).
        stage = Stage(src=np.array([0]), dst=np.array([1]), units=np.ones(1))
        sched = Schedule(p=2, stages=[stage])
        report = verify_schedule(sched, allgather_semantics())
        assert report.ok()
        assert not report.has("SCH008")
