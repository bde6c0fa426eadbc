"""Opt-in REPRO_VERIFY runtime guard tests."""

import numpy as np
import pytest

from repro.analysis import (
    REPRO_VERIFY_ENV,
    ScheduleVerificationError,
    verification_enabled,
)
from repro.collectives.schedule import Schedule, make_stage


def broken_schedule():
    """Valid at construction, corrupted afterwards (rank 8 with p=2)."""
    sched = Schedule(p=9, stages=[make_stage([(0, 8, (0,))])], name="bad")
    object.__setattr__(sched, "p", 2)  # the frozen dataclass's only way in
    return sched


class TestSwitch:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(REPRO_VERIFY_ENV, raising=False)
        assert not verification_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "ON", "yes"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv(REPRO_VERIFY_ENV, value)
        assert verification_enabled()

    @pytest.mark.parametrize("value", ["0", "off", "", "no"])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv(REPRO_VERIFY_ENV, value)
        assert not verification_enabled()


class TestEngineGuard:
    def test_engine_rejects_broken_schedule(self, monkeypatch, mid_engine, mid_cluster):
        monkeypatch.setenv(REPRO_VERIFY_ENV, "1")
        M = np.arange(mid_cluster.n_cores)
        with pytest.raises(ScheduleVerificationError, match="SCH002"):
            mid_engine.evaluate(broken_schedule(), M, 64)

    def test_engine_accepts_clean_schedule(self, monkeypatch, mid_engine, mid_cluster):
        monkeypatch.setenv(REPRO_VERIFY_ENV, "1")
        M = np.arange(mid_cluster.n_cores)
        sched = Schedule(p=2, stages=[make_stage([(0, 1, (0,))])])
        assert mid_engine.evaluate(sched, M, 64).total_seconds > 0

    def test_guard_off_means_no_check(self, monkeypatch, mid_engine, mid_cluster):
        monkeypatch.delenv(REPRO_VERIFY_ENV, raising=False)
        M = np.arange(mid_cluster.n_cores)
        # The corrupt schedule still prices: the guard really is opt-in.
        assert mid_engine.evaluate(broken_schedule(), M, 64).total_seconds > 0

    def test_error_carries_report(self, monkeypatch, mid_engine, mid_cluster):
        monkeypatch.setenv(REPRO_VERIFY_ENV, "1")
        M = np.arange(mid_cluster.n_cores)
        with pytest.raises(ScheduleVerificationError) as excinfo:
            mid_engine.evaluate(broken_schedule(), M, 64)
        assert excinfo.value.report.has("SCH002")
