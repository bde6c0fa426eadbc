"""Crash-safe checkpointed sweep runner tests (journal, resume, SIGKILL)."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.bench.runner as runner_mod
from repro.bench.microbench import sweep_nonhierarchical
from repro.bench.runner import CheckpointedSweep, SweepSpec, compute_cell
from repro.evaluation.evaluator import AllgatherEvaluator
from repro.topology.gpc import gpc_cluster

SPEC = SweepSpec(
    n_nodes=2,
    layouts=("block-bunch", "cyclic-scatter"),
    sizes=(64, 4096, 65536),
    mappers=("heuristic",),
    strategies=("initcomm", "endshfl"),
)


class TestSweepSpec:
    def test_cells_canonical_order(self):
        assert SPEC.cells() == [
            "base::block-bunch",
            "base::cyclic-scatter",
            "tuned::block-bunch::heuristic",
            "tuned::cyclic-scatter::heuristic",
        ]

    def test_fingerprint_content_derived(self):
        assert SPEC.fingerprint() == SweepSpec(
            n_nodes=2,
            layouts=("block-bunch", "cyclic-scatter"),
            sizes=(64, 4096, 65536),
            mappers=("heuristic",),
        ).fingerprint()
        assert SPEC.fingerprint() != SweepSpec(n_nodes=4).fingerprint()

    def test_roundtrip(self):
        from dataclasses import asdict

        assert SweepSpec.from_dict(json.loads(json.dumps(asdict(SPEC)))) == SPEC


class TestCheckpointedRun:
    def test_serial_matches_plain_sweep(self, tmp_path):
        """The journaled runner reproduces the PR-2 sweep exactly."""
        result = CheckpointedSweep(SPEC, tmp_path / "j").run()
        ev = AllgatherEvaluator(gpc_cluster(2), rng=0)
        plain = sweep_nonhierarchical(
            ev,
            ev.cluster.n_cores,
            layouts=list(SPEC.layouts),
            sizes=list(SPEC.sizes),
            mappers=list(SPEC.mappers),
            strategies=list(SPEC.strategies),
        )
        assert result.points == plain
        assert result.n_computed == 4 and result.n_resumed == 0
        assert not result.quarantined and not result.degraded_to_serial

    def test_journal_layout(self, tmp_path):
        out = tmp_path / "j"
        CheckpointedSweep(SPEC, out).run()
        assert (out / "manifest.json").is_file()
        assert (out / "sweep.json").is_file()
        assert len(list((out / "cells").glob("*.json"))) == 4
        assert not any(out.rglob("*.tmp"))  # atomic writes left no temps

    def test_resume_skips_completed_cells(self, tmp_path):
        out = tmp_path / "j"
        first = CheckpointedSweep(SPEC, out).run()
        mtimes = {p.name: p.stat().st_mtime_ns for p in sorted((out / "cells").iterdir())}
        again = CheckpointedSweep.resume(out).run()
        assert again.n_resumed == 4 and again.n_computed == 0
        assert again.points == first.points
        # completed cells were not rewritten
        assert mtimes == {
            p.name: p.stat().st_mtime_ns for p in sorted((out / "cells").iterdir())
        }

    def test_torn_cell_recomputed(self, tmp_path):
        out = tmp_path / "j"
        CheckpointedSweep(SPEC, out).run()
        reference = (out / "sweep.json").read_bytes()
        victim = sorted((out / "cells").iterdir())[0]
        victim.write_text(victim.read_text()[: 40])  # torn write
        result = CheckpointedSweep.resume(out).run()
        assert result.n_resumed == 3 and result.n_computed == 1
        assert (out / "sweep.json").read_bytes() == reference

    def test_parallel_matches_serial(self, tmp_path):
        serial = CheckpointedSweep(SPEC, tmp_path / "s").run()
        parallel = CheckpointedSweep(SPEC, tmp_path / "p", workers=2).run()
        assert parallel.points == serial.points
        assert (tmp_path / "s" / "sweep.json").read_bytes() == (
            tmp_path / "p" / "sweep.json"
        ).read_bytes()

    def test_different_spec_same_dir_rejected(self, tmp_path):
        out = tmp_path / "j"
        CheckpointedSweep(SPEC, out).run()
        with pytest.raises(ValueError, match="different sweep"):
            CheckpointedSweep(SweepSpec(n_nodes=4), out).run()

    def test_resume_requires_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            CheckpointedSweep.resume(tmp_path)

    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_retries"):
            CheckpointedSweep(SPEC, tmp_path, max_retries=-1)
        with pytest.raises(ValueError, match="cell_timeout"):
            CheckpointedSweep(SPEC, tmp_path, cell_timeout=0)


class TestFailureHandling:
    def test_flaky_cell_retried(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = compute_cell

        def flaky(spec, cell):
            if cell.startswith("tuned") and calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("transient")
            return real(spec, cell)

        monkeypatch.setattr(runner_mod, "compute_cell", flaky)
        result = CheckpointedSweep(
            SPEC, tmp_path / "j", max_retries=2, backoff_seconds=0.01
        ).run()
        assert not result.quarantined
        assert len(result.points) == 3 * 1 * 2 * 2  # sizes x mappers x strats x layouts

    def test_persistent_failure_quarantined_not_fatal(self, tmp_path, monkeypatch):
        real = compute_cell

        def broken(spec, cell):
            if cell == "tuned::cyclic-scatter::heuristic":
                raise RuntimeError("cursed cell")
            return real(spec, cell)

        monkeypatch.setattr(runner_mod, "compute_cell", broken)
        result = CheckpointedSweep(
            SPEC, tmp_path / "j", max_retries=1, backoff_seconds=0.01
        ).run()
        assert list(result.quarantined) == ["tuned::cyclic-scatter::heuristic"]
        assert "cursed cell" in result.quarantined["tuned::cyclic-scatter::heuristic"]
        # the healthy layout's points survived
        assert {p.layout for p in result.points} == {"block-bunch"}
        quarantine = json.loads((tmp_path / "j" / "quarantine.json").read_text())
        assert "tuned::cyclic-scatter::heuristic" in quarantine

    def test_broken_pool_degrades_to_serial(self, tmp_path, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        def dead_pool(self, cells, done, attempts):
            raise BrokenProcessPool("the pool is gone")

        monkeypatch.setattr(CheckpointedSweep, "_round_parallel", dead_pool)
        result = CheckpointedSweep(SPEC, tmp_path / "j", workers=2).run()
        assert result.degraded_to_serial
        assert len(result.points) == 12
        serial = CheckpointedSweep(SPEC, tmp_path / "s").run()
        assert result.points == serial.points

    def test_cell_timeout_quarantines(self, tmp_path, monkeypatch):
        monkeypatch.setenv(runner_mod.CELL_DELAY_ENV, "5")
        spec = SweepSpec(
            n_nodes=2, layouts=("block-bunch",), sizes=(64,), mappers=()
        )
        result = CheckpointedSweep(
            spec, tmp_path / "j", workers=2, max_retries=0, cell_timeout=0.2
        ).run()
        assert list(result.quarantined) == ["base::block-bunch"]
        assert "timeout" in result.quarantined["base::block-bunch"]
        assert result.points == []


@pytest.mark.slow
class TestSigkillResume:
    def test_sigkill_midflight_then_resume_bit_identical(self, tmp_path):
        """Kill -9 a sweep mid-cell; --resume must finish it to the byte."""
        reference_dir = tmp_path / "uninterrupted"
        killed_dir = tmp_path / "killed"
        args = [
            sys.executable, "-m", "repro", "sweep",
            "--nodes", "2",
            "--layouts", "block-bunch", "cyclic-scatter",
            "--mappers", "heuristic",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")

        ref = subprocess.run(
            args + ["--out-dir", str(reference_dir)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert ref.returncode == 0, ref.stderr

        env_slow = dict(env)
        env_slow[runner_mod.CELL_DELAY_ENV] = "0.4"
        proc = subprocess.Popen(
            args + ["--out-dir", str(killed_dir)],
            env=env_slow, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # let it journal at least one cell, then kill it the hard way
        deadline = time.time() + 30
        while time.time() < deadline:
            cells = killed_dir / "cells"
            if cells.is_dir() and any(cells.glob("*.json")):
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        assert not (killed_dir / "sweep.json").exists()  # died mid-flight
        n_checkpointed = len(list((killed_dir / "cells").glob("*.json")))
        assert 1 <= n_checkpointed < 4

        res = subprocess.run(
            args + ["--resume", str(killed_dir)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert (killed_dir / "sweep.json").read_bytes() == (
            reference_dir / "sweep.json"
        ).read_bytes()
        assert f"resumed {n_checkpointed}" in res.stdout


class TestCellCosts:
    def test_compute_cell_stamps_cost_and_fingerprint(self):
        payload = compute_cell(SPEC, "base::block-bunch")
        assert payload["fingerprint"] == SPEC.fingerprint()
        assert payload["compute_seconds"] > 0

    def test_run_result_collects_cell_seconds(self, tmp_path):
        result = CheckpointedSweep(SPEC, tmp_path / "j").run()
        assert sorted(result.cell_seconds) == sorted(SPEC.cells())
        assert all(v > 0 for v in result.cell_seconds.values())

    def test_wrong_fingerprint_checkpoint_recomputed(self, tmp_path):
        out = tmp_path / "j"
        cs = CheckpointedSweep(SPEC, out)
        cs.run()
        victim = cs._cell_path("base::block-bunch")
        payload = json.loads(victim.read_text())
        payload["fingerprint"] = "0" * 16
        victim.write_text(json.dumps(payload))
        result = CheckpointedSweep(SPEC, out).run()
        assert result.n_computed == 1 and result.n_resumed == 3
