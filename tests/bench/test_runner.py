"""Crash-safe checkpointed sweep runner tests (journal, resume, SIGKILL)."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.bench.fabric as fabric_mod
import repro.bench.runner as runner_mod
from repro.bench.fabric import run_workers
from repro.bench.microbench import sweep_nonhierarchical
from repro.bench.runner import CheckpointedSweep, SweepSpec, compute_cell
from repro.evaluation.evaluator import AllgatherEvaluator
from repro.topology.gpc import gpc_cluster
from repro.util.lru import LRU

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
        assert not result.quarantined

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
        """Supervised fabric workers write the serial run's bytes."""
        serial = CheckpointedSweep(SPEC, tmp_path / "s").run()
        reference = (tmp_path / "s" / "sweep.json").read_bytes()
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            merged = run_workers(out, SPEC, workers=workers)
            assert merged.points == serial.points
            assert (out / "sweep.json").read_bytes() == reference
            assert sum(w["cells_computed"] for w in merged.workers) == len(SPEC.cells())
        assert multiprocessing.active_children() == []

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
            run_workers(tmp_path, SPEC, cell_timeout=0)
        with pytest.raises(ValueError, match="workers"):
            run_workers(tmp_path, SPEC, workers=0)


class TestFailureHandling:
    # The serial run passes every cell through the fabric's per-cell
    # function, so faults are injected on the fabric's binding.
    def test_flaky_cell_retried(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = compute_cell

        def flaky(spec, cell):
            if cell.startswith("tuned") and calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("transient")
            return real(spec, cell)

        monkeypatch.setattr(fabric_mod, "compute_cell", flaky)
        result = CheckpointedSweep(
            SPEC, tmp_path / "j", max_retries=2, backoff_seconds=0.01
        ).run()
        assert calls["n"] == 1
        assert not result.quarantined
        assert len(result.points) == 3 * 1 * 2 * 2  # sizes x mappers x strats x layouts

    def test_persistent_failure_quarantined_not_fatal(self, tmp_path, monkeypatch):
        real = compute_cell

        def broken(spec, cell):
            if cell == "tuned::cyclic-scatter::heuristic":
                raise RuntimeError("cursed cell")
            return real(spec, cell)

        monkeypatch.setattr(fabric_mod, "compute_cell", broken)
        result = CheckpointedSweep(
            SPEC, tmp_path / "j", max_retries=1, backoff_seconds=0.01
        ).run()
        assert list(result.quarantined) == ["tuned::cyclic-scatter::heuristic"]
        assert "cursed cell" in result.quarantined["tuned::cyclic-scatter::heuristic"]
        # the healthy layout's points survived
        assert {p.layout for p in result.points} == {"block-bunch"}
        quarantine = json.loads((tmp_path / "j" / "quarantine.json").read_text())
        assert "tuned::cyclic-scatter::heuristic" in quarantine
        # one quarantine format: the serial run writes the fabric's record
        assert (tmp_path / "j" / "quarantine" / "tuned__cyclic-scatter__heuristic.json").is_file()

    def test_cell_timeout_quarantines(self, tmp_path, monkeypatch):
        """The supervisor kills a stuck worker: no 5 s wait, no leftover child."""
        monkeypatch.setenv(runner_mod.CELL_DELAY_ENV, "5")
        spec = SweepSpec(
            n_nodes=2, layouts=("block-bunch",), sizes=(64,), mappers=()
        )
        t0 = time.perf_counter()
        result = run_workers(
            tmp_path / "j", spec, workers=2, max_retries=0, cell_timeout=0.2
        )
        assert time.perf_counter() - t0 < 3.0
        assert multiprocessing.active_children() == []
        assert list(result.quarantined) == ["base::block-bunch"]
        assert result.quarantined["base::block-bunch"] == "timeout: cell exceeded 0.2s"
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


class TestMappingCacheStaysPut:
    """A run reorders through the caller's in-memory cache, never a disk tier.

    Each test starts from a fresh evaluator: one left by an earlier run in
    this process would answer the reorders from its own memo.
    """

    SMALL = SweepSpec(
        n_nodes=2,
        layouts=("block-bunch",),
        mappers=("heuristic",),
        sizes=(64, 4096),
    )

    def test_serial_run_keeps_the_callers_cache(self, tmp_path, monkeypatch):
        from repro.mapping.cache import global_mapping_cache
        from repro.mapping.initial import make_layout
        from repro.mapping.reorder import reorder_ranks

        monkeypatch.delenv("REPRO_MAPPING_CACHE", raising=False)
        monkeypatch.setattr(runner_mod, "_RUNNER_EVALUATOR", LRU(1))
        cluster = gpc_cluster(2)
        L = make_layout("cyclic-scatter", cluster, cluster.n_cores)
        impl = cluster.implicit_distances()
        cache = global_mapping_cache()
        first = reorder_ranks("bruck", L, impl, rng=2016)
        out = tmp_path / "j"
        CheckpointedSweep(self.SMALL, out).run()
        assert global_mapping_cache() is cache
        again = reorder_ranks("bruck", L, impl, rng=2016)
        assert again.cached
        assert (again.mapping == first.mapping).all()
        assert "REPRO_MAPPING_CACHE" not in os.environ
        assert not (out / "mapcache").exists()

    def test_workers_write_no_mapcache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_mod, "_RUNNER_EVALUATOR", LRU(1))
        out = tmp_path / "w"
        run_workers(out, self.SMALL, workers=1)
        assert (out / "sweep.json").is_file()
        assert not (out / "mapcache").exists()
