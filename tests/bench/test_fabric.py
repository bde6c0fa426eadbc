"""Distributed sweep fabric tests: planner, leases, workers, merge."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.bench.fabric as fabric_mod
from repro.bench.fabric import (
    FabricFingerprintError,
    FabricIncompleteError,
    FabricWorker,
    ShardPlan,
    ensure_plan,
    fabric_merge,
    fabric_status,
    plan_shards,
    release_lease,
    renew_lease,
    run_fabric_worker,
    static_cell_cost,
    try_acquire_lease,
)
from repro.bench.runner import CELL_DELAY_ENV, CheckpointedSweep, SweepSpec, compute_cell

SPEC = SweepSpec(
    n_nodes=2,
    layouts=("block-bunch", "cyclic-scatter"),
    sizes=(64, 4096, 65536),
    mappers=("heuristic",),
    strategies=("initcomm", "endshfl"),
)


# ----------------------------------------------------------------------
# shard planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_covers_grid_exactly_once(self):
        plan = plan_shards(SPEC)
        planned = [c for s in plan.shards for c in s.cells]
        assert sorted(planned) == sorted(SPEC.cells())
        assert len(planned) == len(set(planned))

    def test_deterministic(self):
        assert plan_shards(SPEC) == plan_shards(SPEC)

    def test_fingerprint_stamped_per_shard(self):
        plan = plan_shards(SPEC)
        assert plan.fingerprint == SPEC.fingerprint()
        assert all(s.fingerprint == SPEC.fingerprint() for s in plan.shards)

    def test_static_costs_weight_tuned_cells(self):
        assert static_cell_cost(SPEC, "tuned::block-bunch::heuristic") > (
            static_cell_cost(SPEC, "base::block-bunch")
        )

    def test_measured_costs_balance_shards(self):
        # one pathologically expensive cell must sit alone in its shard
        cells = SPEC.cells()
        costs = {c: 1.0 for c in cells}
        heavy = cells[0]
        costs[heavy] = 100.0
        plan = plan_shards(SPEC, n_shards=2, cell_costs=costs)
        heavy_shard = next(s for s in plan.shards if heavy in s.cells)
        assert heavy_shard.cells == (heavy,)
        light_shard = next(s for s in plan.shards if heavy not in s.cells)
        assert len(light_shard.cells) == len(cells) - 1

    def test_n_shards_clamped_to_cells(self):
        plan = plan_shards(SPEC, n_shards=99)
        assert len(plan.shards) == len(SPEC.cells())

    def test_roundtrip(self):
        plan = plan_shards(SPEC)
        assert ShardPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan

    def test_ensure_plan_create_then_join(self, tmp_path):
        first = ensure_plan(SPEC, tmp_path)
        again = ensure_plan(SPEC, tmp_path)
        assert first == again
        assert (tmp_path / "shards.json").is_file()

    def test_ensure_plan_rejects_other_spec(self, tmp_path):
        ensure_plan(SPEC, tmp_path)
        with pytest.raises(FabricFingerprintError, match="fingerprint"):
            ensure_plan(SweepSpec(n_nodes=4), tmp_path)

    def test_ensure_plan_balances_by_journaled_cost(self, tmp_path, monkeypatch):
        # journal the grid first, then blow up one cell's recorded cost:
        # replanning must isolate that cell
        CheckpointedSweep(SPEC, tmp_path).run()
        heavy = SPEC.cells()[-1]
        cs = CheckpointedSweep(SPEC, tmp_path)
        path = cs._cell_path(heavy)
        payload = json.loads(path.read_text())
        payload["compute_seconds"] = 1e6
        path.write_text(json.dumps(payload))
        plan = ensure_plan(SPEC, tmp_path, n_shards=2)
        heavy_shard = next(s for s in plan.shards if heavy in s.cells)
        assert heavy_shard.cells == (heavy,)


# ----------------------------------------------------------------------
# lease protocol
# ----------------------------------------------------------------------
class TestLeases:
    def setup_method(self):
        pass

    def test_exactly_one_winner(self, tmp_path):
        (tmp_path / "leases").mkdir()
        results = {}
        barrier = threading.Barrier(8)

        def race(owner):
            barrier.wait()
            acquired, stolen, _ = try_acquire_lease(tmp_path, "s000", owner, ttl=60)
            results[owner] = acquired

        threads = [
            threading.Thread(target=race, args=(f"w{i}",)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(results.values()) == 1

    def test_live_lease_not_stealable(self, tmp_path):
        (tmp_path / "leases").mkdir()
        assert try_acquire_lease(tmp_path, "s000", "w1", ttl=60)[0]
        acquired, stolen, contended = try_acquire_lease(tmp_path, "s000", "w2", ttl=60)
        assert not acquired and contended

    def test_expired_lease_stolen(self, tmp_path):
        (tmp_path / "leases").mkdir()
        assert try_acquire_lease(tmp_path, "s000", "w1", ttl=0.05)[0]
        time.sleep(0.15)
        acquired, stolen, _ = try_acquire_lease(tmp_path, "s000", "w2", ttl=0.05)
        assert acquired and stolen
        # the original owner's heartbeat now fails: it lost the lease
        assert not renew_lease(tmp_path, "s000", "w1")
        assert renew_lease(tmp_path, "s000", "w2")

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        (tmp_path / "leases").mkdir()
        assert try_acquire_lease(tmp_path, "s000", "w1", ttl=0.3)[0]
        for _ in range(3):
            time.sleep(0.15)
            assert renew_lease(tmp_path, "s000", "w1")
        acquired, _, _ = try_acquire_lease(tmp_path, "s000", "w2", ttl=0.3)
        assert not acquired

    def test_release_only_by_owner(self, tmp_path):
        (tmp_path / "leases").mkdir()
        assert try_acquire_lease(tmp_path, "s000", "w1", ttl=60)[0]
        assert not release_lease(tmp_path, "s000", "w2")
        assert release_lease(tmp_path, "s000", "w1")
        assert try_acquire_lease(tmp_path, "s000", "w2", ttl=60)[0]


# ----------------------------------------------------------------------
# workers + merge
# ----------------------------------------------------------------------
class TestFabricRun:
    def test_single_worker_matches_serial_bytes(self, tmp_path):
        serial = CheckpointedSweep(SPEC, tmp_path / "s").run()
        stats = FabricWorker(
            tmp_path / "f", spec=SPEC, worker_id="w1", lease_ttl=5.0
        ).run()
        assert stats.cells_computed == len(SPEC.cells())
        merged = fabric_merge(tmp_path / "f")
        assert merged.points == serial.points
        assert (tmp_path / "f" / "sweep.json").read_bytes() == (
            tmp_path / "s" / "sweep.json"
        ).read_bytes()

    def test_two_workers_race_one_shard_exactly_one_computes(self, tmp_path):
        # a single 1-cell shard: both workers race the lease; the loser
        # must skip (coverage check or lease contention), never recompute
        spec = SweepSpec(n_nodes=2, layouts=("block-bunch",), sizes=(64,), mappers=())
        assert len(spec.cells()) == 1
        out = tmp_path / "f"
        barrier = threading.Barrier(2)
        stats = {}

        def work(wid):
            worker = FabricWorker(
                out, spec=spec, worker_id=wid, lease_ttl=10.0, poll_interval=0.05
            )
            barrier.wait()
            stats[wid] = worker.run()

        threads = [threading.Thread(target=work, args=(f"w{i}",)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        computed = [s.cells_computed for s in stats.values()]
        assert sorted(computed) == [0, 1]
        merged = fabric_merge(out)
        assert merged.n_cells == 1

    def test_three_processes_bit_identical(self, tmp_path):
        serial = CheckpointedSweep(SPEC, tmp_path / "s").run()
        out = tmp_path / "f"
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(
                target=run_fabric_worker,
                args=(str(out),),
                kwargs={
                    "spec": SPEC,
                    "worker_id": f"w{i}",
                    "lease_ttl": 10.0,
                    "poll_interval": 0.05,
                },
            )
            for i in range(3)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0, 0, 0]
        merged = fabric_merge(out)
        assert merged.points == serial.points
        assert (out / "sweep.json").read_bytes() == (
            tmp_path / "s" / "sweep.json"
        ).read_bytes()
        assert len(merged.workers) == 3
        assert sum(w["cells_computed"] for w in merged.workers) == len(SPEC.cells())

    def test_expired_lease_reclaimed_and_work_stolen(self, tmp_path):
        # hold a lease on one shard without heartbeating, as a SIGKILLed
        # worker would; a live worker must steal it after the TTL
        out = tmp_path / "f"
        worker = FabricWorker(
            out, spec=SPEC, worker_id="thief", lease_ttl=0.3, poll_interval=0.05
        )
        plan = worker._prepare()
        victim_shard = plan.shards[0].shard_id
        assert try_acquire_lease(out, victim_shard, "dead-worker", ttl=0.3)[0]
        time.sleep(0.4)  # let the dead worker's lease expire
        stats = worker.run()
        assert stats.cells_computed == len(SPEC.cells())
        assert stats.steals >= 1
        serial = CheckpointedSweep(SPEC, tmp_path / "s").run()
        assert fabric_merge(out).points == serial.points

    def test_quarantined_cell_not_fatal(self, tmp_path, monkeypatch):
        real = compute_cell

        def broken(spec, cell):
            if cell == "tuned::cyclic-scatter::heuristic":
                raise RuntimeError("cursed cell")
            return real(spec, cell)

        monkeypatch.setattr(fabric_mod, "compute_cell", broken)
        stats = FabricWorker(
            tmp_path / "f", spec=SPEC, worker_id="w1", lease_ttl=5.0,
            max_retries=1, backoff_seconds=0.01,
        ).run()
        assert stats.cells_quarantined == 1
        merged = fabric_merge(tmp_path / "f")
        assert list(merged.quarantined) == ["tuned::cyclic-scatter::heuristic"]
        assert "cursed cell" in merged.quarantined["tuned::cyclic-scatter::heuristic"]
        assert {p.layout for p in merged.points} == {"block-bunch"}
        quarantine = json.loads((tmp_path / "f" / "quarantine.json").read_text())
        assert "tuned::cyclic-scatter::heuristic" in quarantine

    def test_merge_refuses_incomplete_journal(self, tmp_path):
        worker = FabricWorker(tmp_path / "f", spec=SPEC, worker_id="w1")
        worker._prepare()
        with pytest.raises(FabricIncompleteError, match="neither journaled"):
            fabric_merge(tmp_path / "f")

    def test_merge_rejects_foreign_worker_record(self, tmp_path):
        FabricWorker(tmp_path / "f", spec=SPEC, worker_id="w1", lease_ttl=5.0).run()
        rogue = tmp_path / "f" / "workers" / "rogue.json"
        rogue.write_text(json.dumps({"worker_id": "rogue", "fingerprint": "f" * 16}))
        with pytest.raises(FabricFingerprintError, match="rogue"):
            fabric_merge(tmp_path / "f")

    def test_merge_rejects_wrong_spec_cells(self, tmp_path):
        # a cell journaled under another spec is recomputed, not merged
        FabricWorker(tmp_path / "f", spec=SPEC, worker_id="w1", lease_ttl=5.0).run()
        cs = CheckpointedSweep(SPEC, tmp_path / "f")
        victim = cs._cell_path(SPEC.cells()[0])
        payload = json.loads(victim.read_text())
        payload["fingerprint"] = "0" * 16
        victim.write_text(json.dumps(payload))
        with pytest.raises(FabricIncompleteError):
            fabric_merge(tmp_path / "f")

    def test_worker_join_requires_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            FabricWorker(tmp_path / "nope")

    def test_lease_ttl_validated(self, tmp_path):
        with pytest.raises(ValueError, match="lease_ttl"):
            FabricWorker(tmp_path, spec=SPEC, lease_ttl=0)


# ----------------------------------------------------------------------
# status inspector
# ----------------------------------------------------------------------
class TestStatus:
    def test_solo_journal_status(self, tmp_path):
        CheckpointedSweep(SPEC, tmp_path / "j").run()
        status = fabric_status(tmp_path / "j")
        assert status.n_done == len(SPEC.cells()) and status.n_pending == 0
        assert status.cell_seconds
        assert "solo journal" in status.format()

    def test_fabric_status_live_lease_table(self, tmp_path):
        out = tmp_path / "f"
        worker = FabricWorker(out, spec=SPEC, worker_id="w1", lease_ttl=60.0)
        plan = worker._prepare()
        assert try_acquire_lease(out, plan.shards[0].shard_id, "w9", ttl=60.0)[0]
        status = fabric_status(out, lease_ttl=60.0)
        states = {s.shard_id: s.state for s in status.shards}
        assert states[plan.shards[0].shard_id] == "leased"
        assert set(states.values()) == {"leased", "unleased"}
        leased = next(s for s in status.shards if s.state == "leased")
        assert leased.owner == "w9" and leased.heartbeat_age is not None
        text = status.format(lease_ttl=60.0)
        assert "w9" in text and "unleased" in text

    def test_status_is_read_only(self, tmp_path):
        out = tmp_path / "j"
        CheckpointedSweep(SPEC, out).run()
        before = sorted(p.name for p in out.rglob("*"))
        fabric_status(out)
        assert sorted(p.name for p in out.rglob("*")) == before

    def test_status_after_merge_all_done(self, tmp_path):
        FabricWorker(tmp_path / "f", spec=SPEC, worker_id="w1", lease_ttl=5.0).run()
        fabric_merge(tmp_path / "f")
        status = fabric_status(tmp_path / "f")
        assert all(s.state == "done" for s in status.shards)


# ----------------------------------------------------------------------
# the SIGKILL drill: kill a real worker process mid-cell, let its lease
# expire, and require the reclaimed fabric to merge bit-identically.
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSigkillRecovery:
    def test_sigkilled_worker_lease_reclaimed_bit_identical(self, tmp_path):
        serial_dir = tmp_path / "serial"
        fabric_dir = tmp_path / "fabric"
        args = [
            sys.executable, "-m", "repro", "sweep",
            "--nodes", "2",
            "--layouts", "block-bunch", "cyclic-scatter",
            "--mappers", "heuristic",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")

        ref = subprocess.run(
            args + ["--out-dir", str(serial_dir)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert ref.returncode == 0, ref.stderr

        # victim: slow cells, so SIGKILL lands mid-shard with leases held
        env_slow = dict(env)
        env_slow[CELL_DELAY_ENV] = "0.4"
        victim = subprocess.Popen(
            args + ["--fabric", str(fabric_dir), "--worker-id", "victim",
                    "--lease-ttl", "2.0"],
            env=env_slow, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # Kill only while the victim holds the lease of an unfinished
        # shard.  Between a shard's last cell landing and its lease
        # release it holds only a finished shard's lease, which leaves
        # the survivor nothing to steal; freezing the victim during the
        # check makes the check and the kill see the same state.
        deadline = time.time() + 30
        cells = fabric_dir / "cells"
        while True:
            assert time.time() < deadline, "victim never held an unfinished shard"
            time.sleep(0.05)
            if not (cells.is_dir() and any(cells.glob("*.json"))):
                continue
            victim.send_signal(signal.SIGSTOP)
            os.waitpid(victim.pid, os.WUNTRACED)
            if any(s.state == "leased" for s in fabric_status(fabric_dir).shards):
                break
            victim.send_signal(signal.SIGCONT)
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
        assert not (fabric_dir / "sweep.json").exists()
        n_before = len(list(cells.glob("*.json")))
        assert 1 <= n_before < 4
        leases = sorted((fabric_dir / "leases").glob("*.lease"))
        assert leases, "victim died without a lease on disk"

        # survivor: must wait out the victim's TTL, steal, and finish
        res = subprocess.run(
            args + ["--fabric", str(fabric_dir), "--worker-id", "survivor",
                    "--lease-ttl", "2.0"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr

        merge = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--merge", str(fabric_dir)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert merge.returncode == 0, merge.stderr
        assert (fabric_dir / "sweep.json").read_bytes() == (
            serial_dir / "sweep.json"
        ).read_bytes()
        stats = json.loads(
            (fabric_dir / "workers" / "survivor.json").read_text()
        )
        assert stats["cells_computed"] == 4 - n_before
        assert stats["steals"] >= 1
