"""Distributed sweep fabric tests: claims, workers, merge, status."""

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
    FabricError,
    FabricFingerprintError,
    FabricIncompleteError,
    FabricWorker,
    fabric_merge,
    fabric_status,
    run_fabric_worker,
    run_workers,
    try_claim,
)
from repro.bench.runner import CELL_DELAY_ENV, CheckpointedSweep, SweepSpec, compute_cell

SPEC = SweepSpec(
    n_nodes=2,
    layouts=("block-bunch", "cyclic-scatter"),
    sizes=(64, 4096, 65536),
    mappers=("heuristic",),
    strategies=("initcomm", "endshfl"),
)
CELL = SPEC.cells()[0]


def _claim_owner(out_dir, cell):
    return json.loads(fabric_mod._claim_path(out_dir, cell).read_text())["owner"]


def _run_processes(out, spec, n, lease_ttl):
    """``n`` forked fabric workers on ``out``; returns their exit codes."""
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(
            target=run_fabric_worker,
            args=(str(out),),
            kwargs={
                "spec": spec,
                "worker_id": f"w{i}",
                "lease_ttl": lease_ttl,
                "poll_interval": 0.05,
            },
        )
        for i in range(n)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        if proc.is_alive():
            proc.kill()
            proc.join()
    return [proc.exitcode for proc in procs]


# ----------------------------------------------------------------------
# claim protocol: one O_EXCL file per cell, never renewed or released
# ----------------------------------------------------------------------
class TestLeases:
    def test_exactly_one_winner(self, tmp_path):
        (tmp_path / "claims").mkdir()
        results = {}
        barrier = threading.Barrier(8)

        def race(owner):
            barrier.wait()
            results[owner] = try_claim(tmp_path, CELL, owner, ttl=60)[0]

        threads = [
            threading.Thread(target=race, args=(f"w{i}",)) for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the racers' Python steps
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        winners = [owner for owner, won in results.items() if won]
        assert len(results) == 8 and len(winners) == 1
        assert _claim_owner(tmp_path, CELL) == winners[0]

    def test_live_lease_not_stealable(self, tmp_path):
        (tmp_path / "claims").mkdir()
        assert try_claim(tmp_path, CELL, "w1", ttl=60) == (True, False, False)
        assert try_claim(tmp_path, CELL, "w2", ttl=60) == (False, False, True)
        assert _claim_owner(tmp_path, CELL) == "w1"

    def test_expired_lease_stolen(self, tmp_path):
        (tmp_path / "claims").mkdir()
        assert try_claim(tmp_path, CELL, "w1", ttl=0.05)[0]
        time.sleep(0.15)
        assert try_claim(tmp_path, CELL, "w2", ttl=0.05) == (True, True, False)
        assert _claim_owner(tmp_path, CELL) == "w2"
        # the takeover is a fresh claim: live again for everyone else
        assert try_claim(tmp_path, CELL, "w1", ttl=60) == (False, False, True)


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
        # claims are never released: one per cell stays behind
        assert len(list((tmp_path / "f" / "claims").glob("*.claim"))) == len(SPEC.cells())
        merged = fabric_merge(tmp_path / "f")
        assert merged.points == serial.points
        assert (tmp_path / "f" / "sweep.json").read_bytes() == (
            tmp_path / "s" / "sweep.json"
        ).read_bytes()

    def test_two_workers_race_one_shard_exactly_one_computes(self, tmp_path):
        # a one-cell grid: both workers race its claim; the loser must
        # skip (coverage check or claim contention), never recompute
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
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        computed = [s.cells_computed for s in stats.values()]
        assert sorted(computed) == [0, 1]
        merged = fabric_merge(out)
        assert merged.n_cells == 1

    def test_three_processes_bit_identical(self, tmp_path):
        serial = CheckpointedSweep(SPEC, tmp_path / "s").run()
        out = tmp_path / "f"
        assert _run_processes(out, SPEC, 3, lease_ttl=10.0) == [0, 0, 0]
        merged = fabric_merge(out)
        assert merged.points == serial.points
        assert (out / "sweep.json").read_bytes() == (
            tmp_path / "s" / "sweep.json"
        ).read_bytes()
        assert len(merged.workers) == 3
        assert sum(w["cells_computed"] for w in merged.workers) == len(SPEC.cells())

    def test_cell_outliving_ttl_costs_only_time(self, tmp_path, monkeypatch):
        # Every cell sleeps past the TTL, so a live worker's claim expires
        # mid-cell and the other worker takes it over and computes the
        # cell too.  Three cells keep one of two workers idle while the
        # other computes the last one, so a takeover always happens.
        spec = SweepSpec(
            n_nodes=2, layouts=("block-bunch",), sizes=SPEC.sizes,
            mappers=("heuristic", "scotch"),
        )
        CheckpointedSweep(spec, tmp_path / "s").run()
        monkeypatch.setenv(CELL_DELAY_ENV, "0.5")
        out = tmp_path / "f"
        assert _run_processes(out, spec, 2, lease_ttl=0.2) == [0, 0]
        merged = fabric_merge(out)
        assert (out / "sweep.json").read_bytes() == (
            tmp_path / "s" / "sweep.json"
        ).read_bytes()
        assert merged.steals >= 1
        assert sum(w["cells_computed"] for w in merged.workers) > len(spec.cells())

    def test_empty_grid_finishes(self, tmp_path):
        spec = SweepSpec(n_nodes=2, layouts=())
        assert spec.cells() == []
        stats = FabricWorker(tmp_path / "f", spec=spec, worker_id="w1").run()
        assert stats.cells_computed == 0
        merged = fabric_merge(tmp_path / "f")
        assert merged.n_cells == 0 and merged.points == []

    def test_expired_lease_reclaimed_and_work_stolen(self, tmp_path):
        # hold a claim on one cell without computing it, as a SIGKILLed
        # worker would; a live worker must take it over after the TTL
        out = tmp_path / "f"
        worker = FabricWorker(
            out, spec=SPEC, worker_id="thief", lease_ttl=0.3, poll_interval=0.05
        )
        worker._prepare()
        assert try_claim(out, CELL, "dead-worker", ttl=0.3)[0]
        time.sleep(0.4)  # let the dead worker's claim expire
        stats = worker.run()
        assert stats.cells_computed == len(SPEC.cells())
        assert stats.steals == 1
        assert _claim_owner(out, CELL) == "thief"
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

    def test_worker_rejects_other_spec(self, tmp_path):
        # the manifest fingerprint refuses a worker of another spec
        # before it claims anything
        FabricWorker(tmp_path, spec=SPEC, worker_id="w1")._prepare()
        with pytest.raises(ValueError, match="fingerprint"):
            FabricWorker(tmp_path, spec=SweepSpec(n_nodes=4), worker_id="w2").run()
        assert not any((tmp_path / "claims").iterdir())

    def test_lease_ttl_validated(self, tmp_path):
        with pytest.raises(ValueError, match="lease_ttl"):
            FabricWorker(tmp_path, spec=SPEC, lease_ttl=0)


# ----------------------------------------------------------------------
# supervisor: run_workers forks its children, so a fault patched into
# the parent's ``fabric.compute_cell`` reaches them
# ----------------------------------------------------------------------
_FORK = multiprocessing.get_start_method() == "fork"


@pytest.mark.skipif(not _FORK, reason="patches reach the children only through fork")
class TestSupervisor:
    def test_child_dying_mid_cell_is_quarantined(self, tmp_path, monkeypatch):
        victim = "tuned::cyclic-scatter::heuristic"
        real = compute_cell

        def dies(spec, cell):
            if cell == victim:
                os._exit(3)
            return real(spec, cell)

        monkeypatch.setattr(fabric_mod, "compute_cell", dies)
        out = tmp_path / "f"
        # one worker: only the replacement can journal the cells left
        merged = run_workers(out, SPEC, workers=1)
        assert multiprocessing.active_children() == []
        assert merged.quarantined == {victim: "worker exited with code 3"}
        assert [w["worker_id"] for w in merged.workers] == ["w1"]
        assert merged.n_cells == len(SPEC.cells()) - 1
        assert sorted(p.name for p in (out / "cells").glob("*.json")) == sorted(
            c.replace("::", "__") + ".json" for c in SPEC.cells() if c != victim
        )
        assert json.loads((out / "quarantine.json").read_text()) == merged.quarantined

    def test_child_exiting_without_claim_stops_the_run(self, tmp_path, monkeypatch):
        def dies(self):
            os._exit(4)

        monkeypatch.setattr(FabricWorker, "_prepare", dies)
        with pytest.raises(FabricError, match="exited with code 4 holding no claim"):
            run_workers(tmp_path / "f", SPEC, workers=2)
        assert multiprocessing.active_children() == []

    def test_rerun_retries_quarantined_cells(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fabric_mod, "compute_cell", _raise)
        out = tmp_path / "f"
        assert len(run_workers(out, SPEC, max_retries=0).quarantined) == len(SPEC.cells())
        monkeypatch.setattr(fabric_mod, "compute_cell", compute_cell)
        merged = run_workers(out, None, workers=2)
        assert not merged.quarantined
        assert not (out / "quarantine.json").exists()
        CheckpointedSweep(SPEC, tmp_path / "s").run()
        assert (out / "sweep.json").read_bytes() == (tmp_path / "s" / "sweep.json").read_bytes()


def _raise(spec, cell):
    raise RuntimeError("cursed cell")


# ----------------------------------------------------------------------
# status inspector
# ----------------------------------------------------------------------
class TestStatus:
    def test_solo_journal_status(self, tmp_path):
        CheckpointedSweep(SPEC, tmp_path / "j").run()
        status = fabric_status(tmp_path / "j")
        assert status.n_done == len(SPEC.cells()) and status.n_pending == 0
        assert status.cell_seconds
        assert status.claims is None
        assert "solo journal" in status.format()

    def test_fabric_status_live_lease_table(self, tmp_path):
        out = tmp_path / "f"
        FabricWorker(out, spec=SPEC, worker_id="w1", lease_ttl=60.0)._prepare()
        live, stale = SPEC.cells()[:2]
        assert try_claim(out, live, "w9", ttl=60.0)[0]
        assert try_claim(out, stale, "w8", ttl=60.0)[0]
        old = time.time() - 120.0
        os.utime(fabric_mod._claim_path(out, stale), (old, old))
        status = fabric_status(out, lease_ttl=60.0)
        assert status.n_pending == len(SPEC.cells())
        assert {c.cell: (c.owner, c.state) for c in status.claims} == {
            live: ("w9", "claimed"),
            stale: ("w8", "expired"),
        }
        assert all(c.age >= 0 for c in status.claims)
        text = status.format()
        assert "w9" in text and "expired" in text

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
        # the claims of journaled cells stay on disk but are not live
        assert status.n_pending == 0 and status.claims == []
        assert "no live claims" in status.format()


# ----------------------------------------------------------------------
# crash drills: kill real worker processes mid-cell, let their claims
# expire, and require the fabric to merge bit-identically.
# ----------------------------------------------------------------------
def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    return env


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
        env = _cli_env()

        ref = subprocess.run(
            args + ["--out-dir", str(serial_dir)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert ref.returncode == 0, ref.stderr

        # victim: slow cells, so SIGKILL lands mid-cell with a claim held
        env_slow = dict(env)
        env_slow[CELL_DELAY_ENV] = "0.4"
        victim = subprocess.Popen(
            args + ["--fabric", str(fabric_dir), "--worker-id", "victim",
                    "--lease-ttl", "2.0"],
            env=env_slow, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # Kill only while the victim holds a live claim on a cell not yet
        # journaled.  Between a cell landing and the next claim it holds
        # only claims on journaled cells, which leaves the survivor
        # nothing to take over; freezing the victim during the check
        # makes the check and the kill see the same state.
        deadline = time.time() + 30
        cells = fabric_dir / "cells"
        while True:
            assert time.time() < deadline, "victim never held a live claim"
            time.sleep(0.05)
            if not (cells.is_dir() and any(cells.glob("*.json"))):
                continue
            victim.send_signal(signal.SIGSTOP)
            os.waitpid(victim.pid, os.WUNTRACED)
            if any(c.state == "claimed" for c in fabric_status(fabric_dir).claims):
                break
            victim.send_signal(signal.SIGCONT)
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
        assert not (fabric_dir / "sweep.json").exists()
        n_before = len(list(cells.glob("*.json")))
        assert 1 <= n_before < 4

        # survivor: must wait out the victim's TTL, take over, and finish
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
        assert stats["steals"] == 1

    def test_three_workers_one_killed_merge_matches_serial(self, tmp_path):
        # Three CLI workers race one shared directory; one is SIGKILLed as
        # soon as the first cell lands, and the survivors must take over
        # whatever it held.  The merge must equal a serial run byte for byte.
        flags = [
            sys.executable, "-m", "repro", "sweep",
            "--nodes", "2",
            "--layouts", "block-bunch", "cyclic-scatter",
            "--mappers", "heuristic", "scotch",
        ]
        env = _cli_env()
        serial_dir = tmp_path / "serial"
        fabric_dir = tmp_path / "fabric"
        ref = subprocess.run(
            flags + ["--out-dir", str(serial_dir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert ref.returncode == 0, ref.stderr

        env_slow = dict(env)
        env_slow[CELL_DELAY_ENV] = "0.3"
        workers = [
            subprocess.Popen(
                flags + ["--fabric", str(fabric_dir), "--worker-id", f"w{i}",
                         "--lease-ttl", "2.0"],
                env=env_slow, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            for i in range(3)
        ]
        try:
            deadline = time.time() + 60
            cells = fabric_dir / "cells"
            while not (cells.is_dir() and any(cells.glob("*.json"))):
                assert time.time() < deadline, "no cell landed"
                time.sleep(0.05)
            workers[0].send_signal(signal.SIGKILL)
            assert [w.wait(timeout=300) for w in workers[1:]] == [0, 0]
            workers[0].wait(timeout=60)
        finally:
            for w in workers:
                if w.poll() is None:
                    w.kill()
                    w.wait()

        merge = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--merge", str(fabric_dir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert merge.returncode == 0, merge.stderr
        assert (fabric_dir / "sweep.json").read_bytes() == (
            serial_dir / "sweep.json"
        ).read_bytes()


def _children(pid):
    """Pids of ``pid``'s child processes, from the ppid field of ``/proc/*/stat``."""
    kids = []
    for stat in sorted(Path("/proc").glob("[0-9]*/stat")):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process exited meanwhile
        if int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return sorted(kids)


def _stopped(pid):
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "T"
    except OSError:
        return True  # gone: nothing left to wait for


@pytest.mark.slow
@pytest.mark.skipif(
    not _FORK or not Path("/proc/self/stat").is_file(),
    reason="finds the forked children through /proc",
)
class TestSupervisedSigkill:
    def test_sigkilled_child_quarantined_then_resume_bit_identical(self, tmp_path):
        """SIGKILL one child of ``--workers 2`` mid-cell, then ``--resume``."""
        args = [
            sys.executable, "-m", "repro", "sweep",
            "--nodes", "2",
            "--layouts", "block-bunch", "cyclic-scatter",
            "--mappers", "heuristic",
        ]
        env = _cli_env()
        ref = subprocess.run(
            args + ["--out-dir", str(tmp_path / "serial")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert ref.returncode == 0, ref.stderr

        out = tmp_path / "supervised"
        env_slow = dict(env)
        env_slow[CELL_DELAY_ENV] = "0.4"
        proc = subprocess.Popen(
            args + ["--workers", "2", "--out-dir", str(out)],
            env=env_slow, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            # Kill only while both children hold a claim on a cell not yet
            # journaled, so the victim dies mid-cell; freezing them makes
            # the check and the kill see the same state.
            deadline = time.time() + 30
            while True:
                assert time.time() < deadline, "the children never were both mid-cell"
                time.sleep(0.05)
                kids = _children(proc.pid)
                if len(kids) != 2:
                    continue
                for pid in kids:
                    os.kill(pid, signal.SIGSTOP)
                while not all(_stopped(pid) for pid in kids):
                    time.sleep(0.01)
                claims = fabric_status(out).claims or []
                if len([c for c in claims if c.state == "claimed"]) == 2:
                    break
                for pid in kids:
                    os.kill(pid, signal.SIGCONT)
            os.kill(kids[0], signal.SIGKILL)
            os.kill(kids[1], signal.SIGCONT)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert "worker exited with code -9" in stdout
        n_before = len(list((out / "cells").glob("*.json")))
        assert n_before == 3

        res = subprocess.run(
            args + ["--resume", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert "resumed 3, computed 1" in res.stdout
        assert not (out / "quarantine.json").exists()
        assert (out / "sweep.json").read_bytes() == (
            tmp_path / "serial" / "sweep.json"
        ).read_bytes()
