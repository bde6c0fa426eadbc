"""Atomic writes under concurrent writers, failures and umasks."""

import multiprocessing
import os
import stat
import sys
import threading

import pytest

from repro.util.atomicio import atomic_write_text

WRITES = 200


def _payload(writer: int, i: int) -> str:
    # Large enough that a torn or interleaved write could not pass as whole.
    return f"{writer}:{i}:" + f"{writer}" * 4096 + "\n"


def _all_payloads(writers: int, writes: int) -> set:
    return {_payload(w, i) for w in range(writers) for i in range(writes)}


def _write_many(path, writer: int, barrier, writes: int = WRITES) -> None:
    barrier.wait()
    for i in range(writes):
        atomic_write_text(path, _payload(writer, i))


class TestConcurrentWriters:
    def test_threads_same_path(self, tmp_path):
        path = tmp_path / "manifest.json"
        n = 8
        barrier = threading.Barrier(n)
        errors = []

        def run(writer):
            try:
                _write_many(path, writer, barrier)
            except Exception as exc:  # collected, asserted below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(w,)) for w in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_text() in _all_payloads(n, WRITES)
        assert sorted(tmp_path.glob("*.tmp")) == []

    def test_processes_same_path(self, tmp_path):
        path = tmp_path / "manifest.json"
        n = 4
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(n)
        procs = [
            ctx.Process(target=_write_many, args=(path, w, barrier, 100))
            for w in range(n)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0] * n
        assert path.read_text() in _all_payloads(n, 100)
        assert sorted(tmp_path.glob("*.tmp")) == []


class TestModeAndFailure:
    @pytest.mark.parametrize("umask", [0o002, 0o022, 0o027], ids=oct)
    def test_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            path = atomic_write_text(tmp_path / "out.json", "{}\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        atomic_write_text(path, "old\n")

        def boom(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="replace failed"):
            atomic_write_text(path, "new\n")
        monkeypatch.undo()
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
