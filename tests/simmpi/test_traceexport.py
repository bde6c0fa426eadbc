"""Chrome-trace export tests."""

import json

import pytest

from repro.collectives.allgather_rd import RecursiveDoublingAllgather
from repro.collectives.allgather_ring import RingAllgather
from repro.mapping.initial import block_bunch
from repro.simmpi.eventsim import EventDrivenEngine
from repro.simmpi.traceexport import (
    export_chrome_trace,
    record_timeline,
    to_chrome_trace,
)
from repro.topology.cluster import LEVEL_CHANNELS
from repro.topology.gpc import small_cluster
from repro.util.rng import make_rng


class TestRecordTimeline:
    def test_one_event_per_message(self, mid_cluster):
        sched = RecursiveDoublingAllgather().schedule(16)
        L = block_bunch(mid_cluster, 16)
        events = record_timeline(mid_cluster, sched, L, 1024)
        assert len(events) == sched.n_messages()

    def test_intervals_well_formed(self, mid_cluster):
        sched = RingAllgather().schedule(16)
        L = block_bunch(mid_cluster, 16)
        for ev in record_timeline(mid_cluster, sched, L, 1024):
            assert ev.finish > ev.start >= 0
            assert ev.nbytes > 0
            assert ev.channel in ("smem", "qpi", "leaf", "line", "spine")

    def test_channels_are_channel_of_the_cores(self):
        """Each event's channel, taken from its route's locality level, is
        ``channel_of`` its two cores, on a cluster where every level occurs."""
        cluster = small_cluster(n_nodes=16, cores_per_socket=4)
        p = cluster.n_cores
        M = make_rng(3).permutation(p)
        events = record_timeline(cluster, RecursiveDoublingAllgather().schedule(p), M, 1024)
        for ev in events:
            assert ev.channel == cluster.channel_of(int(M[ev.src_rank]), int(M[ev.dst_rank]))
        assert {ev.channel for ev in events} == set(LEVEL_CHANNELS)

    def test_recording_matches_plain_engine(self, mid_cluster):
        """Recording must not perturb the timing."""
        sched = RecursiveDoublingAllgather().schedule(32)
        L = block_bunch(mid_cluster, 32)
        plain = EventDrivenEngine(mid_cluster).evaluate(sched, L, 4096).total_seconds
        events = record_timeline(mid_cluster, sched, L, 4096)
        assert max(ev.finish for ev in events) == pytest.approx(plain)

    def test_stage_ordering_respected(self, mid_cluster):
        """A rank's stage-s message starts after its stage-(s-1) work."""
        sched = RecursiveDoublingAllgather().schedule(16)
        L = block_bunch(mid_cluster, 16)
        events = record_timeline(mid_cluster, sched, L, 1024)
        by_rank = {}
        for ev in events:
            by_rank.setdefault(ev.src_rank, []).append(ev)
        for evs in by_rank.values():
            stages = [ev.label for ev in evs]
            assert stages == sorted(stages)  # rd:stage0 < rd:stage1 < ...


class TestChromeFormat:
    def test_schema(self, mid_cluster):
        sched = RingAllgather().schedule(8)
        L = block_bunch(mid_cluster, 8)
        doc = to_chrome_trace(record_timeline(mid_cluster, sched, L, 1024))
        assert "traceEvents" in doc
        ev = doc["traceEvents"][0]
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args"):
            assert key in ev
        assert ev["ph"] == "X"
        assert ev["dur"] > 0

    def test_export_roundtrip(self, mid_cluster, tmp_path):
        sched = RingAllgather().schedule(8)
        L = block_bunch(mid_cluster, 8)
        path = export_chrome_trace(mid_cluster, sched, L, 1024, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == sched.n_messages()

    def test_tracks_are_source_ranks(self, mid_cluster):
        sched = RingAllgather().schedule(8)
        L = block_bunch(mid_cluster, 8)
        doc = to_chrome_trace(record_timeline(mid_cluster, sched, L, 1024))
        tids = {ev["tid"] for ev in doc["traceEvents"]}
        assert tids == set(range(8))
