"""Export simulated collective timelines as Chrome trace events.

Runs a schedule through the event-driven engine while recording every
message's (start, finish, route class) and emits the Chrome/Perfetto
trace-event JSON format (``chrome://tracing``, https://ui.perfetto.dev),
one track per rank — the standard way to eyeball pipelining, stragglers
and the hotspots the profiler reports numerically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.collectives.schedule import Schedule
from repro.simmpi.costmodel import CostModel
from repro.simmpi.eventsim import EventDrivenEngine
from repro.topology.cluster import LEVEL_CHANNELS, ClusterTopology
from repro.util.atomicio import atomic_write_text

__all__ = ["MessageEvent", "record_timeline", "to_chrome_trace", "export_chrome_trace"]


@dataclass(frozen=True)
class MessageEvent:
    """One transferred message with its simulated interval."""

    src_rank: int
    dst_rank: int
    start: float
    finish: float
    nbytes: float
    label: str
    channel: str


class _RecordingEngine(EventDrivenEngine):
    """Event engine that also captures per-message intervals."""

    def __init__(self, cluster, cost_model=None):
        super().__init__(cluster, cost_model)
        self.events: List[MessageEvent] = []

    def _on_message(self, stage, s, d, start, finish, nbytes, level):
        self.events.append(
            MessageEvent(
                src_rank=s,
                dst_rank=d,
                start=start,
                finish=finish,
                nbytes=nbytes,
                label=stage.label or "<stage>",
                channel=LEVEL_CHANNELS[level],
            )
        )


def record_timeline(
    cluster: ClusterTopology,
    schedule: Schedule,
    mapping: Sequence[int],
    block_bytes: float,
    cost_model: Optional[CostModel] = None,
) -> List[MessageEvent]:
    """Event-engine run that returns every message's simulated interval."""
    engine = _RecordingEngine(cluster, cost_model)
    engine.evaluate(schedule, mapping, block_bytes)
    return engine.events


def to_chrome_trace(events: List[MessageEvent]) -> dict:
    """Convert message events to the Chrome trace-event JSON dict.

    Sender-side complete events ("X" phase) on one track per rank, with
    flow metadata in ``args``; timestamps in microseconds as the format
    requires.
    """
    trace_events = []
    for i, ev in enumerate(events):
        trace_events.append(
            {
                "name": f"{ev.label} -> r{ev.dst_rank}",
                "cat": ev.channel,
                "ph": "X",
                "ts": ev.start * 1e6,
                "dur": max(ev.finish - ev.start, 1e-9) * 1e6,
                "pid": 0,
                "tid": ev.src_rank,
                "args": {
                    "dst_rank": ev.dst_rank,
                    "bytes": ev.nbytes,
                    "channel": ev.channel,
                },
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def export_chrome_trace(
    cluster: ClusterTopology,
    schedule: Schedule,
    mapping: Sequence[int],
    block_bytes: float,
    path: Union[str, Path],
    cost_model: Optional[CostModel] = None,
) -> Path:
    """Record and write a Chrome trace for one collective run."""
    events = record_timeline(cluster, schedule, mapping, block_bytes, cost_model)
    return atomic_write_text(Path(path), json.dumps(to_chrome_trace(events)))
