"""Reordering-as-a-service: the warm-state ``repro serve`` daemon.

One resident process holds the expensive state — implicit-distance
ladders, the shared mapping cache, pricing tables, built schedules —
keyed by topology fingerprint, and answers JSON-lines requests over a
unix socket or TCP.  Warm reorders are answered inline on the event
loop; everything else runs in arrival order on one pipeline lane, so
identical concurrent requests compute once and the rest hit the caches.
See ``docs/serving.md``.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.embedded import EmbeddedServer
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_request,
    encode_frame,
    make_error,
    make_response,
)
from repro.serve.registry import (
    DEFAULT_TOPOLOGY_CAP,
    TOPOLOGY_KINDS,
    TopologyEntry,
    TopologyRegistry,
    build_cluster,
)
from repro.serve.server import ReproServer, ServerConfig
from repro.serve.service import ReorderService

__all__ = [
    "DEFAULT_TOPOLOGY_CAP",
    "EmbeddedServer",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReorderService",
    "ReproServer",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "TOPOLOGY_KINDS",
    "TopologyEntry",
    "TopologyRegistry",
    "build_cluster",
    "decode_request",
    "encode_frame",
    "make_error",
    "make_response",
]
