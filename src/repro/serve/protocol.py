"""Versioned JSON-lines framing for the reordering daemon.

One request per line, one response per line, UTF-8 JSON, ``\\n``
terminated.  Every frame carries the protocol version so a broker (or a
newer client) can negotiate instead of mis-parsing — the framing is
deliberately transport-agnostic: today the daemon speaks it over a unix
socket or TCP, later the same payloads can ride a message broker
(dragon-style) with the ``id`` field doing correlation.

Request::

    {"v": 1, "id": 7, "op": "reorder", "fingerprint": "...",
     "pattern": "ring", "layout": "block-bunch", "seed": 0}

Response::

    {"v": 1, "id": 7, "ok": true, "op": "reorder",
     "result": {...}, "server_seconds": 0.0123}

Error response (the connection stays alive; see ``ERROR_*`` codes)::

    {"v": 1, "id": 7, "ok": false,
     "error": {"code": "bad-request", "message": "..."}}

This module is pure data plumbing: no sockets, no asyncio, no pipeline
imports — the protocol tests exercise it in isolation and the client
reuses it verbatim.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "ERROR_BAD_JSON",
    "ERROR_BAD_VERSION",
    "ERROR_UNKNOWN_OP",
    "ERROR_BAD_REQUEST",
    "ERROR_OVERSIZED",
    "ERROR_UNKNOWN_FINGERPRINT",
    "ERROR_INTERNAL",
    "ProtocolError",
    "encode_frame",
    "decode_request",
    "make_response",
    "make_error",
]

#: Bumped on any incompatible change to the frame layout.
PROTOCOL_VERSION = 1

#: Default ceiling on one request line (a p=16384 explicit layout as JSON
#: is ~120 KiB; 8 MiB leaves ample headroom without letting one client
#: buffer the daemon into the ground).
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Every operation the daemon answers.
OPS = ("register_topology", "reorder", "price", "stats", "health")

ERROR_BAD_JSON = "bad-json"
ERROR_BAD_VERSION = "bad-version"
ERROR_UNKNOWN_OP = "unknown-op"
ERROR_BAD_REQUEST = "bad-request"
ERROR_OVERSIZED = "oversized"
ERROR_UNKNOWN_FINGERPRINT = "unknown-fingerprint"
ERROR_INTERNAL = "internal"


class ProtocolError(ValueError):
    """A request the daemon must answer with a structured error frame.

    Raising one of these anywhere in the request path produces an
    ``ok: false`` response with the carried ``code`` — never a traceback
    on the wire and never a dead connection.
    """

    def __init__(self, code: str, message: str, request_id: Any = None) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        #: Echoed into the error frame when the request parsed far enough
        #: to carry one (e.g. a valid frame with an unknown op).
        self.request_id = request_id


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Serialise one frame to its wire form (compact JSON + newline)."""
    return json.dumps(frame, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def decode_request(line: bytes) -> Tuple[Any, str, Dict[str, Any]]:
    """Parse one request line into ``(id, op, payload)``.

    Raises :class:`ProtocolError` (``bad-json`` / ``bad-version`` /
    ``unknown-op`` / ``bad-request``) on anything malformed; the caller
    turns that into an error frame and keeps reading.
    """
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(ERROR_BAD_JSON, f"request is not valid JSON: {exc}")
    if not isinstance(frame, dict):
        raise ProtocolError(ERROR_BAD_JSON, "request frame must be a JSON object")
    rid = frame.get("id")
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ERROR_BAD_VERSION,
            f"unsupported protocol version {version!r} (server speaks {PROTOCOL_VERSION})",
            request_id=rid,
        )
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError(
            ERROR_BAD_REQUEST, "request lacks a string 'op' field", request_id=rid
        )
    if op not in OPS:
        raise ProtocolError(
            ERROR_UNKNOWN_OP,
            f"unknown op {op!r} (known: {', '.join(OPS)})",
            request_id=rid,
        )
    payload = {k: v for k, v in frame.items() if k not in ("v", "id", "op")}
    return frame.get("id"), op, payload


def make_response(
    request_id: Any, op: str, result: Dict[str, Any], server_seconds: Optional[float] = None
) -> Dict[str, Any]:
    """Success frame for one answered request."""
    frame: Dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
        "op": op,
        "result": result,
    }
    if server_seconds is not None:
        frame["server_seconds"] = round(float(server_seconds), 9)
    return frame


def make_error(request_id: Any, code: str, message: str) -> Dict[str, Any]:
    """Structured error frame (the connection survives)."""
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
