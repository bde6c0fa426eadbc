"""Synchronous client for the reordering daemon.

:class:`ServeClient` speaks the :mod:`repro.serve.protocol` JSON-lines
framing over a unix socket or TCP connection, one request at a time
(responses come back in request order, matching the server's
per-connection semantics).  It is what the benchmark's serve workload
(``perf/``), the CI smoke job and external callers use;
concurrency comes from running several clients, not from pipelining one.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.serve.protocol import PROTOCOL_VERSION, encode_frame

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """Structured error answer from the daemon (``ok: false`` frame)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class ServeClient:
    """One connection to a running ``repro serve`` daemon.

    Parameters
    ----------
    socket_path:
        Unix socket the daemon listens on; mutually exclusive with
        ``host``/``port``.
    host / port:
        TCP endpoint (``repro serve --port``).
    timeout:
        Per-request socket timeout in seconds.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        timeout: float = 60.0,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("pass exactly one of socket_path or port")
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        else:
            self._sock = socket.create_connection((host, int(port)), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._next_id = 0
        #: ``server_seconds`` of the last successful response (None for
        #: error frames) — the load generator reads this next to its own
        #: client-side wall clock.
        self.last_server_seconds: Optional[float] = None

    # ------------------------------------------------------------------
    def _read_line(self) -> bytes:
        """One full response line, however long (empty bytes at EOF).

        Responses are not bounded by the server (a big topology's stats
        frame can exceed the *request* line ceiling), so a size-limited
        ``readline`` could hand back a partial line and permanently
        desync the connection; accumulate until the newline instead.
        """
        chunks: List[bytes] = []
        while True:
            chunk = self._file.readline(1 << 20)
            if not chunk:
                if chunks:
                    raise ConnectionError("daemon closed the connection mid-response")
                return b""
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                return b"".join(chunks)

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request, wait for its response, return ``result``.

        Raises :class:`ServeError` on an ``ok: false`` frame and
        :class:`ConnectionError` if the daemon hung up mid-exchange.
        """
        self._next_id += 1
        request_id = self._next_id
        frame = {"v": PROTOCOL_VERSION, "id": request_id, "op": op, **fields}
        self._sock.sendall(encode_frame(frame))
        line = self._read_line()
        if not line:
            raise ConnectionError("daemon closed the connection")
        answer = json.loads(line.decode("utf-8"))
        if answer.get("id") != request_id:
            raise ConnectionError(
                f"response id {answer.get('id')!r} does not match request {request_id}"
            )
        if not answer.get("ok"):
            err = answer.get("error") or {}
            self.last_server_seconds = None
            raise ServeError(err.get("code", "unknown"), err.get("message", ""))
        self.last_server_seconds = answer.get("server_seconds")
        return answer["result"]

    # ------------------------------------------------------------------
    # one convenience wrapper per op
    # ------------------------------------------------------------------
    def register_topology(self, spec: Mapping[str, Any]) -> Dict[str, Any]:
        return self.request("register_topology", spec=dict(spec))

    def reorder(
        self,
        fingerprint: str,
        pattern: str,
        layout: Union[str, Sequence[int]],
        seed: int = 0,
        kind: str = "heuristic",
        p: Optional[int] = None,
        options: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "fingerprint": fingerprint,
            "pattern": pattern,
            "layout": layout if isinstance(layout, str) else [int(c) for c in layout],
            "seed": seed,
            "kind": kind,
        }
        if p is not None:
            fields["p"] = int(p)
        if options:
            fields["options"] = dict(options)
        return self.request("reorder", **fields)

    def price(
        self,
        fingerprint: str,
        algorithm: str,
        sizes: Sequence[Union[int, float]],
        mapping: Optional[Sequence[int]] = None,
        layout: Union[str, Sequence[int], None] = None,
        p: Optional[int] = None,
        extra_copy_bytes: float = 0.0,
    ) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "fingerprint": fingerprint,
            "algorithm": algorithm,
            "sizes": list(sizes),
        }
        if mapping is not None:
            fields["mapping"] = [int(c) for c in mapping]
        if layout is not None:
            fields["layout"] = (
                layout if isinstance(layout, str) else [int(c) for c in layout]
            )
        if p is not None:
            fields["p"] = int(p)
        if extra_copy_bytes:
            fields["extra_copy_bytes"] = float(extra_copy_bytes)
        return self.request("price", **fields)

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def health(self) -> Dict[str, Any]:
        return self.request("health")

    # ------------------------------------------------------------------
    def send_raw(self, data: bytes) -> List[bytes]:
        """Write raw bytes and read one response line (protocol tests)."""
        self._sock.sendall(data)
        line = self._read_line()
        return [line] if line else []

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
