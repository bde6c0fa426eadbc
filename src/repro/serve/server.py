"""Asyncio JSON-lines server: warm-state reordering as a service.

``repro serve`` wraps :class:`ReproServer`, a single-process daemon that
keeps the :class:`~repro.serve.registry.TopologyRegistry` warm and
answers :mod:`repro.serve.protocol` frames over a unix socket and/or a
TCP port.  Every request takes one of three routes:

* ``health`` is answered on the event loop;
* **warm fast path** — a reorder whose result is resident in the shared
  mapping cache is answered inline on the event loop
  (:meth:`~repro.serve.service.ReorderService.reorder_warm`), with no
  executor hop;
* every other op runs on a one-thread executor lane, in arrival order.

The lane serialises all cache mutation (no locks in the service layer)
while the event loop stays responsive for ``health``, warm hits and
reading new requests; ``stats`` rides the lane because its registry
snapshot walks the same LRU dicts the lane mutates.  Identical
concurrent requests compute once without any coalescing: the lane runs
them in turn, so every one after the first is a mapping-cache or
pricing-LRU hit.  SIGTERM/SIGINT trigger a graceful drain: listeners
close, in-flight work finishes and is answered, idle connections are
torn down, then the process exits.

Connections are handled strictly request-by-request (responses on one
connection come back in request order).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import signal
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.serve.protocol import (
    ERROR_INTERNAL,
    ERROR_OVERSIZED,
    MAX_LINE_BYTES,
    ProtocolError,
    decode_request,
    encode_frame,
    make_error,
    make_response,
)
from repro.serve.registry import DEFAULT_TOPOLOGY_CAP
from repro.serve.service import ReorderService

__all__ = ["ServerConfig", "ReproServer"]

_READ_CHUNK = 1 << 16


def _unix_socket_alive(path: str) -> bool:
    """True iff something accepts connections on the unix socket ``path``."""
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(0.5)
        probe.connect(path)
    except OSError:
        return False
    else:
        return True
    finally:
        probe.close()


@dataclass
class ServerConfig:
    """Knobs of one daemon instance (CLI flags map 1:1)."""

    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: Optional[int] = None
    topology_cap: int = DEFAULT_TOPOLOGY_CAP
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.socket_path is None and self.port is None:
            raise ValueError("server needs a unix socket path and/or a TCP port")


class OversizedLineError(Exception):
    """One request line exceeded :data:`MAX_LINE_BYTES` (line discarded)."""


class _LineReader:
    """Bounded newline framing over a raw :class:`asyncio.StreamReader`.

    ``readline`` returns one complete line (without the newline), or
    ``None`` at EOF.  A line longer than :data:`MAX_LINE_BYTES` raises
    :class:`OversizedLineError` *after* discarding through its
    terminating newline, so the connection stays usable — the stdlib
    reader's ``LimitOverrunError`` leaves the buffer unrecoverable,
    which is exactly the daemon-killing behaviour this avoids.
    """

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._buf = bytearray()
        self._eof = False

    async def readline(self) -> Optional[bytes]:
        discarding = False
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                line = bytes(self._buf[:nl])
                del self._buf[: nl + 1]
                if discarding or len(line) > MAX_LINE_BYTES:
                    raise OversizedLineError()
                return line
            if discarding:
                del self._buf[:]
            elif len(self._buf) > MAX_LINE_BYTES:
                discarding = True
                del self._buf[:]
            if self._eof:
                if discarding:
                    raise OversizedLineError()
                # Consume the final unterminated line so the next call
                # sees an empty buffer and returns None instead of
                # replaying the same bytes forever.
                line = bytes(self._buf)
                del self._buf[:]
                return line if line else None
            chunk = await self._reader.read(_READ_CHUNK)
            if not chunk:
                self._eof = True
            else:
                self._buf.extend(chunk)


class ReproServer:
    """The daemon: listeners and one pipeline lane around a ReorderService."""

    def __init__(
        self, config: ServerConfig, service: Optional[ReorderService] = None
    ) -> None:
        self.config = config
        self.service = (
            service
            if service is not None
            else ReorderService(topology_cap=config.topology_cap)
        )
        self.port: Optional[int] = None  # bound TCP port (after start)
        self._active = 0     # requests currently being dispatched
        self._servers: List[asyncio.AbstractServer] = []
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._stopping: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._lane = None  # one-thread executor: all pipeline work, in order

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind listeners and get ready to accept (does not block)."""
        from concurrent.futures import ThreadPoolExecutor

        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._lane = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-lane"
        )
        if self.config.socket_path is not None:
            path = Path(self.config.socket_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                # Only clear a *stale* socket.  If another daemon still
                # answers on it, unlinking here would silently steal its
                # traffic — refuse to start instead.
                if _unix_socket_alive(str(path)):
                    raise RuntimeError(
                        f"another daemon is already listening on {path}; "
                        "stop it or pass a different --socket"
                    )
                path.unlink()
            self._servers.append(
                await asyncio.start_unix_server(self._on_connection, path=str(path))
            )
        if self.config.port is not None:
            server = await asyncio.start_server(
                self._on_connection, host=self.config.host, port=self.config.port
            )
            self.port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        self._install_signal_handlers()

    async def run(self) -> None:
        """Serve until SIGTERM/SIGINT (or :meth:`request_stop`), then drain."""
        if not self._servers:
            await self.start()
        await self._stopping.wait()
        await self._shutdown()

    def request_stop(self) -> None:
        """Thread-safe stop trigger (what the signal handlers call)."""
        if self._loop is None or self._stopping is None:
            return
        self._loop.call_soon_threadsafe(self._stopping.set)

    def _install_signal_handlers(self) -> None:
        # Only possible on the main thread of the main interpreter; the
        # embedded/test harness runs the loop on a worker thread and
        # stops via request_stop() instead.
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self._stopping.set)
            except (NotImplementedError, RuntimeError, ValueError):
                return

    async def _shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, tear down."""
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout
        while self._active > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._lane is not None:
            self._lane.shutdown(wait=True)
        if self.config.socket_path is not None:
            with contextlib.suppress(OSError):
                Path(self.config.socket_path).unlink()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        lines = _LineReader(reader)
        try:
            while not self._stopping.is_set():
                try:
                    line = await lines.readline()
                except OversizedLineError:
                    writer.write(
                        encode_frame(
                            make_error(
                                None,
                                ERROR_OVERSIZED,
                                f"request line exceeds {MAX_LINE_BYTES} bytes",
                            )
                        )
                    )
                    self.service.errors += 1
                    await writer.drain()
                    continue
                if line is None:
                    break
                if not line.strip():
                    continue
                frame = await self._answer(line)
                writer.write(encode_frame(frame))
                await writer.drain()
        except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()

    async def _answer(self, line: bytes) -> Dict[str, Any]:
        """Decode, dispatch and time one request; never raises."""
        request_id: Any = None
        t0 = time.perf_counter()
        self._active += 1
        try:
            request_id, op, payload = decode_request(line)
            self.service.count_request(op)
            result = await self._dispatch(op, payload)
            return make_response(request_id, op, result, time.perf_counter() - t0)
        except ProtocolError as exc:
            self.service.errors += 1
            if request_id is None:
                request_id = exc.request_id
            return make_error(request_id, exc.code, exc.message)
        except Exception as exc:  # never let a handler bug kill the daemon
            self.service.errors += 1
            return make_error(
                request_id, ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        finally:
            self._active -= 1

    async def _dispatch(self, op: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
        if op == "health":
            return self.service.health(self._server_extra())
        if op == "reorder":
            # A mapping-cache hit is answered inline; anything that probes
            # cold (including anything malformed) takes the lane below.
            warm = self.service.reorder_warm(payload)
            if warm is not None:
                return warm
        if op == "stats":
            call = functools.partial(self.service.stats, self._server_extra())
        else:
            handler = {
                "register_topology": self.service.register_topology,
                "reorder": self.service.reorder,
                "price": self.service.price,
            }[op]
            call = functools.partial(handler, payload)
        return await self._loop.run_in_executor(self._lane, call)

    def _server_extra(self) -> Dict[str, Any]:
        listening = []
        if self.config.socket_path is not None:
            listening.append(f"unix:{self.config.socket_path}")
        if self.port is not None:
            listening.append(f"tcp:{self.config.host}:{self.port}")
        return {"inflight": self._active, "listening": listening}
