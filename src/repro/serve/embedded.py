"""In-process daemon harness for tests and the benchmark's serve workload.

:class:`EmbeddedServer` runs a :class:`~repro.serve.server.ReproServer`
event loop on a background thread so synchronous code — pytest, the
serve workload of ``perf/run.py`` — can talk to a real daemon
through real sockets without forking a subprocess.  The server object
itself is exposed, so tests can reach its bound port and service
directly in addition to the ``stats`` op.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.serve.client import ServeClient
from repro.serve.server import ReproServer, ServerConfig

__all__ = ["EmbeddedServer"]

_START_TIMEOUT = 30.0


class EmbeddedServer:
    """A ReproServer on a daemon thread; use as a context manager."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        # Port 0 = kernel-assigned; the bound port is read back after start.
        self.config = config if config is not None else ServerConfig(port=0)
        self.server = ReproServer(self.config)
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def start(self) -> "EmbeddedServer":
        if self._thread is not None:
            raise RuntimeError("embedded server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-embedded", daemon=True
        )
        self._thread.start()
        if not self._started.wait(_START_TIMEOUT):
            raise RuntimeError("embedded server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("embedded server failed to start") from self._startup_error
        return self

    def _run_loop(self) -> None:
        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._started.set()
                raise
            self._started.set()
            await self.server._stopping.wait()
            await self.server._shutdown()

        try:
            asyncio.run(main())
        except BaseException:
            # Startup failures are re-raised to the caller in start();
            # anything after that would only kill this daemon thread.
            if not self._started.is_set():
                self._started.set()

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain (the SIGTERM path), then join the loop thread."""
        if self._thread is None:
            return
        self.server.request_stop()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("embedded server did not stop in time")
        self._thread = None

    # ------------------------------------------------------------------
    def client(self, timeout: float = 60.0) -> ServeClient:
        """New synchronous connection to this server."""
        if self.config.socket_path is not None:
            return ServeClient(socket_path=self.config.socket_path, timeout=timeout)
        return ServeClient(
            host=self.config.host, port=self.server.port, timeout=timeout
        )

    def __enter__(self) -> "EmbeddedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
