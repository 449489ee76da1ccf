"""Backend lifecycle: spawn/adopt ``repro.serve`` shards, track health.

A :class:`Backend` is one serve process the router dispatches to —
either spawned here as a local ``paraverser serve`` subprocess
(``--port 0``, the bound port parsed off its stdout) or adopted from a
``host:port`` address.  Each carries a :class:`BackendLink`, a
multiplexing newline-JSON connection that — unlike the plain
:class:`~repro.serve.client.AsyncEvalClient` — *fails* every in-flight
waiter when it is closed or lost, which is exactly what the router's
failover path needs: marking a shard down closes its link, the pending
forwards raise, and the dispatch loop re-sends them to the next ring
replica.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.serve import protocol

#: How a spawned ``paraverser serve`` announces its bound address.
_LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+)")

#: Seconds to wait for one spawned backend to report its port.
SPAWN_TIMEOUT_S = 60.0


class BackendDown(ConnectionError):
    """The backend's connection failed or was closed mid-request."""


class BackendLink:
    """One multiplexed connection to a backend, failover-friendly.

    Requests are matched to responses by ``request_id`` (the caller
    supplies unique ids).  On EOF, connection error, or :meth:`close`,
    every outstanding waiter gets :class:`BackendDown` instead of
    hanging — the router re-dispatches them elsewhere.
    """

    def __init__(self, host: str, port: int,
                 connect_timeout_s: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._read_task: asyncio.Task | None = None
        self._waiters: dict[str, asyncio.Future] = {}
        # Concurrent first requests must share one connection: a second
        # open would start a second read loop on the same stream.
        self._connect_lock = asyncio.Lock()

    async def _connect(self) -> None:
        async with self._connect_lock:
            if self._writer is not None:
                return
            try:
                self._reader, self._writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port,
                                            limit=protocol.MAX_LINE_BYTES),
                    timeout=self.connect_timeout_s)
            except (OSError, asyncio.TimeoutError) as exc:
                raise BackendDown(
                    f"connect to {self.host}:{self.port} failed: "
                    f"{exc}") from exc
            self._read_task = asyncio.create_task(
                self._read_loop(),
                name=f"router-link-{self.host}:{self.port}")

    async def _read_loop(self) -> None:
        assert self._reader is not None
        exc: Exception = BackendDown(
            f"backend {self.host}:{self.port} closed the connection")
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                payload = protocol.decode_message(line)
                waiter = self._waiters.pop(
                    payload.get("request_id", ""), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(payload)
        except (ConnectionResetError, BrokenPipeError, OSError,
                protocol.ProtocolError) as caught:
            exc = BackendDown(
                f"backend {self.host}:{self.port} link error: {caught}")
        except asyncio.CancelledError:
            exc = BackendDown(
                f"backend {self.host}:{self.port} link closed")
        self._fail_waiters(exc)
        # Reset so the next request() reconnects (and fails fast on a
        # dead backend) rather than writing into a half-closed socket
        # and waiting forever for a response that cannot come.
        writer, self._writer = self._writer, None
        self._reader = None
        if asyncio.current_task() is self._read_task:
            self._read_task = None
        if writer is not None:
            writer.close()

    def _fail_waiters(self, exc: Exception) -> None:
        waiters, self._waiters = self._waiters, {}
        for waiter in waiters.values():
            if not waiter.done():
                waiter.set_exception(exc)

    async def request(self, payload: dict) -> dict:
        """One round trip; raises :class:`BackendDown` on link failure."""
        await self._connect()
        assert self._writer is not None
        request_id = payload["request_id"]
        future = asyncio.get_running_loop().create_future()
        self._waiters[request_id] = future
        try:
            self._writer.write(protocol.encode_message(payload))
            await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            self._waiters.pop(request_id, None)
            await self.close()
            raise BackendDown(
                f"send to {self.host}:{self.port} failed: {exc}") from exc
        try:
            return await future
        finally:
            self._waiters.pop(request_id, None)

    async def close(self) -> None:
        """Drop the connection; outstanding waiters raise BackendDown."""
        task, self._read_task = self._read_task, None
        writer, self._writer = self._writer, None
        self._reader = None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._fail_waiters(BackendDown(
            f"backend {self.host}:{self.port} link closed"))


@dataclass
class Backend:
    """One serve shard: address, link, health and dispatch accounting."""

    name: str
    host: str
    port: int
    process: subprocess.Popen | None = None
    link: BackendLink = field(init=False)
    healthy: bool = True
    #: Requests currently forwarded and awaiting a response.
    inflight: int = 0
    inflight_max: int = 0
    forwarded: int = 0
    #: Forwards that failed here and were re-dispatched elsewhere.
    re_dispatched_away: int = 0
    mark_downs: int = 0

    def __post_init__(self) -> None:
        self.link = BackendLink(self.host, self.port)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


def parse_backend_address(raw: str) -> tuple[str, int]:
    """``host:port`` -> pair; SystemExit with a one-line message on junk.

    Mirrors the :mod:`repro.envutil` contract for CLI numerics: a typo
    in ``--backends`` fails with one actionable line, not a traceback.
    """
    host, sep, port = raw.rpartition(":")
    if not sep or not host:
        raise SystemExit(
            f"--backends entry {raw!r} is not host:port; "
            f"use e.g. 127.0.0.1:8347")
    try:
        port_num = int(port)
    except ValueError:
        raise SystemExit(
            f"--backends entry {raw!r} has a non-integer port; "
            f"use e.g. {host}:8347") from None
    if not 0 < port_num < 65536:
        raise SystemExit(
            f"--backends entry {raw!r} has an out-of-range port; "
            f"ports are 1..65535")
    return host, port_num


class BackendManager:
    """Owns the shard set: spawning, adoption, teardown, health flips."""

    def __init__(self) -> None:
        self.backends: dict[str, Backend] = {}

    def __len__(self) -> int:
        return len(self.backends)

    @property
    def names(self) -> list[str]:
        return sorted(self.backends)

    def adopt(self, addresses: list[tuple[str, int]]) -> list[Backend]:
        """Register already-running backends by address.

        Names are the ``host:port`` strings — stable identities, so
        ring placement survives router restarts against the same fleet.
        """
        added = []
        for host, port in addresses:
            backend = Backend(name=f"{host}:{port}", host=host, port=port)
            self.backends[backend.name] = backend
            added.append(backend)
        return added

    def spawn_local(self, count: int, *, workers: int = 1,
                    trace_dir: str | None = None,
                    batch_window_ms: float | None = None,
                    extra_args: list[str] | None = None) -> list[Backend]:
        """Start ``count`` local serve subprocesses on OS-assigned ports.

        Names are ``shard<i>`` — deterministic, so the ring lays out
        identically for every ``--shards N`` router regardless of which
        ports the OS hands out.  Each shard leads its own process
        group (a new session), so :meth:`stop_processes` can stop it
        together with its forked pool workers.
        """
        added = []
        for index in range(count):
            argv = [sys.executable, "-m", "repro.cli", "serve",
                    "--port", "0", "--workers", str(workers)]
            if trace_dir:
                argv += ["--trace-cache", trace_dir]
            if batch_window_ms is not None:
                argv += ["--batch-window-ms", str(batch_window_ms)]
            if extra_args:
                argv += extra_args
            process = subprocess.Popen(
                argv, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True,
                start_new_session=True)
            host, port = self._wait_for_listen(process)
            self._drain_stdout(process)
            backend = Backend(name=f"shard{index}", host=host, port=port,
                              process=process)
            self.backends[backend.name] = backend
            added.append(backend)
        return added

    @staticmethod
    def _wait_for_listen(process: subprocess.Popen) -> tuple[str, int]:
        assert process.stdout is not None
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                raise RuntimeError(
                    "spawned serve backend exited before listening "
                    f"(exit code {process.poll()})")
            match = _LISTEN_RE.search(line)
            if match:
                return match.group(1), int(match.group(2))
        process.kill()
        raise RuntimeError("spawned serve backend never reported its port")

    @staticmethod
    def _drain_stdout(process: subprocess.Popen) -> None:
        """Keep reading the shard's stdout so it never blocks on a full
        pipe once it starts logging requests."""
        def _drain() -> None:
            assert process.stdout is not None
            for _ in process.stdout:
                pass

        threading.Thread(target=_drain, daemon=True,
                         name=f"router-drain-{process.pid}").start()

    async def close_links(self) -> None:
        for backend in self.backends.values():
            await backend.link.close()

    def stop_processes(self, timeout_s: float = 15.0) -> None:
        """Terminate (then kill) every backend spawned here.

        Signals go to each shard's whole process group, so its pool
        workers stop with it — also those a SIGKILLed shard parent left
        behind.  Group members still alive once the parent is reaped
        are killed outright.
        """
        spawned = [b.process for b in self.backends.values()
                   if b.process is not None]
        for process in spawned:
            _signal_group(process, signal.SIGTERM)
        for process in spawned:
            try:
                process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                _signal_group(process, signal.SIGKILL)
                process.wait()
            _signal_group(process, signal.SIGKILL)


def _signal_group(process: subprocess.Popen, sig: int) -> None:
    """Send ``sig`` to the process group ``process`` leads, if any is left."""
    try:
        os.killpg(process.pid, sig)
    except ProcessLookupError:
        pass


# -- request-id supply for forwarded traffic ---------------------------------

_FORWARD_IDS = itertools.count(1)


def next_forward_id() -> str:
    """Router-side request id for one forwarded wire message."""
    return f"fwd{next(_FORWARD_IDS)}"
