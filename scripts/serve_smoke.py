#!/usr/bin/env python
"""Serve smoke check: real server process, concurrent CLI clients.

Starts ``paraverser serve`` as a subprocess, issues two concurrent
``paraverser eval`` requests for the same (workload, backend) pair,
and asserts:

* both clients get identical results;
* the served stats tree records a batch (batch-size stat >= 1).

Exits non-zero on any failure; the caller wraps it in a hard timeout so
a hung event loop fails fast instead of stalling CI.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

WORKLOAD = "exchange2"
BACKEND = "paraverser-full"
BUDGET = "6000"
LISTEN = re.compile(r"listening on ([\d.]+):(\d+)")


def _eval_once(host: str, port: int) -> dict:
    out = subprocess.check_output(
        [sys.executable, "-m", "repro.cli", "eval",
         "-w", WORKLOAD, "--backend", BACKEND, "-n", BUDGET,
         "--host", host, "--port", str(port),
         "--timeout", "240", "--json"],
        text=True)
    return json.loads(out)


def main() -> int:
    trace_dir = tempfile.mkdtemp(prefix="serve-smoke-")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--workers", "2", "--batch-window-ms", "300",
         "--trace-cache", trace_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True)
    try:
        host = port = None
        deadline = time.monotonic() + 60
        assert server.stdout is not None
        while time.monotonic() < deadline:
            line = server.stdout.readline()
            if not line:
                raise SystemExit("server exited before listening")
            sys.stdout.write(f"server: {line}")
            match = LISTEN.search(line)
            if match:
                host, port = match.group(1), int(match.group(2))
                break
        if port is None:
            raise SystemExit("server never reported its port")

        with ThreadPoolExecutor(max_workers=2) as pool:
            rows = list(pool.map(lambda _: _eval_once(host, port),
                                 range(2)))
        if rows[0] != rows[1]:
            raise SystemExit(f"divergent results:\n{rows[0]}\n{rows[1]}")
        print(f"identical results: slowdown "
              f"{rows[0]['slowdown_percent']:+.2f}%, "
              f"coverage {rows[0]['coverage'] * 100:.1f}%")

        from repro.serve.client import EvalClient

        with EvalClient(host, port) as client:
            serve = client.stats()["serve"]
        batch_max = serve["batch_requests"]["max"]
        if not batch_max or batch_max < 1:
            raise SystemExit(f"no batch recorded: {serve}")
        print(f"batches: {serve['batches']}, "
              f"max batch size: {batch_max}, "
              f"unique sims: {serve['unique_simulations']}, "
              f"requests served: {serve['requests_served']}")
        return 0
    finally:
        # Signal the server's whole process group so its pool workers
        # go with it, then kill whatever outlived the server.
        _signal_group(server, signal.SIGTERM)
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        _signal_group(server, signal.SIGKILL)


def _signal_group(process: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(process.pid, sig)
    except ProcessLookupError:
        pass


if __name__ == "__main__":
    sys.exit(main())
