"""Evaluation service: deadlines, shedding, retries, end-to-end serving.

The end-to-end tests run the real stack — TCP server, admission queue,
batcher, process pool — on localhost with a tiny instruction budget and
check the acceptance properties: served results are bit-identical to
direct pipeline runs, requests coalesce (unique simulations < requests
served) and the trace cache is hit.
"""

import asyncio
import json
import threading
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.harness.runner import WorkloadCache
from repro.serve.client import AsyncEvalClient, EvalClient
from repro.serve.protocol import (
    EvalRequest,
    ProtocolError,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    decode_message,
    encode_message,
)
from repro.serve.service import EvalService
from repro.serve.workers import WorkerPool, evaluate_specs
from tests.test_serve_protocol import BAD_WIRE_PAYLOADS

BUDGET = 4000
SEED = 7


def _req(workload="exchange2", backend="paraverser-full", **kwargs):
    kwargs.setdefault("instructions", BUDGET)
    kwargs.setdefault("seed", SEED)
    return EvalRequest(workload=workload, backend=backend, **kwargs)


# -- fake pools -------------------------------------------------------------

class FakePool:
    """In-process pool stub; evaluates nothing, returns canned rows."""

    def __init__(self, delay_s=0.0, rows=None, fail_times=0):
        self.delay_s = delay_s
        self.rows = rows
        self.fail_times = fail_times
        self.calls = 0
        self.resets = 0

    async def run_group(self, specs):
        self.calls += 1
        if self.fail_times > 0:
            self.fail_times -= 1
            raise BrokenExecutor("worker died")
        if self.delay_s:
            await asyncio.sleep(self.delay_s)
        if self.rows is not None:
            return [dict(self.rows[i % len(self.rows)])
                    for i in range(len(specs))]
        return [{"workload": spec["workload"], "ok": True,
                 "trace_source": "computed"} for spec in specs]

    def reset(self):
        self.resets += 1

    def shutdown(self, wait=True):
        pass


async def _with_service(pool, coro, **kwargs):
    kwargs.setdefault("batch_window_s", 0.01)
    service = EvalService(pool, **kwargs)
    await service.start()
    try:
        return await coro(service)
    finally:
        await service.stop()


class TestServiceBehaviour:
    def test_deadline_expiry_returns_timeout_not_a_hang(self):
        async def scenario(service):
            async with AsyncEvalClient(service.host, service.port) as client:
                return await asyncio.wait_for(
                    client.evaluate(_req(timeout_s=0.15)), timeout=5.0)

        response = asyncio.run(_with_service(FakePool(delay_s=1.0),
                                             scenario))
        assert response.status == STATUS_TIMEOUT
        assert "deadline" in response.error

    def test_saturated_queue_sheds(self):
        async def scenario(service):
            async with AsyncEvalClient(service.host, service.port) as client:
                responses = await asyncio.gather(*[
                    client.evaluate(_req(request_id=f"r{i}",
                                         timeout_s=10.0))
                    for i in range(6)])
            return responses

        # One-deep queue, slow pool, wide batch window: most requests
        # arrive while the queue is still holding the first one.
        responses = asyncio.run(_with_service(
            FakePool(delay_s=0.2), scenario,
            queue_depth=1, batch_window_s=0.3))
        statuses = [r.status for r in responses]
        assert statuses.count(STATUS_SHED) >= 1
        assert statuses.count(STATUS_OK) >= 1
        shed = next(r for r in responses if r.status == STATUS_SHED)
        assert "saturated" in shed.error

    def test_worker_crash_retries_with_backoff(self):
        pool = FakePool(fail_times=1)

        async def scenario(service):
            async with AsyncEvalClient(service.host, service.port) as client:
                return await client.evaluate(_req(timeout_s=10.0))

        response = asyncio.run(_with_service(
            pool, scenario, max_retries=2, retry_backoff_s=0.01))
        assert response.status == STATUS_OK
        assert pool.calls == 2 and pool.resets == 1

    def test_worker_crash_exhausts_retries(self):
        pool = FakePool(fail_times=10)

        async def scenario(service):
            async with AsyncEvalClient(service.host, service.port) as client:
                return await client.evaluate(_req(timeout_s=10.0))

        response = asyncio.run(_with_service(
            pool, scenario, max_retries=1, retry_backoff_s=0.01))
        assert response.status == STATUS_ERROR
        assert "worker pool failed" in response.error
        assert pool.calls == 2

    def test_error_row_maps_to_error_response(self):
        pool = FakePool(rows=[{"error": "ValueError: nope"}])

        async def scenario(service):
            async with AsyncEvalClient(service.host, service.port) as client:
                return await client.evaluate(_req(timeout_s=10.0))

        response = asyncio.run(_with_service(pool, scenario))
        assert response.status == STATUS_ERROR
        assert "ValueError: nope" in response.error

    def test_unknown_names_rejected_at_admission(self):
        pool = FakePool()

        async def scenario(service):
            async with AsyncEvalClient(service.host, service.port) as client:
                bad_workload = await client.evaluate(
                    _req(workload="doom", timeout_s=5.0))
                bad_backend = await client.evaluate(
                    _req(backend="quantum-lockstep", timeout_s=5.0))
            return bad_workload, bad_backend

        bad_workload, bad_backend = asyncio.run(
            _with_service(pool, scenario))
        assert bad_workload.status == STATUS_ERROR
        assert "unknown workload" in bad_workload.error
        assert bad_backend.status == STATUS_ERROR
        assert "quantum-lockstep" in bad_backend.error
        assert pool.calls == 0  # nothing reached the pool

    def test_bad_specs_answer_error_before_admission(self):
        pool = FakePool()

        async def scenario(service):
            return await _raw_round_trips(service.host, service.port,
                                          BAD_WIRE_PAYLOADS)

        replies = asyncio.run(_with_service(pool, scenario))
        for i, reply in enumerate(replies):
            assert reply["status"] == STATUS_ERROR
            assert reply["request_id"] == f"bad{i}"
            assert "\n" not in reply["error"]
        assert pool.calls == 0  # nothing reached the pool


async def _raw_round_trips(host, port, payloads):
    """Send wire payloads as-is (no client-side validation), in turn."""
    reader, writer = await asyncio.open_connection(host, port)
    replies = []
    try:
        for i, payload in enumerate(payloads):
            writer.write(encode_message(dict(payload, request_id=f"bad{i}")))
            await writer.drain()
            replies.append(decode_message(await reader.readline()))
    finally:
        writer.close()
        await writer.wait_closed()
    return replies


# -- end-to-end over localhost ---------------------------------------------

class ServiceThread:
    """Runs the real service in a daemon thread for sync-client tests."""

    def __init__(self, trace_dir, workers=2, **kwargs):
        self.trace_dir = trace_dir
        self.workers = workers
        self.kwargs = kwargs
        self.host = None
        self.port = None
        self.service = None
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        pool = WorkerPool(workers=self.workers, trace_dir=self.trace_dir)
        self.service = EvalService(pool, **self.kwargs)
        self.host, self.port = await self.service.start()
        self._ready.set()
        await self._stop.wait()
        await self.service.stop()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30), "service did not start"
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)


@pytest.fixture(scope="module")
def live_service(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("serve-trace-cache")
    with ServiceThread(str(trace_dir), workers=2,
                       batch_window_s=0.4) as running:
        yield running


def _direct_row(backend_name, workload):
    """The reference result: a direct in-process pipeline evaluation."""
    from repro.detect import get_backend

    cache = WorkloadCache(max_instructions=BUDGET, seed=SEED,
                          trace_cache=None)
    report = get_backend(backend_name).evaluate(cache, workload)
    return {
        "backend": report.backend,
        "workload": report.benchmark,
        "slowdown_percent": report.slowdown_percent,
        "coverage": report.coverage,
        "energy_overhead_percent": report.energy_overhead_percent,
        "area_overhead_percent": report.area_overhead_percent,
        "segments": report.segments,
        "verified_clean": report.verified_clean,
    }


class TestEndToEnd:
    def test_eight_concurrent_clients_bit_identical_and_coalesced(
            self, live_service):
        pairs = [("exchange2", "paraverser-full"),
                 ("mcf", "paraverser-full"),
                 ("exchange2", "dual-lockstep"),
                 ("mcf", "dual-lockstep")] * 2  # 8 requests, 4 unique

        def one_client(index):
            workload, backend = pairs[index]
            with EvalClient(live_service.host, live_service.port) as client:
                return client.evaluate(
                    _req(workload=workload, backend=backend,
                         request_id=f"client-{index}", timeout_s=300.0))

        with ThreadPoolExecutor(max_workers=8) as executor:
            responses = list(executor.map(one_client, range(8)))

        assert all(r.status == STATUS_OK for r in responses)
        # Bit-identical to direct pipeline runs, duplicate included.
        for (workload, backend), response in zip(pairs, responses):
            expected = _direct_row(backend, workload)
            got = {key: response.result[key] for key in expected}
            assert got == expected, (workload, backend)

        with EvalClient(live_service.host, live_service.port) as client:
            serve = client.stats()["serve"]
        assert serve["requests_served"] >= 8
        assert serve["unique_simulations"] < serve["requests_served"]
        assert serve["trace"]["hits"] > 0
        assert serve["batch_requests"]["max"] >= 2

    def test_second_wave_hits_persistent_trace_cache(self, live_service):
        # The module-scoped service already computed this trace; a new
        # request must find it in a worker's memory or on disk, never
        # recompute-and-diverge.
        with EvalClient(live_service.host, live_service.port) as client:
            response = client.evaluate(
                _req(workload="exchange2", backend="paraverser-sampling",
                     timeout_s=300.0))
        assert response.status == STATUS_OK
        assert response.result["trace_source"] in ("memory", "disk")

    def test_checkers_spec_request(self, live_service):
        with EvalClient(live_service.host, live_service.port) as client:
            response = client.evaluate(EvalRequest(
                workload="exchange2", checkers="2xA510@2.0",
                mode="opportunistic", instructions=BUDGET, seed=SEED,
                timeout_s=300.0))
        assert response.status == STATUS_OK
        row = response.result
        assert row["config_label"]
        assert 0.0 <= row["coverage"] <= 1.0
        assert row["verified_clean"] is True

    def test_ping_and_stats_ops(self, live_service):
        client = EvalClient(live_service.host, live_service.port)
        with client:
            assert client.ping()
            tree = client.stats()
        assert "serve" in tree
        assert "queue" in tree["serve"]

    def test_stats_since_streams_epochs(self, live_service):
        with EvalClient(live_service.host, live_service.port) as client:
            first = client.stats(since=0)
            assert set(first) == {"epoch", "stats", "delta"}
            assert first["epoch"] >= 1
            assert "serve" in first["stats"]
            # Each epoch-view query publishes a fresh snapshot, so the
            # stream always advances and deltas never repeat.
            second = client.stats(since=first["epoch"])
            assert second["epoch"] > first["epoch"]
            assert isinstance(second["delta"], dict)
            # A plain call keeps the legacy bare-tree shape.
            bare = client.stats()
            assert "serve" in bare and "epoch" not in bare

    def test_stats_since_rejects_bad_cursor(self, live_service):
        with EvalClient(live_service.host, live_service.port) as client:
            with pytest.raises(ProtocolError, match="since"):
                client.stats(since=-1)

    def test_cli_eval_round_trip(self, live_service, capsys):
        code = main(["eval", "-w", "exchange2",
                     "--backend", "paraverser-full",
                     "-n", str(BUDGET), "--seed", str(SEED),
                     "--host", live_service.host,
                     "--port", str(live_service.port),
                     "--timeout", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "slowdown:" in out and "coverage:" in out
        assert "paraverser-full" in out

    def test_cli_eval_json_output(self, live_service, capsys):
        code = main(["eval", "-w", "exchange2",
                     "--backend", "dual-lockstep",
                     "-n", str(BUDGET), "--seed", str(SEED),
                     "--host", live_service.host,
                     "--port", str(live_service.port),
                     "--timeout", "300", "--json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)
        assert row["backend"] == "dual-lockstep"
        assert row["workload"] == "exchange2"

    def test_cli_eval_unreachable_server(self, capsys):
        code = main(["eval", "-w", "exchange2",
                     "--backend", "paraverser-full",
                     "--port", "1"])  # nothing listens on port 1
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err


class TestWorkerEntryPoints:
    def test_evaluate_specs_row_error_isolation(self):
        good = _req().sim_spec()
        bad = _req(workload="doom").sim_spec()
        rows = evaluate_specs([bad, good])
        assert set(rows[0]) == {"error"}
        assert "doom" in rows[0]["error"]
        assert rows[1]["workload"] == "exchange2"
        assert rows[1]["trace_source"] in ("computed", "memory", "disk")

    def test_fault_injection_spec(self):
        spec = _req(backend=None, checkers="1xA510@1.0",
                    fault_trials=3).sim_spec()
        spec["mode"] = "opportunistic"
        row = evaluate_specs([spec])[0]
        assert row["injection"]["injected"] == 3
        assert (row["injection"]["detected"]
                + row["injection"]["masked"] <= 3)
