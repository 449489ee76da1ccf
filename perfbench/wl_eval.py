"""Workload ``eval``: closed-loop callers through ``paraverser route``.

Set-up spawns ``paraverser route --shards 2 --workers 1`` with a shared
trace-cache directory and waits until the router and both shards answer
``ping``.  A pass starts from fresh router and shard processes and an
empty cache directory, and runs four callers pipelined two to each of
two ``AsyncEvalClient`` connections, each sending its next request as
soon as its reply lands.  Requests come from a seeded deck: 90% ``eval``
requests keyed Zipf(1.1) over 8 profiles x 3 schemes at 20k
instructions, 10% 40-trial ``campaign`` requests the router fans out
into trial windows.  Latency runs from send to reply.  Every row is
checked against the digest of in-process ``evaluate_spec`` on the same
spec (the unsplit campaign for campaign rows).

The benchmark seed shuffles the deck; the simulated programs use the
serve default spec seed.  Across program seeds the cost of a pass varies
by up to 1.6x, which the few dozen requests of one pass cannot average
out (the ``run`` and ``campaign`` workloads draw program seeds instead).

Closed, not open: on a 2-CPU host the stack serves about 2.3 requests/s,
so an open loop at half that rate gets about 25 requests into a run, and
its p50/p90 spread across seeds measured 0.27-1.4 of the median.
Callers that wait for their replies get over a hundred requests into a
run with the profiles below, and no arrival bursts.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import re
import shutil
import signal
import socket
import subprocess
import sys
import time

from common import (
    ROOT,
    WORK,
    BenchError,
    HostSpeed,
    digest,
    median,
    program_env,
    quantile,
    rng_for,
)
from metrics import EVAL_CONNECTIONS, EVAL_SHARDS, EVAL_WORKERS_PER_SHARD

INSTRUCTIONS = 20_000
#: Zipf rank order.  The paper's two headline workloads plus the six
#: other profiles with the shortest warm ``evaluate_spec`` time measured
#: at 20k instructions (0.1-0.4 s on a 2-CPU host), so a run holds over
#: a hundred requests.  perlbench, also that short, is left out: its
#: dsn18 rows fail today (healthy checker divergence, see CHANGES.md).
PROFILES = ("exchange2", "mcf", "lbm", "nab", "imagick", "fotonik3d",
            "leela", "tc")
SCHEMES = ("paraverser-full", "paraverser-opportunistic", "dsn18")
#: Zipf rank order of the eval keys.
KEYS = [(profile, scheme) for profile in PROFILES for scheme in SCHEMES]
ZIPF_ALPHA = 1.1
CAMPAIGN_SHARE = 0.1
CAMPAIGN_TRIALS = 40
#: Closed-loop callers, spread over the connections and pipelined on
#: them; four keep both single-worker shards busy whatever the order.
CALLERS = 4
#: Requests per shuffled block of the request deck.
BLOCK = 20
#: Spec seeds the reference digests cover: the serve default only.
POOL = [7]
#: Deadline per request (sent as ``timeout_s`` and enforced here).
DEADLINE_S = 30.0
#: The load generator's event loop is probed every ``LAG_TICK_S``; a
#: probe's lag is how much later than asked for it resumed.  A caller
#: whose reply has landed resumes just as late, so a pass whose lag p90
#: exceeds ``LAG_LIMIT_MS`` sent late and is invalid, not reported.
LAG_TICK_S = 0.01
LAG_LIMIT_MS = 100.0
#: Seed and budget of the untimed request that opens each router link.
WARM_SEED = 0
WARM_INSTRUCTIONS = 2_000
SPAWN_TIMEOUT_S = 60.0
_LISTEN_RE = re.compile(r"paraverser route: listening on ([\d.]+):(\d+)")


def eval_key(profile: str, scheme: str, seed: int) -> str:
    return f"eval:{profile}:{scheme}:{seed}"


def campaign_key(profile: str, seed: int) -> str:
    return f"evalcampaign:{profile}:{seed}"


def eval_request(profile: str, scheme: str, seed: int,
                 instructions: int = INSTRUCTIONS):
    from repro.serve.protocol import EvalRequest

    return EvalRequest(workload=profile, backend=scheme,
                       instructions=instructions, seed=seed,
                       timeout_s=DEADLINE_S)


def campaign_request(profile: str, seed: int):
    from repro.serve.protocol import CampaignRequest

    return CampaignRequest(workload=profile, instructions=INSTRUCTIONS,
                           seed=seed, trials=CAMPAIGN_TRIALS,
                           timeout_s=DEADLINE_S)


def row_digest(row: dict) -> str:
    """Digest of a row's simulated fields (placement facts dropped)."""
    from repro.router import RUNTIME_ROW_KEYS

    return digest({k: v for k, v in row.items()
                   if k not in RUNTIME_ROW_KEYS})


def wire_call(host: str, port: int, payload: dict) -> dict:
    """One newline-JSON round trip on a fresh connection."""
    from repro.serve.protocol import decode_message, encode_message

    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(encode_message(payload))
        with sock.makefile("rb") as stream:
            return decode_message(stream.readline())


def apportion(items, count: int) -> list:
    """``count`` draws spread over ``items`` by Zipf weights (rank
    order), rounded by largest remainder."""
    weights = [1.0 / (rank + 1) ** ZIPF_ALPHA for rank in range(len(items))]
    total = sum(weights)
    shares = [count * w / total for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(items)),
                          key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:count - sum(counts)]:
        counts[i] += 1
    return [item for item, n in zip(items, counts) for _ in range(n)]


class Router:
    """A ``paraverser route`` process group and its shard addresses."""

    def __init__(self, cache_dir) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.log_path = WORK / "router.log"
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "route",
             "--shards", str(EVAL_SHARDS),
             "--workers", str(EVAL_WORKERS_PER_SHARD),
             "--port", "0", "--trace-cache", str(cache_dir)],
            cwd=ROOT, env=program_env(), stdout=self._log,
            stderr=subprocess.STDOUT, start_new_session=True)
        self.host, self.port = self._wait_for_listen()
        self.links_open = False
        from repro.router.ring import HashRing

        ring = wire_call(self.host, self.port,
                         {"op": "ring", "request_id": "ring"})["result"]
        self.shards = {b["name"]: (b["host"], b["port"])
                       for b in ring["backends"]}
        self.ring = HashRing(sorted(self.shards),
                             replicas=int(ring["replicas"]))
        for host, port in [(self.host, self.port), *self.shards.values()]:
            answer = wire_call(host, port, {"op": "ping", "request_id": "p"})
            if answer.get("status") != "ok":
                raise BenchError(f"{host}:{port} did not answer ping")

    def _wait_for_listen(self) -> tuple[str, int]:
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _LISTEN_RE.search(self.log_path.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise BenchError("router did not start; see .perfbench/router.log")

    def stop(self) -> None:
        """SIGINT (the router stops its shards), then reap the group."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        group = self.process.pid
        deadline = time.monotonic() + 10
        while live_members(group) and time.monotonic() < deadline:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self.process.wait(timeout=5)
        self._log.close()


def live_members(group: int) -> list[int]:
    """Processes of ``group`` that have not exited (zombies excluded)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == group and fields[0] != "Z":
            members.append(int(entry))
    return members


class Workload:
    name = "eval"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = rng_for(self.name, seed)
        self.speed = HostSpeed()
        self.cache_dir = WORK / "eval-trace-cache"
        self.router: Router | None = None
        self.lag_ms: list[float] = []
        self.passes = 0

    def setup(self) -> float:
        """Spawn router and shards until each one answers ``ping``."""
        self.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        started = time.perf_counter()
        self.router = Router(self.cache_dir)
        return time.perf_counter() - started

    def _open_links(self) -> None:
        """Send one request through each router-to-shard link, in turn.

        Runs once per router, before its first pass.

        The router opens a shard link on first use, and two requests
        racing to open the same link break it, so the links are opened
        here, untimed, before any concurrent traffic.
        """
        from repro.serve.client import EvalClient

        router = self.router
        if router.links_open:
            return
        router.links_open = True
        pending = set(router.shards)
        with EvalClient(router.host, router.port) as client:
            for profile in PROFILES:
                request = eval_request(profile, SCHEMES[0], WARM_SEED,
                                       WARM_INSTRUCTIONS)
                owner = router.ring.lookup(request.trace_key())
                if owner not in pending:
                    continue
                response = client.evaluate(request)
                if not response.ok:
                    raise BenchError(f"link warm-up failed: "
                                     f"{response.error}")
                pending.discard(owner)
                if not pending:
                    return
        raise BenchError(f"no warm-up key maps to shards {sorted(pending)}")

    def close(self) -> None:
        if self.router is not None:
            self.router.stop()
            self.router = None

    # -- load ----------------------------------------------------------------

    def _deck(self, seed: int):
        """Endless seeded request order for one pass.

        Blocks of ``BLOCK`` requests hold the Zipf key counts and the
        campaign share exactly and are shuffled one by one, so any
        prefix a pass gets through carries nearly the same mix; seeds
        differ in order, not in how much work a request holds on
        average.
        """
        campaigns = round(CAMPAIGN_SHARE * BLOCK)
        block = [eval_request(profile, scheme, seed) for profile, scheme
                 in apportion(KEYS, BLOCK - campaigns)]
        block += [campaign_request(profile, seed)
                  for profile in apportion(PROFILES, campaigns)]
        while True:
            self.rng.shuffle(block)
            yield from list(block)

    async def _send(self, seconds: float, deck, checker, tracer) -> dict:
        from repro.serve.client import AsyncEvalClient

        router = self.router
        clients = [AsyncEvalClient(router.host, router.port)
                   for _ in range(EVAL_CONNECTIONS)]
        for client in clients:
            await client.connect()
        start = time.perf_counter()
        deadline = start + seconds
        outcomes: list = []

        async def caller(client) -> None:
            while time.perf_counter() < deadline:
                request = next(deck)
                sent = time.perf_counter()
                call = (client.campaign if request.backend is None
                        else client.evaluate)
                outcomes.append(await self._one(call, request, sent))

        async def probe() -> None:
            while True:
                asked = time.perf_counter() + LAG_TICK_S
                await asyncio.sleep(LAG_TICK_S)
                self.lag_ms.append((time.perf_counter() - asked) * 1e3)

        prober = asyncio.ensure_future(probe())
        try:
            await asyncio.gather(*(caller(clients[i % len(clients)])
                                   for i in range(CALLERS)))
        finally:
            prober.cancel()
            for client in clients:
                await client.close()
        return self._score(outcomes, start, checker, tracer)

    @staticmethod
    async def _one(call, request, sent: float):
        try:
            response = await asyncio.wait_for(call(request),
                                              DEADLINE_S + 5.0)
        except (asyncio.TimeoutError, OSError, ConnectionError) as exc:
            return request, exc, sent, time.perf_counter()
        return request, response, sent, time.perf_counter()

    def _score(self, outcomes, start, checker, tracer) -> dict:
        latencies: list[float] = []
        finished = start
        done = 0
        for request, response, sent, end in outcomes:
            checker.attempt()
            campaign = request.backend is None
            label = (f"campaign {request.workload}" if campaign else
                     f"{request.workload}/{request.backend}")
            if isinstance(response, Exception):
                checker.fail(f"{label}: {response!r}")
                continue
            if not response.ok:
                checker.fail(f"{label}: {response.status} {response.error}")
                continue
            if end - sent > DEADLINE_S:
                checker.fail(f"{label}: missed the {DEADLINE_S:.0f} s "
                             "deadline")
                continue
            key = (campaign_key(request.workload, request.seed) if campaign
                   else eval_key(request.workload, request.backend,
                                 request.seed))
            if not checker.expect(key, row_digest(response.result)):
                continue
            done += 1
            finished = max(finished, end)
            if not campaign:
                latencies.append((end - sent) * 1e3)
            if tracer is not None:
                tracer.record("eval.campaign" if campaign else "eval.request",
                              sent, end, rid=request.request_id or key,
                              source=response.result.get("trace_source"))
        if not latencies:
            return {}
        return {
            "throughput_per_s": done / (finished - start),
            "latency_p50_ms": quantile(latencies, 0.5),
            "latency_p90_ms": quantile(latencies, 0.9),
        }

    def measure(self, seconds: float, checker, tracer=None) -> dict:
        if self.passes:
            self.setup()  # fresh processes: no trace held in memory
        self.passes += 1
        seed = POOL[0]
        self.seed_used = seed
        self._open_links()
        before = self._shard_totals() if tracer is not None else None
        # The callers would stall behind the kernel, so sample around
        # the pass rather than inside it.
        self.speed.sample(20)
        metrics = asyncio.run(self._send(seconds, self._deck(seed),
                                         checker, tracer))
        self.speed.sample(20)
        if tracer is not None:
            self.shard_delta = self._shard_delta(before)
        lag_p90 = quantile(self.lag_ms, 0.9)
        if lag_p90 > LAG_LIMIT_MS:
            raise BenchError(f"invalid run: load generator lag p90 "
                             f"{lag_p90:.1f} ms > {LAG_LIMIT_MS:.0f} ms")
        return metrics

    # -- traced run ----------------------------------------------------------

    def install(self, tracer) -> None:
        self.lag_ms = []

    def uninstall(self) -> None:
        pass

    def _shard_totals(self) -> dict[str, float]:
        """Summed serve counters of every shard (``stats`` op)."""
        totals = {"served": 0.0, "unique": 0.0, "batches": 0.0,
                  "batched": 0.0, "shed": 0.0}
        for host, port in self.router.shards.values():
            tree = wire_call(host, port, {"op": "stats", "request_id": "s"})
            serve = tree["result"].get("serve", {})
            histogram = serve.get("batch_requests") or {}
            totals["served"] += serve.get("requests_served", 0)
            totals["unique"] += serve.get("unique_simulations", 0)
            totals["batches"] += histogram.get("count", 0)
            totals["batched"] += (histogram.get("count", 0)
                                  * histogram.get("mean", 0.0))
            totals["shed"] += serve.get("queue", {}).get("shed", 0)
        return totals

    def _shard_delta(self, before: dict[str, float]) -> dict[str, float]:
        after = self._shard_totals()
        return {key: after[key] - before[key] for key in after}

    def layers(self, tracer, checker, seconds: float) -> dict:
        seed = self.seed_used
        requests = tracer.named("eval.request")
        sources = {"computed": 0, "disk": 0, "memory": 0}
        for span in requests + tracer.named("eval.campaign"):
            source = span.attrs.get("source")
            if source in sources:
                sources[source] += 1
        delta = self.shard_delta
        out = {f"serve.trace_source.{k}": float(v) for k, v in
               sources.items()}
        out.update({
            "serve.dedup_ratio": 1.0 - delta["unique"] / delta["served"]
            if delta["served"] else 0.0,
            "serve.batch_size_mean": delta["batched"] / delta["batches"]
            if delta["batches"] else 0.0,
            "serve.shed": delta["shed"],
            "loadgen.lag_p90_ms": quantile(self.lag_ms, 0.9),
        })
        hot = [key for key, _ in sorted(
            _key_counts(requests).items(), key=lambda kv: -kv[1])][:3]
        out.update(self._round_trips(hot, seed, checker, tracer))
        out.update(self._campaign_round_trips(seed, checker, tracer))
        profiles = sorted({p for p, _ in _key_counts(requests)}) \
            or [PROFILES[0]]
        out.update(self._trace_io(profiles, seed, tracer))
        return out

    def _round_trips(self, keys, seed, checker, tracer) -> dict:
        """In-process compute vs direct-to-shard vs through-router."""
        from repro.serve.client import EvalClient, RouterClient
        from repro.serve.workers import evaluate_spec

        compute, overhead, hop = [], [], []
        router = self.router
        with RouterClient(router.host, router.port) as direct, \
                EvalClient(router.host, router.port) as front:
            for profile, scheme in keys:
                request = eval_request(profile, scheme, seed)
                evaluate_spec(request.sim_spec())  # trace into this process
                t0 = time.perf_counter()
                evaluate_spec(request.sim_spec())
                t1 = time.perf_counter()
                shard_row = self._checked(checker, direct.evaluate(request),
                                          eval_key(profile, scheme, seed))
                t2 = time.perf_counter()
                routed_row = self._checked(checker, front.evaluate(request),
                                           eval_key(profile, scheme, seed))
                t3 = time.perf_counter()
                tracer.record("probe.compute", t0, t1)
                tracer.record("probe.direct", t1, t2)
                tracer.record("probe.router", t2, t3)
                if shard_row and routed_row:
                    compute.append(t1 - t0)
                    overhead.append((t2 - t1) - (t1 - t0))
                    hop.append((t3 - t2) - (t2 - t1))
        return {
            "serve.compute_p50_ms": median(compute) * 1e3 if compute else 0.0,
            "serve.overhead_p50_ms":
                median(overhead) * 1e3 if overhead else 0.0,
            "router.hop_p50_ms": median(hop) * 1e3 if hop else 0.0,
        }

    def _campaign_round_trips(self, seed, checker, tracer) -> dict:
        """One campaign fanned out by the router vs unsplit on a shard.

        Each path runs once untimed first: shards cache campaign
        contexts by spec, so the first call of either path would pay
        context builds the other then skips.
        """
        from repro.serve.client import EvalClient, RouterClient

        router = self.router
        request = campaign_request(PROFILES[0], seed)
        key = campaign_key(PROFILES[0], seed)
        times = {}
        with RouterClient(router.host, router.port) as direct, \
                EvalClient(router.host, router.port) as front:
            for timed in (False, True):
                for name, client in (("router_campaign", front),
                                     ("shard_campaign", direct)):
                    t0 = time.perf_counter()
                    self._checked(checker, client.campaign(request), key)
                    t1 = time.perf_counter()
                    if timed:
                        tracer.record(f"probe.{name}", t0, t1)
                        times[name] = (t1 - t0) * 1e3
        return {"router.campaign_p50_ms": times["router_campaign"],
                "serve.campaign_p50_ms": times["shard_campaign"]}

    def _trace_io(self, profiles, seed, tracer) -> dict:
        """Pack/unpack and cache store/load of each pass trace."""
        from repro.cpu.tracecache import TraceCache
        from repro.cpu.traceio import run_from_payload, run_to_payload
        from repro.harness.parallel import worker_cache

        cache = TraceCache(WORK / "eval-probe-cache")
        pack, unpack, size, store, load = [], [], [], [], []
        for profile in profiles:
            run = worker_cache(INSTRUCTIONS, seed).get(profile).run
            t0 = time.perf_counter()
            payload = run_to_payload(run)
            t1 = time.perf_counter()
            run_from_payload(payload)
            t2 = time.perf_counter()
            cache.put(profile, seed, INSTRUCTIONS, run)
            t3 = time.perf_counter()
            cache.get(profile, seed, INSTRUCTIONS)
            t4 = time.perf_counter()
            for name, a, b in (("traceio.pack", t0, t1),
                               ("traceio.unpack", t1, t2),
                               ("tracecache.store", t2, t3),
                               ("tracecache.load", t3, t4)):
                tracer.record(name, a, b, rid=profile)
            pack.append(t1 - t0)
            unpack.append(t2 - t1)
            store.append(t3 - t2)
            load.append(t4 - t3)
            size.append(len(pickle.dumps(payload)) / 1024.0)
        shutil.rmtree(WORK / "eval-probe-cache", ignore_errors=True)
        return {
            "traceio.pack_ms": median(pack) * 1e3,
            "traceio.unpack_ms": median(unpack) * 1e3,
            "traceio.payload_kb": median(size),
            "tracecache.store_ms": median(store) * 1e3,
            "tracecache.load_ms": median(load) * 1e3,
        }

    @staticmethod
    def _checked(checker, response, key: str) -> dict | None:
        checker.attempt()
        if not response.ok:
            checker.fail(f"probe {key}: {response.status} {response.error}")
            return None
        if not checker.expect(key, row_digest(response.result)):
            return None
        return response.result


def _key_counts(spans) -> dict[tuple[str, str], int]:
    counts: dict[tuple[str, str], int] = {}
    for span in spans:
        _, profile, scheme, _ = span.rid.split(":")
        counts[(profile, scheme)] = counts.get((profile, scheme), 0) + 1
    return counts
