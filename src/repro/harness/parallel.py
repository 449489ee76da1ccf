"""Parallel sweep engine for ``(benchmark, config)`` cells.

Figure benchmarks are embarrassingly parallel across benchmarks: every
cell shares nothing but the functional trace of its own benchmark.  The
:class:`SweepRunner` fans work across a ``ProcessPoolExecutor`` at
*stage* granularity: one **trace task** per benchmark (functional run +
segmentation input), then — as each trace lands — one **cell task** per
configuration, carrying the traced run as a
:func:`~repro.cpu.traceio.run_to_payload` artifact.  Benchmark B's
trace computes while benchmark A's configurations are still in their
timing/schedule stages, so a pool wider than the benchmark count stays
busy (the ``jobs > #benchmarks`` idle-core cliff of the old
benchmark-granular grouping).

Determinism is unchanged from the grouped engine:

* **Trace reuse** — each worker keeps a bounded process-global
  :class:`~repro.harness.runner.WorkloadCache`; a handed-off trace is
  adopted via :meth:`~repro.harness.runner.WorkloadCache.adopt_run`, and
  the payload round-trip is the same serialization the persistent trace
  cache uses (bit-identical downstream numbers, see
  ``tests/test_cpu_traceio.py``).
* **Baseline independence** — the unchecked baseline is cached per
  ``(main core, NoC)`` pair purely as a speed win: with zero checker
  traffic its mesh contribution has zero rate, so whichever config
  computes it first gets the same numbers.  Cells of one benchmark may
  therefore run on different workers (each computes the baseline at most
  once) without perturbing results.
* **Input-order merge** — results are placed by original cell index, so
  ``jobs=N`` output is bit-identical to ``jobs=1``.

``REPRO_STAGE_OVERLAP=0`` restores the old one-task-per-benchmark
grouping (kept for occupancy comparisons; see
``benchmarks/test_bench_throughput.py``).  With ``jobs=1`` (the
default, via ``REPRO_JOBS``) no pool is created and everything runs
in-process.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

from repro.core.system import ParaVerserConfig, SystemResult


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: a benchmark under one checker config."""

    benchmark: str
    label: str
    config: ParaVerserConfig


#: Caches per (budget, seed) per worker process, reused across tasks so a
#: worker that sees the same benchmark twice never re-runs the trace.
#: Bounded LRU: long-lived serve workers cycle through distinct
#: (instructions, seed) pairs and must not accumulate traces forever.
#: Shared with the serving layer (repro.serve.workers), whose pool
#: workers must agree with sweep workers on trace reuse semantics.
_WORKER_CACHES: OrderedDict = OrderedDict()
WORKER_CACHE_LIMIT = 8


def worker_cache(max_instructions: int, seed: int):
    """The process-global :class:`WorkloadCache` for (budget, seed)."""
    from repro.harness.runner import WorkloadCache

    key = (max_instructions, seed)
    cache = _WORKER_CACHES.get(key)
    if cache is None:
        # jobs=1 in workers: no recursive pools.
        cache = WorkloadCache(max_instructions=max_instructions,
                              seed=seed, jobs=1)
        _WORKER_CACHES[key] = cache
        while len(_WORKER_CACHES) > WORKER_CACHE_LIMIT:
            _WORKER_CACHES.popitem(last=False)
    else:
        _WORKER_CACHES.move_to_end(key)
    return cache


def env_stage_overlap() -> bool:
    """REPRO_STAGE_OVERLAP: stage-granular sweep tasks (default on)."""
    return os.environ.get("REPRO_STAGE_OVERLAP", "1") != "0"


# -- worker entry points -----------------------------------------------------

def _run_group(benchmark: str, configs: list[ParaVerserConfig],
               max_instructions: int,
               seed: int) -> tuple[list[SystemResult], float]:
    """Benchmark-granular entry point: run one benchmark's configs."""
    cache = worker_cache(max_instructions, seed)
    start = time.perf_counter()
    results = [cache.run_config(benchmark, config) for config in configs]
    return results, time.perf_counter() - start


def _trace_task(benchmark: str, max_instructions: int,
                seed: int) -> tuple[dict, float]:
    """Stage entry point: produce one benchmark's functional trace."""
    from repro.cpu.traceio import run_to_payload

    cache = worker_cache(max_instructions, seed)
    start = time.perf_counter()
    cached = cache.get(benchmark)
    return run_to_payload(cached.run), time.perf_counter() - start


def _cell_task(benchmark: str, config: ParaVerserConfig,
               max_instructions: int, seed: int,
               run_payload: dict) -> tuple[SystemResult, float]:
    """Stage entry point: evaluate one cell against a handed-off trace."""
    from repro.cpu.traceio import run_from_payload

    cache = worker_cache(max_instructions, seed)
    start = time.perf_counter()
    cache.adopt_run(benchmark, run_from_payload(run_payload))
    result = cache.run_config(benchmark, config)
    return result, time.perf_counter() - start


def _campaign_chunk_task(spec_payload: dict, trials: list[int],
                         shard_dir: str | None) -> tuple[list[dict], float]:
    """Stage entry point: run a chunk of campaign trials in one task.

    One submission per trial drowns short trials in pool round-trip and
    pickling overhead (a jobs=4 campaign used to run *slower* than
    serial); chunking amortises the dispatch while each trial stays the
    same pure function of ``(spec.seed, trial)``, so results are
    bit-identical to any other scheduling.  Shard appends still happen
    per trial, so a killed worker loses at most the trial in flight.
    """
    from repro.faults.engine import CampaignSpec, run_trial_in_worker

    spec = CampaignSpec.from_json(spec_payload)
    start = time.perf_counter()
    records = [run_trial_in_worker(spec, trial, shard_dir)
               for trial in trials]
    return records, time.perf_counter() - start


def _fleet_rep_task(config_payload: dict, rep: int) -> dict:
    """Stage entry point: one replication of one fleet-traffic cell.

    A replication is a pure function of ``(config, rep)`` — its RNG
    streams are sha256-derived per (seed, request, site) — so the fleet
    runner can fan replications over this pool and merge them in rep
    order with output bit-identical to a serial run.
    """
    from repro.fleet.sim import run_replication

    return run_replication(config_payload, rep)


class SweepRunner:
    """Fans sweep cells across worker processes, merging deterministically."""

    def __init__(self, jobs: int, max_instructions: int, seed: int,
                 stage_overlap: bool | None = None) -> None:
        self.jobs = jobs
        self.max_instructions = max_instructions
        self.seed = seed
        self.stage_overlap = env_stage_overlap() \
            if stage_overlap is None else stage_overlap
        #: Occupancy/wall-time record of the most recent :meth:`run`
        #: (``None`` for serial runs); see BENCH_throughput.json.
        self.last_stats: dict | None = None
        self._pool: ProcessPoolExecutor | None = None

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def run(self, cells: list[SweepCell]) -> list[SystemResult]:
        """Run all cells; results are returned in input-cell order."""
        if self.jobs <= 1 or len(cells) <= 1:
            cache = worker_cache(self.max_instructions, self.seed)
            return [cache.run_config(cell.benchmark, cell.config)
                    for cell in cells]

        # Group by benchmark, preserving config order within each group
        # (and first-seen benchmark order across groups).
        groups: OrderedDict[str, list[int]] = OrderedDict()
        for index, cell in enumerate(cells):
            groups.setdefault(cell.benchmark, []).append(index)

        started = time.perf_counter()
        if self.stage_overlap:
            results, busy, tasks = self._run_staged(cells, groups)
        else:
            results, busy, tasks = self._run_grouped(cells, groups)
        elapsed = time.perf_counter() - started
        self.last_stats = {
            "granularity": "stage" if self.stage_overlap else "benchmark",
            "jobs": self.jobs,
            "tasks": tasks,
            "elapsed_s": elapsed,
            "busy_s": busy,
            "occupancy": busy / (elapsed * self.jobs) if elapsed > 0
            else 0.0,
        }
        return results

    def _run_grouped(self, cells, groups):
        """One task per benchmark (the pre-stage-graph engine)."""
        pool = self._executor()
        futures = {
            benchmark: pool.submit(
                _run_group, benchmark,
                [cells[i].config for i in indices],
                self.max_instructions, self.seed,
            )
            for benchmark, indices in groups.items()
        }
        results: list[SystemResult | None] = [None] * len(cells)
        busy = 0.0
        for benchmark, indices in groups.items():
            group_results, task_busy = futures[benchmark].result()
            busy += task_busy
            for index, result in zip(indices, group_results):
                results[index] = result
        return results, busy, len(groups)

    def _run_staged(self, cells, groups):
        """One trace task per benchmark, then one task per cell."""
        pool = self._executor()
        trace_futures = {
            pool.submit(_trace_task, benchmark, self.max_instructions,
                        self.seed): benchmark
            for benchmark in groups
        }
        results: list[SystemResult | None] = [None] * len(cells)
        cell_futures: dict = {}
        busy = 0.0
        tasks = len(trace_futures)
        pending = set(trace_futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                if future in trace_futures:
                    benchmark = trace_futures[future]
                    payload, task_busy = future.result()
                    busy += task_busy
                    # Trace landed: fan this benchmark's cells out
                    # immediately, while other traces still compute.
                    for index in groups[benchmark]:
                        cell_future = pool.submit(
                            _cell_task, benchmark, cells[index].config,
                            self.max_instructions, self.seed, payload)
                        cell_futures[cell_future] = index
                        pending.add(cell_future)
                        tasks += 1
                else:
                    result, task_busy = future.result()
                    busy += task_busy
                    results[cell_futures[future]] = result
        return results, busy, tasks

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
