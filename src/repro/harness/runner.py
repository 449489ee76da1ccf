"""Shared infrastructure for the per-figure experiment runners.

Caches the expensive pieces that are identical across checker
configurations — the functional run (commit trace) and the unchecked
baseline timing of the main core — so a figure with six configurations
only pays for them once per benchmark.

Scale knobs (environment variables, so `pytest benchmarks/` can be sized
to the machine):

* ``REPRO_INSTRUCTIONS`` — instructions simulated per benchmark
  (default 30000; the paper runs 1 B after 10 B of fast-forward —
  functional cache warming stands in for the fast-forward).
* ``REPRO_BENCHMARKS`` — comma-separated subset of benchmark names.
* ``REPRO_TRIALS`` — fault-injection trials per benchmark (Fig. 8).
* ``REPRO_JOBS`` — worker processes for config sweeps (default 1 =
  in-process; 0 or negative = one per CPU).
* ``REPRO_STAGE_OVERLAP`` — set to ``0`` to make sweeps submit whole
  benchmarks instead of per-(trace, cell) stage tasks (see
  :mod:`repro.harness.parallel`).
* ``REPRO_TRACE_CACHE`` — directory for the persistent trace cache
  (unset/empty/``0`` disables it).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.system import (
    CheckMode,
    ParaVerserConfig,
    ParaVerserSystem,
    SystemResult,
)
from repro.cpu.config import CoreInstance
from repro.cpu.functional import RunResult
from repro.cpu.presets import X2
from repro.cpu.timing import TimingResult
from repro.cpu.tracecache import TraceCache, env_trace_cache
from repro.envutil import env_int
from repro.isa.program import Program
from repro.noc.mesh import NocConfig, FAST_NOC
from repro.pipeline.artifacts import RunRequest
from repro.pipeline.graph import RUN_GRAPH
from repro.workloads.generator import build_program
from repro.workloads.profiles import SPEC2017, get_profile

DEFAULT_INSTRUCTIONS = 100_000
DEFAULT_TRIALS = 20
DEFAULT_TIMEOUT = 5000
DEFAULT_SEED = 7


def env_instructions() -> int:
    """REPRO_INSTRUCTIONS: instructions simulated per benchmark."""
    return env_int("REPRO_INSTRUCTIONS", DEFAULT_INSTRUCTIONS)


def env_jobs() -> int:
    """REPRO_JOBS: sweep worker processes (0 or negative = CPU count)."""
    jobs = env_int("REPRO_JOBS", 1)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def env_trials() -> int:
    """REPRO_TRIALS: fault-injection trials per configuration."""
    return env_int("REPRO_TRIALS", DEFAULT_TRIALS)


def env_timeout() -> int:
    """Checkpoint timeout (Table I: 5000 instructions).

    Keep REPRO_INSTRUCTIONS >= ~20x this value: per-segment costs (RCU
    copy, eager-wake tail) are physical, so shrinking segments instead of
    lengthening runs inflates overheads.
    """
    return env_int("REPRO_TIMEOUT", DEFAULT_TIMEOUT)


def env_benchmarks(default: list[str]) -> list[str]:
    """REPRO_BENCHMARKS: comma-separated benchmark subset, or the default."""
    raw = os.environ.get("REPRO_BENCHMARKS")
    if not raw:
        return default
    return [name.strip() for name in raw.split(",") if name.strip()]


def spec_benchmarks() -> list[str]:
    """The SPEC benchmark scope for figure runs (env-overridable)."""
    return env_benchmarks(sorted(SPEC2017))


@dataclass
class CachedWorkload:
    """One benchmark's reusable artefacts."""

    program: Program
    run: RunResult
    baselines: dict[tuple[str, str], TimingResult] = field(
        default_factory=dict)


_ENV_DEFAULT = object()


class WorkloadCache:
    """Builds, executes and caches workloads across configurations."""

    def __init__(self, max_instructions: int | None = None,
                 seed: int = DEFAULT_SEED,
                 trace_cache: TraceCache | None = _ENV_DEFAULT,
                 jobs: int | None = None) -> None:
        self.max_instructions = max_instructions or env_instructions()
        self.seed = seed
        if trace_cache is _ENV_DEFAULT:
            trace_cache = env_trace_cache()
        self.trace_cache = trace_cache
        self.jobs = jobs if jobs is not None else env_jobs()
        self._cache: dict[str, CachedWorkload] = {}
        self._runner = None

    def get(self, name: str) -> CachedWorkload:
        """Build-or-fetch the cached program + functional run for a benchmark."""
        cached = self._cache.get(name)
        if cached is None:
            run = None
            if self.trace_cache is not None:
                run = self.trace_cache.get(
                    name, self.seed, self.max_instructions)
            if run is None:
                program = build_program(get_profile(name), seed=self.seed)
                system = ParaVerserSystem(_probe_config(self.seed))
                run = system.execute(program, self.max_instructions)
                if self.trace_cache is not None:
                    self.trace_cache.put(
                        name, self.seed, self.max_instructions, run)
            else:
                program = run.program
            cached = CachedWorkload(program=program, run=run)
            self._cache[name] = cached
        return cached

    def adopt_run(self, name: str, run: RunResult) -> CachedWorkload:
        """Install a functional run computed elsewhere into the cache.

        The stage-level sweep/serve paths compute each benchmark's trace
        once (one trace task) and hand the result to the workers that
        evaluate its configurations; adopting is a no-op when this
        process already holds the benchmark (first entry wins, matching
        the build-or-fetch semantics of :meth:`get`).
        """
        cached = self._cache.get(name)
        if cached is None:
            cached = CachedWorkload(program=run.program, run=run)
            self._cache[name] = cached
        return cached

    def trace_source(self, name: str) -> str:
        """Where :meth:`get` would find the functional run right now.

        ``"memory"`` (already built in this process), ``"disk"`` (the
        persistent trace cache holds it) or ``"computed"`` (a fresh
        functional execution would run).  The serving layer publishes
        this per evaluation, so cache effectiveness is observable.
        """
        if name in self._cache:
            return "memory"
        if self.trace_cache is not None and self.trace_cache.path_for(
                name, self.seed, self.max_instructions).is_file():
            return "disk"
        return "computed"

    def run_stages(self, name: str, config: ParaVerserConfig) -> dict:
        """Run one benchmark under one configuration, reusing the trace.

        Returns the run's stage-graph artifact store (``segments``,
        ``result`` and the rest; see :data:`~repro.pipeline.graph.
        RUN_GRAPH`).  The unchecked baseline depends on the main core
        *and* on the NoC (demand traffic suffers queueing too), so it is
        cached per (main, NoC) pair.
        """
        cached = self.get(name)
        key = (config.main.label, config.noc.name)
        request = RunRequest(cached.program, run_result=cached.run,
                             baseline=cached.baselines.get(key))
        artifacts = RUN_GRAPH.run(ParaVerserSystem(config),
                                  {"request": request})
        cached.baselines[key] = artifacts["result"].baseline_timing
        return artifacts

    def run_config(self, name: str, config: ParaVerserConfig) -> SystemResult:
        """:meth:`run_stages`, keeping only the run's result."""
        return self.run_stages(name, config)["result"]

    def sweep(self, cells) -> list[SystemResult]:
        """Run many ``(benchmark, config)`` cells, in parallel if jobs > 1.

        Results come back in cell order and are numerically identical to
        running each cell through :meth:`run_config` serially (see
        :mod:`repro.harness.parallel` for how ordering is preserved).
        """
        cells = list(cells)
        if self.jobs <= 1 or len(cells) <= 1:
            return [self.run_config(cell.benchmark, cell.config)
                    for cell in cells]
        if self._runner is None:
            # Imported lazily: parallel imports this module.
            from repro.harness.parallel import SweepRunner
            self._runner = SweepRunner(
                jobs=self.jobs,
                max_instructions=self.max_instructions,
                seed=self.seed,
            )
        return self._runner.run(cells)

    def close(self) -> None:
        """Shut down the worker pool, if one was started."""
        if self._runner is not None:
            self._runner.close()
            self._runner = None


def _probe_config(seed: int = DEFAULT_SEED) -> ParaVerserConfig:
    """A minimal config used only to drive functional execution.

    Its seed draws the trace's non-repeatable values (RNG); the RCU
    checkpoint pass replays the recorded values, so configs later run
    against the cached trace need not share the seed.
    """
    main = CoreInstance(X2, 3.0)
    return ParaVerserConfig(main=main, checkers=[main], seed=seed)


def main_x2() -> CoreInstance:
    """The evaluation's main core: an X2 at 3 GHz (Table I)."""
    return CoreInstance(X2, 3.0)


def make_config(
    checkers: list[CoreInstance],
    mode: CheckMode = CheckMode.FULL,
    hash_mode: bool = False,
    eager_wake: bool = True,
    lsl_capacity_bytes: int | None = None,
    noc: NocConfig = FAST_NOC,
    verify_segments: int = 2,
    timeout_instructions: int | None = None,
) -> ParaVerserConfig:
    """Convenience constructor with the standard main core."""
    return ParaVerserConfig(
        main=main_x2(),
        checkers=checkers,
        mode=mode,
        hash_mode=hash_mode,
        eager_wake=eager_wake,
        lsl_capacity_bytes=lsl_capacity_bytes,
        noc=noc,
        verify_segments=verify_segments,
        seed=DEFAULT_SEED,
        timeout_instructions=timeout_instructions or env_timeout(),
    )
