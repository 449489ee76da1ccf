"""The ParaVerser system simulator — orchestration shell.

One run is a staged pipeline (see :mod:`repro.pipeline`): build →
functional trace → core timing → NoC/LLC adjustment → segment schedule →
check/compare → report.  Each stage lives in its own module and passes
typed artifacts; this class threads a
:class:`~repro.pipeline.context.SimContext` (config, seeded RNG streams,
statistics tree) through them and keeps the historical public API, so
``ParaVerserSystem(config).run(program)`` still does everything.

Functional behaviour — logging, replay, comparison — is always executed
for real: register checkpoints at segment boundaries come from a genuine
second execution pass (the RCU's copies), and a configurable sample of
segments is actually replayed through a healthy checker as an end-to-end
self-check.
"""

from __future__ import annotations

from repro.core.counter import Segment
from repro.core.hashmode import DIGEST_BYTES
from repro.core.simconfig import CheckMode, ParaVerserConfig
from repro.cpu.functional import RunResult
from repro.cpu.timing import TimingResult
from repro.isa.program import Program
from repro.isa.registers import RegisterCheckpoint
from repro.mem.hierarchy import SharedUncore
from repro.noc.layout import TileLayout
from repro.noc.traffic import MainTraffic
from repro.pipeline.artifacts import (
    PreparedRun,
    RunRequest,
    SegmentSchedule,
    SystemResult,
)
from repro.pipeline.context import SimContext
from repro.pipeline.executor import GraphExecutor
from repro.pipeline.graph import RUN_GRAPH
from repro.pipeline.noc import estimate_traffic
from repro.pipeline.report import finalize
from repro.pipeline.timing import (
    BASELINE_GRID,
    baseline_timing,
    build_uncore,
    checker_durations,
    grid_time_at,
    main_timing,
    warm_addresses,
)
from repro.pipeline.trace import run_functional, segment_trace

__all__ = [
    "BASELINE_GRID",
    "CheckMode",
    "ParaVerserConfig",
    "ParaVerserSystem",
    "PreparedRun",
    "SegmentSchedule",
    "SystemResult",
    "warm_addresses",
]

#: Historical alias; the implementation lives in the timing stage.
_grid_time_at = grid_time_at


class ParaVerserSystem:
    """Runs a workload under ParaVerser checking and reports overheads."""

    def __init__(self, config: ParaVerserConfig,
                 layout: TileLayout | None = None,
                 stage_jobs: int | None = None) -> None:
        if not config.checkers:
            raise ValueError("at least one checker core is required")
        self.config = config
        self.ctx = SimContext.create(config, layout)
        self.layout = self.ctx.layout
        self.traffic_model = self.ctx.traffic_model
        #: Stage-graph worker threads for :meth:`run` (None = the
        #: REPRO_STAGE_JOBS default; <=1 = the serial pipeline).
        self.stage_jobs = stage_jobs

    # -- functional stage --------------------------------------------------

    def execute(self, program: Program,
                max_instructions: int = 100_000) -> RunResult:
        """Run the workload on the main core, producing the commit trace."""
        with self.ctx.stage_timer("trace"):
            return run_functional(self.ctx, program, max_instructions)

    def segment(self, run: RunResult,
                forced_boundaries: set[int] | None = None) -> list[Segment]:
        """Split the trace into checkpointed segments and fill checkpoints."""
        with self.ctx.stage_timer("trace"):
            return segment_trace(self.ctx, run, forced_boundaries)

    # -- timing stage (thin delegates kept for calibration/breakdown) ------

    def _uncore(self, extra_llc_ns: float) -> SharedUncore:
        return build_uncore(self.config, extra_llc_ns)

    def _main_timing(self, run: RunResult, boundaries: list[int] | None,
                     extra_llc_ns: float,
                     uncore: SharedUncore | None = None,
                     checkpoint_overhead: bool | None = None) -> TimingResult:
        return main_timing(self.config, run, boundaries, extra_llc_ns,
                           uncore, checkpoint_overhead)

    # -- top level --------------------------------------------------------

    def prepare(
        self,
        program: Program,
        max_instructions: int = 100_000,
        run_result: RunResult | None = None,
        forced_boundaries: set[int] | None = None,
        boundary_checkpoints: dict[int, RegisterCheckpoint] | None = None,
        baseline: TimingResult | None = None,
    ) -> PreparedRun:
        """Functional run, segmentation, baseline and checker timings."""
        ctx = self.ctx
        config = self.config
        with ctx.stage_timer("trace"):
            run = run_result or run_functional(ctx, program, max_instructions)
            segments = segment_trace(ctx, run, forced_boundaries,
                                     boundary_checkpoints)
        boundaries = [seg.end for seg in segments]

        with ctx.stage_timer("timing"):
            # Baseline timing (no checking, demand-traffic-only NoC
            # effects), against a fixed instruction grid so the measured
            # window can be aligned with any configuration's segment
            # boundaries — and so one baseline can be cached across
            # configurations.
            if baseline is None:
                baseline = baseline_timing(ctx, run)
            # Checked-run timing, first pass (no NoC penalty yet), then
            # checker timing per distinct instance class.
            checked_pass1 = main_timing(config, run, boundaries, 0.0)
            durations_by_class, checker_llc = checker_durations(
                ctx, run, boundaries)

        lsl_bytes = sum(seg.lines for seg in segments) * 64
        if config.hash_mode:
            lsl_bytes += len(segments) * DIGEST_BYTES

        return PreparedRun(
            system=self,
            run=run,
            segments=segments,
            boundaries=boundaries,
            baseline=baseline,
            checked_pass1=checked_pass1,
            durations_by_class=durations_by_class,
            checker_llc=checker_llc,
            lsl_bytes=int(lsl_bytes),
        )

    def estimate_traffic(self, prepared: PreparedRun) -> MainTraffic:
        """First-pass traffic contribution (coverage-scaled LSL bytes)."""
        with self.ctx.stage_timer("noc"):
            return estimate_traffic(self.ctx, prepared)

    def finalize(self, prepared: PreparedRun, extra_llc: float,
                 push_latency: float, verify: bool = True) -> SystemResult:
        """Final timing + schedule with NoC effects applied."""
        return finalize(self.ctx, prepared, extra_llc, push_latency,
                        verify, config_label=self.config_label())

    def run(
        self,
        program: Program,
        max_instructions: int = 100_000,
        run_result: RunResult | None = None,
        forced_boundaries: set[int] | None = None,
        boundary_checkpoints: dict[int, RegisterCheckpoint] | None = None,
        baseline: TimingResult | None = None,
    ) -> SystemResult:
        """Simulate the workload under checking and report overheads.

        Executes the declared stage graph (:data:`~repro.pipeline.graph.
        RUN_GRAPH`): serially with ``stage_jobs <= 1``, otherwise with
        independent stages overlapped on a bounded thread pool.  Output
        is bit-identical either way.
        """
        request = RunRequest(
            program=program,
            max_instructions=max_instructions,
            run_result=run_result,
            forced_boundaries=forced_boundaries,
            boundary_checkpoints=boundary_checkpoints,
            baseline=baseline,
        )
        executor = GraphExecutor(self.stage_jobs)
        artifacts = executor.execute(RUN_GRAPH, self, {"request": request})
        return artifacts["result"]

    def config_label(self) -> str:
        checkers: dict[str, int] = {}
        for inst in self.config.checkers:
            checkers[inst.label] = checkers.get(inst.label, 0) + 1
        parts = [f"{n}x{label}" for label, n in checkers.items()]
        mode = "hash," if self.config.hash_mode else ""
        return f"{'+'.join(parts)} ({mode}{self.config.mode.value})"
