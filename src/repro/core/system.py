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
from repro.pipeline.graph import (
    RUN_GRAPH,
    check_stage,
    timing_stage,
    trace_stage,
)
from repro.pipeline.noc import estimate_traffic
from repro.pipeline.report import assemble, run_schedule
from repro.pipeline.timing import (
    BASELINE_GRID,
    build_uncore,
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


class ParaVerserSystem:
    """Runs a workload under ParaVerser checking and reports overheads."""

    def __init__(self, config: ParaVerserConfig,
                 layout: TileLayout | None = None) -> None:
        if not config.checkers:
            raise ValueError("at least one checker core is required")
        self.config = config
        self.ctx = SimContext.create(config, layout)
        self.layout = self.ctx.layout
        self.traffic_model = self.ctx.traffic_model

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
                     checkpoint_overhead: bool | None = None) -> TimingResult:
        return main_timing(self.config, run, boundaries, extra_llc_ns,
                           checkpoint_overhead)

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
        request = RunRequest(program, max_instructions, run_result,
                             forced_boundaries, boundary_checkpoints,
                             baseline)
        run, segments = trace_stage(self.ctx, request)
        return timing_stage(self, request, run, segments)

    def estimate_traffic(self, prepared: PreparedRun) -> MainTraffic:
        """First-pass traffic contribution (coverage-scaled LSL bytes)."""
        with self.ctx.stage_timer("noc"):
            return estimate_traffic(self.ctx, prepared)

    def finalize(self, prepared: PreparedRun, extra_llc: float,
                 push_latency: float, verify: bool = True) -> SystemResult:
        """Final timing + schedule with NoC effects applied."""
        scheduled = run_schedule(self.ctx, prepared, extra_llc, push_latency)
        verify_results = check_stage(self.ctx, prepared.run,
                                     prepared.segments, verify)
        return assemble(self.ctx, prepared, scheduled, verify_results,
                        extra_llc, config_label=self.config_label())

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

        Walks the declared stage graph (:data:`~repro.pipeline.graph.
        RUN_GRAPH`) in order; the result equals the split-phase
        ``prepare → estimate_traffic → finalize`` path, which calls the
        same stage bodies.
        """
        request = RunRequest(program, max_instructions, run_result,
                             forced_boundaries, boundary_checkpoints,
                             baseline)
        return RUN_GRAPH.run(self, {"request": request})["result"]

    def config_label(self) -> str:
        checkers: dict[str, int] = {}
        for inst in self.config.checkers:
            checkers[inst.label] = checkers.get(inst.label, 0) + 1
        parts = [f"{n}x{label}" for label, n in checkers.items()]
        mode = "hash," if self.config.hash_mode else ""
        return f"{'+'.join(parts)} ({mode}{self.config.mode.value})"
