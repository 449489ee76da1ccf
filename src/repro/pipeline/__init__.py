"""The staged simulation pipeline.

One ParaVerser run is the composition of seven stages, each a small
module consuming and producing typed artifacts
(:mod:`repro.pipeline.artifacts`), threaded by a
:class:`~repro.pipeline.context.SimContext` that carries the
configuration, seeded RNG streams, and the run's statistics tree:

1. **build** — :func:`SimContext.create` resolves config, tile layout
   and traffic model;
2. **functional trace** — :func:`~repro.pipeline.trace.run_functional`
   and :func:`~repro.pipeline.trace.segment_trace`;
3. **core timing** — :mod:`repro.pipeline.timing` (baseline grid, checked
   main, per-class checkers);
4. **NoC/LLC adjustment** — :mod:`repro.pipeline.noc` (M/M/1 queueing
   backpropagated into LLC latency and LSL push latency);
5. **segment schedule** — :mod:`repro.pipeline.schedule` (discrete-event
   allocation over the checker pool);
6. **check/compare** — :func:`~repro.pipeline.check.verify_sample`
   (end-to-end replay self-check);
7. **report** — :func:`~repro.pipeline.report.assemble` (measured-window
   cut, :class:`SystemResult` assembly, stats export).

:data:`~repro.pipeline.graph.RUN_GRAPH` declares the seven stages and
walks them in order; :class:`repro.core.system.ParaVerserSystem` is the
thin orchestration shell over the graph and keeps the historical public
API.
"""

from repro.pipeline.artifacts import (
    PreparedRun,
    RunPlan,
    RunRequest,
    ScheduledRun,
    SegmentSchedule,
    SystemResult,
)
from repro.pipeline.check import verify_sample
from repro.pipeline.context import SimContext
from repro.pipeline.graph import RUN_GRAPH, StageGraph, StageNode
from repro.pipeline.noc import estimate_traffic, noc_adjustment
from repro.pipeline.report import assemble, export_run_stats, run_schedule
from repro.pipeline.schedule import make_slots, schedule_segments
from repro.pipeline.timing import (
    BASELINE_GRID,
    baseline_timing,
    build_uncore,
    checker_durations,
    checker_timing,
    grid_time_at,
    main_timing,
    warm_addresses,
)
from repro.pipeline.trace import (
    derive_end_checkpoint,
    fill_checkpoints,
    run_functional,
    segment_trace,
)

__all__ = [
    "BASELINE_GRID",
    "PreparedRun",
    "RUN_GRAPH",
    "RunPlan",
    "RunRequest",
    "ScheduledRun",
    "SegmentSchedule",
    "SimContext",
    "StageGraph",
    "StageNode",
    "SystemResult",
    "assemble",
    "baseline_timing",
    "build_uncore",
    "checker_durations",
    "checker_timing",
    "derive_end_checkpoint",
    "estimate_traffic",
    "export_run_stats",
    "fill_checkpoints",
    "grid_time_at",
    "main_timing",
    "make_slots",
    "noc_adjustment",
    "run_functional",
    "run_schedule",
    "schedule_segments",
    "segment_trace",
    "verify_sample",
    "warm_addresses",
]
