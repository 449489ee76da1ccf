"""The declared stage graph of one ParaVerser run.

Each pipeline stage is a :class:`StageNode`: a name, the typed artifact
names it consumes and produces, and a function ``fn(system, artifacts)
-> dict``.  :data:`RUN_GRAPH` declares the seven stages of a run and
their data dependencies:

.. code-block:: text

    request ─ build ─ plan ─ trace ─ run/segments ─ timing
                                │                      │
                                │                   prepared
                                │                 ┌────┴────┐
                                └─── check       noc        │
                                       │          │         │
                                       │      noc_terms     │
                                       │          └── schedule
                                       │                 │
                                       └─── report ── scheduled
                                              │
                                            result

:meth:`StageGraph.run` walks the nodes serially in declared order: the
stages are CPU-bound Python sharing one interpreter lock, so threads
over them would not overlap.  The graph names the stages, checks their
wiring at construction, and times the walk.

Every stage has one body.  The graph nodes and the split-phase
``prepare → estimate_traffic → finalize`` API of
:class:`~repro.core.system.ParaVerserSystem` both call
:func:`trace_stage`, :func:`timing_stage`,
:func:`~repro.pipeline.report.run_schedule`, :func:`check_stage` and
:func:`~repro.pipeline.report.assemble`, so the two paths cannot drift
apart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.checker import CheckResult
from repro.core.counter import Segment
from repro.core.hashmode import DIGEST_BYTES
from repro.cpu.functional import RunResult
from repro.pipeline.artifacts import PreparedRun, RunPlan, RunRequest
from repro.pipeline.check import verify_sample
from repro.pipeline.context import SimContext
from repro.pipeline.noc import estimate_traffic, noc_adjustment
from repro.pipeline.report import assemble, run_schedule
from repro.pipeline.timing import (
    baseline_timing,
    checker_durations,
    main_timing,
)
from repro.pipeline.trace import run_functional, segment_trace

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.core.system import ParaVerserSystem

#: Signature of a stage function: consumes the artifact store, returns
#: a dict holding exactly the node's declared outputs.
StageFn = Callable[["ParaVerserSystem", dict], dict]


@dataclass(frozen=True)
class StageNode:
    """One declared pipeline stage."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    fn: StageFn


class StageGraph:
    """Stage nodes in run order, each consuming only earlier artifacts."""

    def __init__(self, nodes: list[StageNode]) -> None:
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in {names}")
        producers: dict[str, str] = {}
        for node in nodes:
            for output in node.outputs:
                if output in producers:
                    raise ValueError(
                        f"artifact {output!r} produced by both "
                        f"{producers[output]!r} and {node.name!r}")
                producers[output] = node.name
        declared: set[str] = set()
        for node in nodes:
            for name in node.inputs:
                if name in producers and name not in declared:
                    raise ValueError(
                        f"stage {node.name!r} consumes {name!r} before "
                        f"its producer {producers[name]!r} runs")
            declared.update(node.outputs)
        self.nodes = list(nodes)
        self.producers = producers
        #: Artifacts no node produces; the caller supplies them.
        self.external_inputs = tuple(sorted({
            name for node in nodes for name in node.inputs
            if name not in producers
        }))

    def __len__(self) -> int:
        return len(self.nodes)

    def run(self, system: "ParaVerserSystem",
            initial: dict[str, object]) -> dict[str, object]:
        """Run every node in declared order; returns the artifact store."""
        missing = [name for name in self.external_inputs
                   if name not in initial]
        if missing:
            raise ValueError(f"stage graph missing inputs {missing}")
        artifacts = dict(initial)
        started = time.perf_counter()
        for node in self.nodes:
            produced = node.fn(system, artifacts) or {}
            absent = set(node.outputs) - set(produced)
            if absent:
                raise RuntimeError(
                    f"stage {node.name!r} did not produce {sorted(absent)}")
            for name in node.outputs:
                artifacts[name] = produced[name]
        stats = system.ctx.stats.group("pipeline").group(
            "executor", "serial stage-graph walk")
        stats.count("stages_run", len(self.nodes))
        stats.scalar("wall_time_ms", (time.perf_counter() - started) * 1e3,
                     "graph start-to-finish wall time")
        return artifacts


# -- the stage bodies ---------------------------------------------------------

def trace_stage(ctx: SimContext,
                request: RunRequest) -> tuple[RunResult, list[Segment]]:
    """Functional execution + segmentation (the RCU checkpoint pass)."""
    with ctx.stage_timer("trace"):
        run = request.run_result or run_functional(
            ctx, request.program, request.max_instructions)
        segments = segment_trace(ctx, run, request.forced_boundaries,
                                 request.boundary_checkpoints)
    return run, segments


def timing_stage(system: "ParaVerserSystem", request: RunRequest,
                 run: RunResult, segments: list[Segment]) -> PreparedRun:
    """Baseline grid, checked pass 1, per-class checker durations."""
    ctx = system.ctx
    config = ctx.config
    boundaries = [seg.end for seg in segments]
    with ctx.stage_timer("timing"):
        # Baseline timing (no checking, demand-traffic-only NoC effects)
        # runs against a fixed instruction grid, so the measured window
        # aligns with any configuration's segment boundaries and one
        # baseline can be cached across configurations.
        baseline = request.baseline
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
        system=system,
        run=run,
        segments=segments,
        boundaries=boundaries,
        baseline=baseline,
        checked_pass1=checked_pass1,
        durations_by_class=durations_by_class,
        checker_llc=checker_llc,
        lsl_bytes=int(lsl_bytes),
    )


def check_stage(ctx: SimContext, run: RunResult, segments: list[Segment],
                verify: bool) -> list[CheckResult]:
    """End-to-end replay self-check on a healthy checker."""
    with ctx.stage_timer("check"):
        return verify_sample(ctx.config, run.program, segments) \
            if verify else []


# -- the seven graph nodes ----------------------------------------------------

def _stage_build(system: "ParaVerserSystem", art: dict) -> dict:
    """Stamp the request with the run's configuration identity."""
    with system.ctx.stage_timer("build"):
        return {"plan": RunPlan(request=art["request"],
                                config_label=system.config_label())}


def _stage_trace(system: "ParaVerserSystem", art: dict) -> dict:
    run, segments = trace_stage(system.ctx, art["plan"].request)
    return {"run": run, "segments": segments}


def _stage_timing(system: "ParaVerserSystem", art: dict) -> dict:
    return {"prepared": timing_stage(system, art["plan"].request, art["run"],
                                     art["segments"])}


def _stage_noc(system: "ParaVerserSystem", art: dict) -> dict:
    """M/M/1 mesh contention backpropagated into LLC/LSL latencies."""
    ctx = system.ctx
    with ctx.stage_timer("noc"):
        traffic = estimate_traffic(ctx, art["prepared"])
        return {"noc_terms": noc_adjustment(ctx, traffic)}


def _stage_schedule(system: "ParaVerserSystem", art: dict) -> dict:
    extra_llc, push_latency = art["noc_terms"]
    return {"scheduled": run_schedule(system.ctx, art["prepared"], extra_llc,
                                      push_latency)}


def _stage_check(system: "ParaVerserSystem", art: dict) -> dict:
    return {"verify_results": check_stage(
        system.ctx, art["run"], art["segments"],
        art["plan"].request.verify)}


def _stage_report(system: "ParaVerserSystem", art: dict) -> dict:
    extra_llc, _push_latency = art["noc_terms"]
    return {"result": assemble(system.ctx, art["prepared"], art["scheduled"],
                               art["verify_results"], extra_llc,
                               config_label=art["plan"].config_label)}


#: The declared graph of one checked run.  ``request`` is the single
#: external input; ``result`` is the terminal artifact.
RUN_GRAPH = StageGraph([
    StageNode("build", ("request",), ("plan",), _stage_build),
    StageNode("trace", ("plan",), ("run", "segments"), _stage_trace),
    StageNode("timing", ("plan", "run", "segments"), ("prepared",),
              _stage_timing),
    StageNode("noc", ("prepared",), ("noc_terms",), _stage_noc),
    StageNode("schedule", ("prepared", "noc_terms"),
              ("scheduled",), _stage_schedule),
    StageNode("check", ("plan", "run", "segments"),
              ("verify_results",), _stage_check),
    StageNode("report", ("plan", "prepared", "scheduled", "verify_results",
                         "noc_terms"),
              ("result",), _stage_report),
])

__all__ = [
    "RUN_GRAPH",
    "StageGraph",
    "StageNode",
    "check_stage",
    "timing_stage",
    "trace_stage",
]
