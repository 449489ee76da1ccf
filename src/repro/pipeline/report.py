"""Pipeline stage 7: final timing, measured-window cut, and reporting.

Re-times the checked main core with NoC effects applied, schedules the
segments over the checker pool, cuts the cold warmup prefix from the
measured window, and assembles the :class:`SystemResult` plus the run's
observability tree.
"""

from __future__ import annotations

from repro.core.allocator import CheckerSlot
from repro.core.checker import CheckResult
from repro.obs import StatGroup
from repro.pipeline.artifacts import PreparedRun, ScheduledRun, SystemResult
from repro.pipeline.context import SimContext
from repro.pipeline.schedule import make_slots, schedule_segments
from repro.pipeline.timing import grid_time_at, main_timing


def run_schedule(ctx: SimContext, prepared: PreparedRun, extra_llc: float,
                 push_latency: float) -> ScheduledRun:
    """Re-time the checked main with NoC effects and schedule the pool."""
    config = ctx.config
    with ctx.stage_timer("timing"):
        checked = main_timing(config, prepared.run, prepared.boundaries,
                              extra_llc, stats=ctx.stats.group("main"))
    slots = make_slots(config)
    with ctx.stage_timer("schedule"):
        schedule, stall_ns, covered = schedule_segments(
            config, prepared.segments, checked.boundary_times_ns(),
            prepared.durations_by_class, slots,
            push_latency_ns=push_latency)
    return ScheduledRun(checked=checked, slots=slots, schedule=schedule,
                        stall_ns=stall_ns, covered_instructions=covered)


def assemble(ctx: SimContext, prepared: PreparedRun,
             scheduled: ScheduledRun, verify_results: list[CheckResult],
             extra_llc: float, config_label: str = "") -> SystemResult:
    """Measured-window cut, :class:`SystemResult` assembly, stats export."""
    config = ctx.config
    run = prepared.run
    segments = prepared.segments
    checked = scheduled.checked
    schedule = scheduled.schedule
    stall_ns = scheduled.stall_ns
    coverage = scheduled.covered_instructions / max(run.instructions, 1)
    checked_time = checked.time_ns + stall_ns
    baseline_time = prepared.baseline.time_ns

    # Measured window: drop a cold prefix from both sides, like the
    # paper's fast-forwarded measurements.  The cut lands on a segment
    # boundary; the baseline's time there comes from its instruction
    # grid, so windows stay instruction-aligned across configurations.
    target = int(config.warmup_fraction * run.instructions)
    warmup = 0
    while warmup < len(segments) and segments[warmup].end < target:
        warmup += 1
    checked_bt = checked.boundary_times_ns()
    # Bandwidth-floor-bound runs are uniformly dilated, which breaks
    # window alignment — and they have no cold-start transient to drop.
    floor_bound = (checked.floor_scale > 1.0
                   or prepared.baseline.floor_scale > 1.0)
    if floor_bound:
        warmup = 0
    if 0 < warmup <= len(segments) // 2:
        cut_instr = segments[warmup - 1].end
        warm_stall = sum(s.stalled_ns for s in schedule[:warmup])
        checked_time -= checked_bt[warmup - 1] + warm_stall
        baseline_time -= grid_time_at(prepared.baseline, cut_instr)

    cut_reasons: dict[str, int] = {}
    for seg in segments:
        cut_reasons[seg.reason.value] = cut_reasons.get(
            seg.reason.value, 0) + 1

    result = SystemResult(
        workload=run.program.name,
        mode=config.mode,
        config_label=config_label,
        instructions=run.instructions,
        baseline_time_ns=baseline_time,
        checked_time_ns=checked_time,
        segments=len(segments),
        stall_ns=stall_ns,
        coverage=coverage,
        lsl_bytes=prepared.lsl_bytes,
        checkpoints=len(segments) + 1,
        noc_extra_llc_ns=extra_llc,
        baseline_timing=prepared.baseline,
        main_timing=checked,
        checker_slots=scheduled.slots,
        schedule=schedule,
        verify_results=verify_results,
        cut_reasons=cut_reasons,
        stats=ctx.stats,
    )
    with ctx.stage_timer("report"):
        export_run_stats(ctx.stats, result)
    return result


def export_run_stats(stats: StatGroup, result: SystemResult) -> None:
    """Publish the headline, schedule and checker-occupancy stats."""
    prepared_base = result.baseline_timing
    prepared_base.export_stats(stats.group("baseline"))

    sched = stats.group("schedule")
    sched.count("segments", result.segments, "checkpointed segments")
    sched.count("checkpoints", result.checkpoints)
    sched.scalar("stall_ns", result.stall_ns,
                 "main-core stall waiting for a free checker")
    sched.scalar("coverage", result.coverage,
                 "fraction of instructions checked")
    covered = sum(1 for s in result.schedule if s.covered)
    sched.count("segments_covered", covered)
    sched.count("segments_uncovered", len(result.schedule) - covered)
    reasons = sched.group("cut_reasons",
                          "why each segment boundary was cut")
    for reason, n in sorted(result.cut_reasons.items()):
        reasons.count(reason, n)
    lag = sched.histogram(
        "checker_lag_ns",
        desc="checker finish time behind the segment's main-core end")
    lag.reset()  # finalize runs twice per cluster pass (with/without LSL)
    for s in result.schedule:
        if s.checker_label is not None:
            lag.record(max(s.checker_finish_ns - s.main_end_ns, 0.0))

    export_checker_stats(stats.group("checkers"), result.checker_slots,
                         result.checked_time_ns)

    top = stats.group("result")
    top.scalar("baseline_time_ns", result.baseline_time_ns)
    top.scalar("checked_time_ns", result.checked_time_ns)
    top.scalar("slowdown", result.slowdown)
    top.scalar("overhead_percent", result.overhead_percent)
    top.scalar("coverage", result.coverage)
    top.count("instructions", result.instructions)
    top.count("lsl_bytes", result.lsl_bytes)
    top.scalar("noc_extra_llc_ns", result.noc_extra_llc_ns)


def export_checker_stats(group: StatGroup, slots: list[CheckerSlot],
                         run_time_ns: float) -> None:
    """Per-slot busy time, work done, and occupancy over the run."""
    total_busy = 0.0
    for slot in slots:
        sub = group.group(slot.label)
        sub.scalar("busy_ns", slot.busy_ns)
        sub.count("segments_checked", slot.segments_checked)
        sub.count("instructions_checked", slot.instructions_checked)
        sub.scalar("occupancy",
                   slot.busy_ns / run_time_ns if run_time_ns > 0 else 0.0,
                   "fraction of the run this checker was busy")
        total_busy += slot.busy_ns
    group.scalar("pool_occupancy",
                 total_busy / (run_time_ns * len(slots))
                 if run_time_ns > 0 and slots else 0.0,
                 "mean occupancy across the checker pool")
