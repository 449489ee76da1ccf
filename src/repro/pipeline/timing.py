"""Pipeline stage 3: trace-driven core timing.

Times the unchecked baseline (against a fixed instruction grid so one
baseline can be cached and window-aligned across configurations), the
checked main core, and each distinct checker class, over a per-main
partition of the shared uncore.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.simconfig import ParaVerserConfig
from repro.cpu.config import CoreInstance
from repro.cpu.functional import RunResult
from repro.cpu.timing import TimingModel, TimingResult
from repro.isa.program import Program
from repro.mem.hierarchy import SharedUncore
from repro.noc.traffic import MainTraffic
from repro.obs import StatGroup
from repro.pipeline.context import SimContext

#: Instruction step of the baseline's measurement grid.
BASELINE_GRID = 1000


def grid_time_at(baseline: TimingResult, instruction: int) -> float:
    """Baseline elapsed time at ``instruction``, from its boundary grid."""
    times = baseline.boundary_times_ns()
    if not times:
        return baseline.time_ns * instruction / max(baseline.instructions, 1)
    idx = min(instruction // BASELINE_GRID, len(times) - 1)
    base = times[idx - 1] if idx > 0 else 0.0
    base_instr = idx * BASELINE_GRID
    span_instr = min((idx + 1) * BASELINE_GRID,
                     baseline.instructions) - base_instr
    if span_instr <= 0:
        return times[idx]
    frac = (instruction - base_instr) / span_instr
    return base + max(min(frac, 1.0), 0.0) * (times[idx] - base)


def warm_addresses(program: Program):
    """Addresses to functionally warm before timing a main core.

    Covers the program's resident memory image (pointer-chase rings, seeded
    pages) plus any profile-declared warm ranges (working sets small enough
    to be LLC-resident in steady state).
    """
    yield from program.memory_image.keys()
    for base, length in program.metadata.get("warm_ranges", []):
        yield from range(base, base + length, 64)


def build_uncore(config: ParaVerserConfig,
                 extra_llc_ns: float) -> SharedUncore:
    """This main core's partition of the shared LLC + DRAM channel."""
    hierarchy = config.main.config.hierarchy
    l3 = hierarchy.l3
    dram = hierarchy.dram
    share = config.llc_share
    if share < 1.0:
        # Static uncore partitioning for multi-main clusters: each main
        # gets its slice of LLC capacity and DRAM bandwidth.
        ways = max(1, round(l3.ways * share))
        sets = int(l3.size_bytes * share) // (ways * l3.line_bytes)
        sets = 1 << max(sets.bit_length() - 1, 0)  # power-of-two sets
        l3 = replace(l3, size_bytes=sets * ways * l3.line_bytes, ways=ways)
        dram = replace(
            dram, peak_bandwidth_gbps=dram.peak_bandwidth_gbps * share)
    uncore = SharedUncore(l3, dram, hierarchy.uncore_clock_ghz)
    uncore.extra_llc_latency_ns = extra_llc_ns
    return uncore


def main_timing(config: ParaVerserConfig, run: RunResult,
                boundaries: list[int] | None,
                extra_llc_ns: float,
                checkpoint_overhead: bool | None = None,
                stats: StatGroup | None = None) -> TimingResult:
    """Time the main core over ``run``'s trace.

    The main core's data caches start warm (see :func:`warm_addresses`).
    The first pass over a program and L1D/L2/L3 geometry warms them and
    keeps snapshots on the program; later passes restore those.  Warming
    leaves only cache residency behind (it resets every counter and the
    DRAM open rows), and residency depends on the addresses and the
    geometries alone, so a restore is exact.

    With ``stats``, the run's counters and the full cache/DRAM hierarchy
    state are published into that group after simulation.
    """
    model = TimingModel(config.main, build_uncore(config, extra_llc_ns))
    hierarchy = model.hierarchy
    caches = (hierarchy.l1d, hierarchy.l2, hierarchy.uncore.l3)
    program = run.program
    warmed = getattr(program, "_warm_snapshots", None)
    if warmed is None:
        warmed = program._warm_snapshots = {}
    key = tuple(cache.config for cache in caches)
    snapshots = warmed.get(key)
    if snapshots is None:
        model.warm_data(warm_addresses(program))
        warmed[key] = tuple(cache.snapshot() for cache in caches)
    else:
        for cache, snapshot in zip(caches, snapshots):
            cache.restore(snapshot)
    if checkpoint_overhead is None:
        checkpoint_overhead = boundaries is not None
    result = model.simulate(program, run.columns, boundaries,
                            checkpoint_overhead=checkpoint_overhead)
    if stats is not None:
        result.export_stats(stats, config.main.config)
        hierarchy.export_stats(stats.group("caches"))
        hierarchy.uncore.export_stats(stats.group("uncore"))
    return result


def checker_timing(config: ParaVerserConfig, run: RunResult,
                   boundaries: list[int],
                   instance: CoreInstance) -> TimingResult:
    """Time one checker class replaying the segments of ``run``."""
    model = TimingModel(instance, build_uncore(config, 0.0),
                        checker_mode=True)
    model.warm_code(run.program)
    return model.simulate(run.program, run.columns, boundaries,
                          checkpoint_overhead=True)


def baseline_timing(ctx: SimContext, run: RunResult) -> TimingResult:
    """Unchecked baseline over the fixed instruction grid.

    Demand traffic alone still contends on the mesh, so the baseline's
    own NoC-induced LLC latency is backpropagated before the gridded
    timing pass.
    """
    config = ctx.config
    base_pass = main_timing(config, run, None, 0.0)
    base_traffic = MainTraffic(
        main_id=config.main_id,
        duration_ns=base_pass.time_ns,
        llc_accesses=base_pass.llc_accesses,
        checkers_used=len(config.checkers),
    )
    mesh = ctx.traffic_model.build([base_traffic], include_lsl=False)
    base_extra = ctx.traffic_model.llc_extra_latency_ns(
        mesh, config.main_id)
    grid = list(range(BASELINE_GRID, len(run.columns), BASELINE_GRID))
    grid.append(len(run.columns))
    return main_timing(config, run, grid, base_extra,
                       checkpoint_overhead=False)


def checker_durations(
    ctx: SimContext, run: RunResult, boundaries: list[int],
) -> tuple[dict[str, list[float]], int]:
    """Per-segment check durations for each distinct checker class.

    Each class replays the whole trace on one fresh
    :class:`TimingModel`: segments within one class must NOT be timed
    apart, because the model carries microarchitectural state (branch
    predictor, ROB, MSHRs, cache contents) across segment boundaries.
    """
    config = ctx.config
    distinct: dict[str, CoreInstance] = {
        inst.label: inst for inst in config.checkers
    }
    durations_by_class: dict[str, list[float]] = {}
    checker_llc = 0
    for label, inst in distinct.items():
        timing = checker_timing(config, run, boundaries, inst)
        times = timing.boundary_times_ns()
        durations = [times[0]] + [
            times[i] - times[i - 1] for i in range(1, len(times))
        ]
        durations_by_class[label] = durations
        checker_llc = max(checker_llc, timing.llc_accesses)
    return durations_by_class, checker_llc
