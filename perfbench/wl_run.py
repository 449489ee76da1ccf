"""Workload ``run``: independent cold checked runs, one caller, in-process.

Each operation is ``ParaVerserSystem(config).run(build_program(profile,
seed), 50_000)`` with a fresh system and no trace cache, over four
profiles and two checker pools (the ``paraverser run`` defaults and a
single slow checker in opportunistic Hash Mode).  A pass runs all eight
combinations once, in a seeded order, each with a program seed drawn
from the reference pool.
"""

from __future__ import annotations

import time

from common import (
    HostSpeed,
    digest,
    draw,
    import_seconds,
    median,
    quantile,
    rng_for,
)

INSTRUCTIONS = 50_000
PROFILES = ("mcf", "bwaves", "gcc", "exchange2")
#: config id -> (checker pool, mode, hash mode)
CONFIGS = {
    "full4": ("4xA510@2.0", "full", False),
    "opp1hash": ("1xA510@1.0", "opportunistic", True),
}
COMBOS = [(p, c) for p in PROFILES for c in CONFIGS]
#: Program seeds the reference digests cover.
POOL = list(range(1, 9))
WARMUP = ("exchange2", "full4", 0)

IMPORTS = ["repro.core.system", "repro.workloads", "repro.cli"]


def make_config(config_id: str, seed: int):
    """The configuration ``paraverser run`` builds for these flags."""
    from repro.cli import parse_checkers
    from repro.core.system import CheckMode, ParaVerserConfig
    from repro.cpu.config import CoreInstance
    from repro.cpu.presets import CORE_CLASSES

    checkers, mode, hash_mode = CONFIGS[config_id]
    return ParaVerserConfig(
        main=CoreInstance(CORE_CLASSES["X2"], 3.0),
        checkers=parse_checkers(checkers),
        mode=CheckMode(mode),
        hash_mode=hash_mode,
        seed=seed,
    )


def result_digest(result) -> str:
    """Digest of the simulated outputs of one run."""
    return digest({
        "instructions": result.instructions,
        "segments": result.segments,
        "baseline_cycles": result.baseline_timing.cycles,
        "main_cycles": result.main_timing.cycles,
        "baseline_ns": result.baseline_time_ns,
        "checked_ns": result.checked_time_ns,
        "slowdown": result.slowdown,
        "coverage": result.coverage,
        "stall_ns": result.stall_ns,
        "lsl_bytes": result.lsl_bytes,
        "cut_reasons": result.cut_reasons,
    })


def reference_key(profile: str, config_id: str, seed: int) -> str:
    return f"run:{profile}:{config_id}:{seed}"


def simulate(profile: str, config_id: str, seed: int):
    """One operation: a fresh system runs a freshly built program."""
    from repro.core.system import ParaVerserSystem
    from repro.workloads import build_program, get_profile

    program = build_program(get_profile(profile), seed)
    system = ParaVerserSystem(make_config(config_id, seed))
    return system.run(program, INSTRUCTIONS)


class Workload:
    name = "run"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = rng_for(self.name, seed)
        self.speed = HostSpeed()

    def setup(self) -> float:
        """Import in a fresh interpreter plus one warm-up run here."""
        seconds = import_seconds(IMPORTS)
        started = time.perf_counter()
        simulate(*WARMUP)
        return seconds + time.perf_counter() - started

    def close(self) -> None:
        pass

    def measure(self, seconds: float, checker, tracer=None) -> dict:
        by_combo: dict[tuple, list[float]] = {}
        passes = 0
        pass_s = 0.0
        started = time.perf_counter()
        # Whole passes only, so every combination weighs the same; a pass
        # starts if at least half of it fits in the budget.
        while not passes or (time.perf_counter() - started + pass_s / 2
                             <= seconds):
            passes += 1
            order = list(COMBOS)
            self.rng.shuffle(order)
            seeds = draw(self.rng, POOL, len(order))
            pass_start = time.perf_counter()
            for (profile, config_id), seed in zip(order, seeds):
                checker.attempt()
                self.speed.sample()
                t0 = time.perf_counter()
                index = tracer.open("run", rid=f"{profile}:{config_id}:"
                                    f"{seed}") if tracer else None
                try:
                    result = simulate(profile, config_id, seed)
                except Exception as exc:  # noqa: BLE001 - counted failure
                    checker.fail(f"{profile}/{config_id}/{seed}: {exc!r}")
                    continue
                finally:
                    if tracer:
                        tracer.close(index)
                wall = time.perf_counter() - t0
                if checker.expect(reference_key(profile, config_id, seed),
                                  result_digest(result)):
                    by_combo.setdefault((profile, config_id),
                                        []).append(wall)
            pass_s = time.perf_counter() - pass_start
        if not by_combo:
            return {}
        # Per-combination medians resist one noisy run, and each
        # combination weighs once, as it does in a pass.
        typical = [median(v) for v in by_combo.values()]
        return {
            "throughput_per_s": INSTRUCTIONS * len(typical) / sum(typical),
            "latency_p50_ms": median(typical) * 1e3,
            "latency_p90_ms": quantile(typical, 0.9) * 1e3,
        }

    # -- traced run --------------------------------------------------------

    def install(self, tracer) -> None:
        """Wrap the layers' public functions and the nodes of RUN_GRAPH."""
        import repro.core.system as system_mod
        import repro.workloads as workloads
        from repro.cpu.timing import TimingModel
        from repro.pipeline import timing as timing_mod
        from repro.pipeline import trace as trace_mod
        from repro.pipeline.graph import RUN_GRAPH, StageGraph, StageNode

        def count_functional(span, result, args, kwargs):
            tracer.count("functional.inst", result.instructions)

        def count_simulate(span, result, args, kwargs):
            tracer.count("timing.sim_calls")
            tracer.count("timing.sim_inst", result.instructions)

        tracer.patch_function(workloads.build_program, "workloads.build")
        tracer.patch_function(trace_mod.run_functional, "functional",
                              count_functional)
        tracer.patch_function(trace_mod.segment_trace, "segment")
        tracer.patch_function(timing_mod.baseline_timing, "timing.baseline")
        tracer.patch_function(timing_mod.main_timing, "timing.main")
        tracer.patch_function(timing_mod.checker_durations, "timing.checker")
        tracer.patch_method(TimingModel, "simulate", "timing.simulate",
                            count_simulate)
        # ``ParaVerserSystem.run`` looks RUN_GRAPH up in its module's
        # globals at call time, and the stage functions look the helpers
        # above up in theirs, so a graph of wrapped nodes swapped in
        # there records the stages and the layers under them on the
        # program's own path.
        tracer.patch_attr(system_mod, "RUN_GRAPH", StageGraph([
            StageNode(node.name, node.inputs, node.outputs,
                      tracer.wrap(node.fn, f"stage.{node.name}"))
            for node in RUN_GRAPH.nodes
        ]))
        tracer.patch_method(system_mod.ParaVerserSystem, "run",
                            "run.execute")

    def uninstall(self) -> None:
        pass

    def layers(self, tracer, checker, seconds: float) -> dict:
        stages = sum(tracer.busy(f"stage.{n}") for n in
                     ("build", "trace", "timing", "noc", "schedule",
                      "check", "report"))
        wall = tracer.busy("run.execute")
        functional = tracer.busy("functional")
        simulate_s = tracer.busy("timing.simulate")
        return {
            "workloads.build_s": tracer.busy("workloads.build"),
            "functional.busy_s": functional,
            "functional.inst_per_s":
                tracer.counts["functional.inst"] / functional
                if functional else 0.0,
            "segment.busy_s": tracer.busy("segment"),
            "timing.baseline_s": tracer.busy("timing.baseline"),
            # main_timing calls not already inside baseline_timing
            "timing.main_s": sum(
                s.duration for s in tracer.named("timing.main")
                if s.parent is None
                or tracer.spans[s.parent].name != "timing.baseline"),
            "timing.checker_s": tracer.busy("timing.checker"),
            "timing.sim_calls": tracer.counts["timing.sim_calls"],
            "timing.inst_per_s":
                tracer.counts["timing.sim_inst"] / simulate_s
                if simulate_s else 0.0,
            "stage.build_s": tracer.busy("stage.build"),
            "stage.trace_s": tracer.busy("stage.trace"),
            "stage.timing_s": tracer.busy("stage.timing"),
            "noc.busy_s": tracer.busy("stage.noc"),
            "schedule.busy_s": tracer.busy("stage.schedule"),
            "check.busy_s": tracer.busy("stage.check"),
            "report.busy_s": tracer.busy("stage.report"),
            "executor.overhead_s": wall - stages,
            "run.wall_s": wall,
        }
