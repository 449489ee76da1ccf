"""Workload ``fleet``: fleet traffic cells, in-process, ``jobs=1``.

A pass runs two static cells (jbsq2/full at load 0.9 and
shortest/opportunistic at load 0.7) and one diurnal cell driven by the
threshold controller (``epoch_s`` 0.1), each with a seed drawn from the
reference pool.  No cell touches the CPU simulator.
"""

from __future__ import annotations

import time
from dataclasses import replace

from common import (
    HostSpeed,
    digest,
    draw,
    import_seconds,
    median,
    quantile,
    rng_for,
)
from metrics import FLEET_JOBS

CELLS = ("jbsq2_full", "shortest_opportunistic", "diurnal_threshold")
POOL = list(range(1, 17))
IMPORTS = ["repro.fleet", "repro.control"]


def make_cell(cell: str, seed: int):
    from repro.control.bench import DEFAULT_CONTROLLER, diurnal_config
    from repro.fleet import FleetTrafficConfig

    if cell == "jbsq2_full":
        return FleetTrafficConfig(policy="jbsq2", mode="full", load=0.9,
                                  seed=seed)
    if cell == "shortest_opportunistic":
        return FleetTrafficConfig(policy="shortest", mode="opportunistic",
                                  load=0.7, seed=seed)
    return replace(diurnal_config(load=0.7, epoch_s=0.1, seed=seed),
                   controller=DEFAULT_CONTROLLER)


def result_digest(result) -> str:
    """Completed count and latency percentiles of one cell."""
    latencies = result.latencies_s
    return digest({
        "offered": result.offered,
        "completed": result.completed,
        "switches": result.switches,
        "quantiles": [quantile(latencies, q) for q in (0.5, 0.9, 0.99)]
        if latencies else [],
    })


def reference_key(cell: str, seed: int) -> str:
    return f"fleet:{cell}:{seed}"


def run_cell(cell: str, seed: int):
    from repro.fleet.sim import run_cell as fleet_run_cell

    return fleet_run_cell(make_cell(cell, seed), jobs=FLEET_JOBS)


class Workload:
    name = "fleet"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = rng_for(self.name, seed)
        self.speed = HostSpeed()

    def setup(self) -> float:
        return import_seconds(IMPORTS)

    def close(self) -> None:
        pass

    def measure(self, seconds: float, checker, tracer=None) -> dict:
        walls: list[float] = []
        completed = 0
        busy = 0.0
        passes = 0
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            passes += 1
            seeds = draw(self.rng, POOL, len(CELLS))
            for cell, seed in zip(CELLS, seeds):
                checker.attempt()
                self.speed.sample()
                t0 = time.perf_counter()
                try:
                    result = run_cell(cell, seed)
                except Exception as exc:  # noqa: BLE001 - counted failure
                    checker.fail(f"{cell}/{seed}: {exc!r}")
                    continue
                wall = time.perf_counter() - t0
                if checker.expect(reference_key(cell, seed),
                                  result_digest(result)):
                    walls.append(wall)
                    completed += result.completed
                    busy += wall
        if not walls:
            return {}
        return {
            "throughput_per_s": completed / busy,
            "latency_p50_ms": median(walls) * 1e3,
            "latency_p90_ms": quantile(walls, 0.9) * 1e3,
        }

    # -- traced run --------------------------------------------------------

    def install(self, tracer) -> None:
        from repro.fleet.sim import FleetTrafficSim

        def count(span, result, args, kwargs):
            sim = args[0]
            span.attrs.update(controlled=sim.controller is not None,
                              completed=result.completed,
                              events=result.offered + result.completed)

        tracer.patch_method(FleetTrafficSim, "run", "fleet.sim", count)

    def uninstall(self) -> None:
        pass

    def layers(self, tracer, checker, seconds: float) -> dict:
        sims = tracer.named("fleet.sim")
        static = [s for s in sims if not s.attrs["controlled"]]
        controlled = [s for s in sims if s.attrs["controlled"]]

        def cost(spans) -> float:
            done = sum(s.attrs["completed"] for s in spans)
            return sum(s.duration for s in spans) / done if done else 0.0

        static_cost = cost(static)
        return {
            "fleet.static_s": sum(s.duration for s in static),
            "fleet.controlled_s": sum(s.duration for s in controlled),
            "fleet.events": float(sum(s.attrs["events"] for s in sims)),
            "control.overhead_ratio":
                cost(controlled) / static_cost if static_cost else 0.0,
        }
