"""Per-figure experiment runners.

One function per table/figure of the paper's evaluation (section VII).
Each returns a :class:`~repro.harness.report.Table` whose rows/series
match what the paper plots, sized by the ``REPRO_*`` environment knobs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cluster import ClusterSystem
from repro.core.system import CheckMode
from repro.cpu.config import CoreInstance
from repro.cpu.presets import A510, X2
from repro.detect import get_backend
from repro.faults.engine import build_campaign_context
from repro.harness.parallel import SweepCell
from repro.harness.report import Table, slowdown_percent
from repro.harness.runner import (
    WorkloadCache,
    env_benchmarks,
    env_instructions,
    env_timeout,
    env_trials,
    main_x2,
    make_config,
    spec_benchmarks,
    DEFAULT_SEED,
)
from repro.noc.mesh import FAST_NOC, SLOW_NOC
from repro.power.ed2p import A510_SWEEP_GHZ
from repro.power.energy import energy_report
from repro.workloads.generator import build_parallel_programs, build_program
from repro.workloads.profiles import GAP, PARSEC, SPEC_MIXES, get_profile


def a510(freq: float) -> CoreInstance:
    """An A510 checker instance at ``freq`` GHz."""
    return CoreInstance(A510, freq)


def x2(freq: float) -> CoreInstance:
    """An X2 instance at ``freq`` GHz."""
    return CoreInstance(X2, freq)


# -- Fig. 6: full-coverage slowdown ------------------------------------------

#: The checker configurations of Fig. 6, plus the prior-work baselines
#: (looked up in the detection-backend registry, like every other scheme).
FIG6_CONFIGS = {
    "1xX2@3GHz": lambda: make_config([x2(3.0)]),
    "2xX2@1.5GHz": lambda: make_config([x2(1.5)] * 2),
    "4xA510@2GHz": lambda: make_config([a510(2.0)] * 4),
    "DSN18(12ded)": lambda: get_backend("dsn18").make_config(
        timeout_instructions=env_timeout()),
    "ParaDox(16ded)": lambda: get_backend("paradox").make_config(
        timeout_instructions=env_timeout()),
}


def run_fig6(cache: WorkloadCache | None = None,
             benchmarks: list[str] | None = None,
             include_ed2p: bool = True) -> Table:
    """Fig. 6: slowdown of the 3 GHz X2 main core, full-coverage mode."""
    cache = cache or WorkloadCache()
    benchmarks = benchmarks or spec_benchmarks()
    cells = []
    for name in benchmarks:
        for label, make in FIG6_CONFIGS.items():
            cells.append(SweepCell(name, label, make()))
        if include_ed2p:
            cells.extend(_ed2p_cells(name))
    results = dict(zip(((c.benchmark, c.label) for c in cells),
                       cache.sweep(cells)))
    table = Table(title="Fig. 6 — full-coverage slowdown (%)")
    for name in benchmarks:
        for label in FIG6_CONFIGS:
            table.add(name, label,
                      slowdown_percent(results[name, label].slowdown))
        if include_ed2p:
            best = _ed2p_best(cache, name, results)
            table.add(name, "4xA510@ED2P",
                      slowdown_percent(best.result.slowdown))
    return table


def _ed2p_cells(name: str) -> list[SweepCell]:
    """Sweep cells for the per-benchmark ED2P frequency search."""
    return [SweepCell(name, f"ed2p@{freq}", make_config([a510(freq)] * 4))
            for freq in A510_SWEEP_GHZ]


def _ed2p_best(cache: WorkloadCache, name: str, results: dict | None = None):
    """Per-benchmark ED2P-minimal 4xA510 configuration (section VII-A).

    When ``results`` holds pre-swept ``(benchmark, label)`` cells the
    frequency search reads from them instead of re-simulating.
    """
    from repro.power.ed2p import ed2p_sweep

    def run_at(freq: float):
        if results is not None:
            return results[name, f"ed2p@{freq}"]
        return cache.run_config(name, make_config([a510(freq)] * 4))

    return ed2p_sweep(run_at, main_x2(), A510_SWEEP_GHZ).best


# -- Fig. 7: opportunistic slowdown + coverage ---------------------------------

FIG7_CONFIGS = {
    "1xX2@3GHz": [lambda: make_config([x2(3.0)], CheckMode.OPPORTUNISTIC)],
    "1xX2@2.7GHz": [lambda: make_config([x2(2.7)], CheckMode.OPPORTUNISTIC)],
    "2xX2": [
        lambda: make_config([x2(1.35)] * 2, CheckMode.OPPORTUNISTIC),
        lambda: make_config([x2(1.5)] * 2, CheckMode.OPPORTUNISTIC),
    ],
    "4xA510": [
        lambda: make_config([a510(f)] * 4, CheckMode.OPPORTUNISTIC)
        for f in (1.6, 1.8, 2.0)
    ],
}


@dataclass
class Fig7Result:
    """Slowdown table plus the run-time instruction coverage table."""

    slowdown: Table
    coverage: Table


def run_fig7(cache: WorkloadCache | None = None,
             benchmarks: list[str] | None = None) -> Fig7Result:
    """Fig. 7: opportunistic-mode slowdown (and section VII-B coverage)."""
    cache = cache or WorkloadCache()
    benchmarks = benchmarks or spec_benchmarks()
    cells = [
        SweepCell(name, f"{label}#{i}", make())
        for name in benchmarks
        for label, makers in FIG7_CONFIGS.items()
        for i, make in enumerate(makers)
    ]
    swept = iter(cache.sweep(cells))
    slowdown = Table(title="Fig. 7 — opportunistic-mode slowdown (%)")
    coverage = Table(
        title="Run-time instruction coverage, opportunistic mode (%)",
        unit="% of instructions checked")
    for name in benchmarks:
        for label, makers in FIG7_CONFIGS.items():
            slowdowns, coverages = [], []
            for _ in makers:
                result = next(swept)
                slowdowns.append(slowdown_percent(result.slowdown))
                coverages.append(result.coverage * 100)
            slowdown.add(name, label, sum(slowdowns) / len(slowdowns))
            coverage.add(name, label, sum(coverages) / len(coverages))
    return Fig7Result(slowdown=slowdown, coverage=coverage)


# -- Fig. 8: hard-error detection coverage -------------------------------------

FIG8_CONFIGS = {
    "1xA510@0.5GHz": lambda: make_config([a510(0.5)],
                                         CheckMode.OPPORTUNISTIC),
    "1xA510@1GHz": lambda: make_config([a510(1.0)], CheckMode.OPPORTUNISTIC),
    "2xA510@2GHz": lambda: make_config([a510(2.0)] * 2,
                                       CheckMode.OPPORTUNISTIC),
}

#: Default Fig. 8 benchmark subset: the ones the paper calls out
#: (bwaves/deepsjeng/imagick/perlbench have <100 % at 500 MHz) plus a
#: spread of behaviours.  REPRO_BENCHMARKS overrides.
FIG8_DEFAULT_BENCHMARKS = [
    "bwaves", "deepsjeng", "imagick", "perlbench",
    "mcf", "gcc", "exchange2", "lbm",
]


@dataclass
class Fig8Result:
    """Detection coverage of effective (non-masked) injected errors."""

    coverage: Table
    #: Full-coverage-mode detection rate over all injections (~76 %).
    full_coverage_detection: float = 0.0
    injected: int = 0
    masked: int = 0


def run_fig8(cache: WorkloadCache | None = None,
             benchmarks: list[str] | None = None,
             trials: int | None = None) -> Fig8Result:
    """Fig. 8: error-detection coverage under opportunistic mode."""
    cache = cache or WorkloadCache()
    benchmarks = benchmarks or env_benchmarks(FIG8_DEFAULT_BENCHMARKS)
    trials = trials or env_trials()
    table = Table(title="Fig. 8 — hard-error detection coverage (%)",
                  unit="% of effective errors detected")
    detected_all = 0
    injected_all = 0
    masked_all = 0
    for name in benchmarks:
        for label, make in FIG8_CONFIGS.items():
            ctx = build_campaign_context(cache, name, make(),
                                         seed=DEFAULT_SEED)
            outcome = ctx.campaign.run(trials, seed=DEFAULT_SEED,
                                       covered=ctx.covered)
            table.add(name, label,
                      outcome.detection_rate_effective * 100)
            detected_all += outcome.detected
            injected_all += outcome.injected
            masked_all += outcome.masked
    return Fig8Result(
        coverage=table,
        full_coverage_detection=(detected_all + 0.0) / max(injected_all, 1),
        injected=injected_all,
        masked=masked_all,
    )


# -- Fig. 9: GAP and PARSEC ---------------------------------------------------

def run_fig9_gap(benchmarks: list[str] | None = None,
                 checker_counts: tuple[int, ...] = (1, 2, 3, 4),
                 cache: WorkloadCache | None = None) -> Table:
    """Fig. 9 (left): GAP full-coverage slowdown vs. #A510 checkers."""
    # GAP has its own fixed set; REPRO_BENCHMARKS only scopes SPEC figures.
    benchmarks = benchmarks or sorted(GAP)
    cache = cache or WorkloadCache()
    cells = [
        SweepCell(name, f"{count}xA510", make_config([a510(2.0)] * count))
        for name in benchmarks
        for count in checker_counts
    ]
    table = Table(title="Fig. 9 — GAP full-coverage slowdown (%)")
    for cell, result in zip(cells, cache.sweep(cells)):
        table.add(cell.benchmark, cell.label,
                  slowdown_percent(result.slowdown))
    return table


def run_fig9_parsec(benchmarks: list[str] | None = None,
                    checkers_per_main: int = 3) -> Table:
    """Fig. 9 (right): 2-thread PARSEC with A510 checkers per main core."""
    benchmarks = benchmarks or sorted(PARSEC)
    table = Table(title="Fig. 9 — PARSEC (2 threads) full-coverage "
                        f"slowdown, {checkers_per_main} A510/main (%)")
    per_thread = max(env_instructions() // 2, 4000)
    for name in benchmarks:
        profile = get_profile(name)
        programs = build_parallel_programs(profile, seed=DEFAULT_SEED)
        cluster = ClusterSystem(
            mains=[main_x2()] * profile.threads,
            checkers_per_main=[[a510(2.0)] * checkers_per_main]
            * profile.threads,
            seed=DEFAULT_SEED,
        )
        result = cluster.run_parallel(
            programs, max_instructions_per_thread=per_thread)
        table.add(name, f"{checkers_per_main}xA510/main",
                  slowdown_percent(result.parallel_slowdown))
    return table


# -- Fig. 10: multi-process mixes ---------------------------------------------

FIG10_CONFIGS = {
    "1xX2@3GHz": lambda: [x2(3.0)],
    "2xX2@1.5GHz": lambda: [x2(1.5)] * 2,
    "4xA510@2GHz": lambda: [a510(2.0)] * 4,
}


def run_fig10(mixes: dict[str, list[str]] | None = None) -> Table:
    """Fig. 10: 4-main-core SPEC mixes, slowdown on total CPI."""
    mixes = mixes or SPEC_MIXES
    table = Table(title="Fig. 10 — 4-core multi-process slowdown (%)",
                  row_label="mix")
    per_main = max(env_instructions() // 2, 4000)
    for mix_name, names in mixes.items():
        programs = [build_program(get_profile(n), seed=DEFAULT_SEED + i)
                    for i, n in enumerate(names)]
        for label, make in FIG10_CONFIGS.items():
            cluster = ClusterSystem(
                mains=[main_x2()] * 4,
                checkers_per_main=[make() for _ in range(4)],
                seed=DEFAULT_SEED,
            )
            result = cluster.run_multiprocess(programs,
                                              max_instructions=per_main)
            table.add(mix_name, label, slowdown_percent(result.slowdown))
            table.add(mix_name, label + " (no LSL NoC)",
                      slowdown_percent(result.slowdown_no_lsl))
    return table


# -- Fig. 11: NoC sensitivity ---------------------------------------------------

def run_fig11(cache: WorkloadCache | None = None,
              benchmarks: list[str] | None = None) -> Table:
    """Fig. 11: slow NoC vs. Hash Mode vs. fast NoC, full coverage."""
    cache = cache or WorkloadCache()
    benchmarks = benchmarks or spec_benchmarks()
    table = Table(title="Fig. 11 — NoC sensitivity, full-coverage "
                        "slowdown (%)")
    configs = {
        "slowNoC": make_config([x2(3.0)], noc=SLOW_NOC),
        "slowNoC+hash": make_config([x2(3.0)], hash_mode=True, noc=SLOW_NOC),
        "fastNoC": make_config([x2(3.0)], noc=FAST_NOC),
    }
    cells = [SweepCell(name, label, config)
             for name in benchmarks
             for label, config in configs.items()]
    for cell, result in zip(cells, cache.sweep(cells)):
        table.add(cell.benchmark, cell.label,
                  slowdown_percent(result.slowdown))
    return table


# -- Section VII-E: energy ----------------------------------------------------

SEC7E_ENERGY_CONFIGS = {
    "1xX2@3GHz (lockstep-like)": lambda: make_config([x2(3.0)]),
    "2xX2@1.5GHz": lambda: make_config([x2(1.5)] * 2),
    "4xA510@2GHz": lambda: make_config([a510(2.0)] * 4),
    "DSN18/ParaDox ded.": lambda: get_backend("paradox").make_config(
        timeout_instructions=env_timeout()),
}


@dataclass
class Sec7eResult:
    """Energy-overhead table plus ED2P numbers (section VII-E)."""

    energy: Table
    ed2p_energy_percent: float = 0.0
    ed2p_slowdown_percent: float = 0.0


#: Energy experiments default to a representative SPEC subset for speed.
SEC7E_DEFAULT_BENCHMARKS = [
    "bwaves", "gcc", "mcf", "exchange2", "imagick", "lbm", "deepsjeng",
    "perlbench",
]


def run_sec7e_energy(cache: WorkloadCache | None = None,
                     benchmarks: list[str] | None = None) -> Sec7eResult:
    """Section VII-E energy overheads vs. the power-gated baseline."""
    cache = cache or WorkloadCache()
    benchmarks = benchmarks or env_benchmarks(SEC7E_DEFAULT_BENCHMARKS)
    cells = []
    for name in benchmarks:
        for label, make in SEC7E_ENERGY_CONFIGS.items():
            cells.append(SweepCell(name, label, make()))
        cells.extend(_ed2p_cells(name))
    results = dict(zip(((c.benchmark, c.label) for c in cells),
                       cache.sweep(cells)))
    table = Table(title="Section VII-E — energy overhead (%)",
                  unit="% energy overhead vs power-gated checkers")
    ed2p_energy = []
    ed2p_slow = []
    for name in benchmarks:
        for label in SEC7E_ENERGY_CONFIGS:
            report = energy_report(results[name, label], main_x2())
            table.add(name, label, report.overhead_percent)
        best = _ed2p_best(cache, name, results)
        table.add(name, "4xA510@ED2P", best.energy.overhead_percent)
        ed2p_energy.append(best.energy.overhead_percent)
        ed2p_slow.append(slowdown_percent(best.result.slowdown))
    n = max(len(benchmarks), 1)
    return Sec7eResult(
        energy=table,
        ed2p_energy_percent=sum(ed2p_energy) / n,
        ed2p_slowdown_percent=sum(ed2p_slow) / n,
    )


# -- Fleet traffic: stall tail vs. coverage loss -------------------------------

#: Offered per-server loads swept by the fleet tail experiment; the top
#: value sits just under the 4xA510@2GHz checker replay rate (0.96 of
#: the main core), where the stall-vs-coverage trade is sharpest.
FLEET_SWEEP_LOADS = (0.5, 0.7, 0.85, 0.92)
FLEET_SWEEP_POLICIES = ("random", "shortest", "jbsq2")


@dataclass
class FleetSweepResult:
    """p99 tail latency and coverage per (policy, mode, load) cell."""

    tail: Table
    coverage: Table


def run_fleet_sweep(policies: tuple[str, ...] = FLEET_SWEEP_POLICIES,
                    loads: tuple[float, ...] = FLEET_SWEEP_LOADS,
                    servers: int = 8, duration_s: float = 2.0,
                    reps: int = 1, jobs: int | None = None,
                    seed: int = DEFAULT_SEED) -> FleetSweepResult:
    """The paper's section-III trade, measured under load.

    Full-coverage mode keeps coverage at 100 % and pays checker-lag
    stalls in the p99 tail as load approaches the checker replay rate;
    opportunistic mode keeps the tail clean and pays in coverage (hence
    fleet-year SDC exposure).  Rows are offered loads, columns are
    (policy, mode) cells.
    """
    from repro.fleet import FleetTrafficConfig, matrix, run_cell, summarize
    from repro.harness.runner import env_jobs

    jobs = env_jobs() if jobs is None else jobs
    base = FleetTrafficConfig(servers=servers, duration_s=duration_s,
                              seed=seed)
    tail = Table(title="Fleet traffic — p99 latency (ms) per "
                       "(policy, mode) cell", row_label="load",
                 unit="ms at p99")
    coverage = Table(title="Fleet traffic — checked-work coverage (%)",
                     row_label="load", unit="% of main-core work checked")
    for config in matrix(list(policies), ["full", "opportunistic"],
                         list(loads), base):
        metrics = summarize(run_cell(config, reps=reps, jobs=jobs))
        row = f"{config.load:g}"
        column = f"{config.policy}/{config.mode[:4]}"
        tail.add(row, column, metrics.p99_ms)
        coverage.add(row, column, metrics.coverage * 100)
    return FleetSweepResult(tail=tail, coverage=coverage)


# -- Section VII-F: compute opportunity cost -----------------------------------

@dataclass
class OpportunityRow:
    """Speedup from using little cores for compute vs. for checking."""

    workload: str
    hetero_speedup: float       # 1 big + k little running the workload
    homo_speedup: float         # 2 big cores
    checking_overhead_percent: float  # same littles used for checking


def run_sec7f(benchmarks: list[str] | None = None,
              little_count: int = 2) -> list[OpportunityRow]:
    """Section VII-F: parallel-compute speedup vs. checking overhead."""
    from repro.harness.opportunity import parallel_speedup

    benchmarks = benchmarks or ["bfs", "pr", "cc"]
    cache = WorkloadCache()
    rows = []
    for name in benchmarks:
        cached = cache.get(name)
        hetero = parallel_speedup(
            cached.program, cached.run, main_x2(),
            [a510(2.0)] * little_count)
        homo = parallel_speedup(
            cached.program, cached.run, main_x2(), [x2(3.0)])
        checking = cache.run_config(
            name, make_config([a510(2.0)] * little_count))
        rows.append(OpportunityRow(
            workload=name,
            hetero_speedup=hetero,
            homo_speedup=homo,
            checking_overhead_percent=slowdown_percent(checking.slowdown),
        ))
    return rows
