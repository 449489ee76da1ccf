"""The benchmark's metric catalogue: one table, one source of truth.

``BENCHMARK.json`` at the repository root is generated from these
tables (``python3 perfbench/metrics.py``) and ``perfbench/tests`` checks
that the two agree.  Each per-layer metric names the end-to-end metric
it is expected to move and the workload it moves it on; ``-`` means the
metric is a harness check rather than a layer.

End-to-end metrics are reported on every workload, each in the unit of
work that workload measures, and in reference-host units (see
``common.HostSpeed``):

========  =====================  =======================================
workload  throughput_per_s       latency_p50_ms / latency_p90_ms
========  =====================  =======================================
run       simulated main-core    one cold ``ParaVerserSystem.run`` of
          instructions / host s  50k instructions (build included)
campaign  fault trials / host s  one 150-trial campaign, pool start and
          (context builds in)    context builds included
eval      requests completed /   one ``eval`` request, send to reply,
          host s                 from four closed-loop callers
fleet     simulated requests /   one ``run_cell`` fleet cell
          host s
========  =====================  =======================================
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = [
    ("run", "cold checked runs: timing dominates, functional follows, "
            "no inputs share work, so caching changes must not move it"),
    ("campaign", "three pooled fault campaigns: faulty checker replay "
                 "dominates, plus one context build per worker per spec"),
    ("eval", "four closed-loop callers through the shard router: trace "
             "cache, batching, dedup, router hop and serve IPC at work"),
    ("fleet", "in-process fleet cells, one with a threshold controller: "
              "repro.fleet and repro.control only, never the CPU model"),
]

#: (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("throughput_per_s", "1/s", "higher", 0.24),
    ("latency_p50_ms", "ms", "lower", 0.24),
    ("latency_p90_ms", "ms", "lower", 0.24),
]

#: (name, unit, better, end-to-end metric it moves, workload)
PER_LAYER = [
    # run
    ("workloads.build_s", "s", "lower", "throughput_per_s", "run"),
    ("functional.busy_s", "s", "lower", "throughput_per_s", "run"),
    ("functional.inst_per_s", "1/s", "higher", "throughput_per_s", "run"),
    ("segment.busy_s", "s", "lower", "throughput_per_s", "run"),
    ("timing.baseline_s", "s", "lower", "throughput_per_s", "run"),
    ("timing.main_s", "s", "lower", "throughput_per_s", "run"),
    ("timing.checker_s", "s", "lower", "throughput_per_s", "run"),
    ("timing.sim_calls", "count", "lower", "throughput_per_s", "run"),
    ("timing.inst_per_s", "1/s", "higher", "throughput_per_s", "run"),
    ("stage.build_s", "s", "lower", "throughput_per_s", "run"),
    ("stage.trace_s", "s", "lower", "throughput_per_s", "run"),
    ("stage.timing_s", "s", "lower", "throughput_per_s", "run"),
    ("noc.busy_s", "s", "lower", "throughput_per_s", "run"),
    ("schedule.busy_s", "s", "lower", "throughput_per_s", "run"),
    ("check.busy_s", "s", "lower", "throughput_per_s", "run"),
    ("report.busy_s", "s", "lower", "throughput_per_s", "run"),
    ("executor.overhead_s", "s", "lower", "throughput_per_s", "run"),
    ("run.wall_s", "s", "lower", "throughput_per_s", "run"),
    # campaign
    ("campaign.context_s", "s", "lower", "throughput_per_s", "campaign"),
    ("campaign.context_builds", "count", "lower", "throughput_per_s",
     "campaign"),
    ("campaign.trial_p50_ms", "ms", "lower", "throughput_per_s",
     "campaign"),
    ("campaign.trial_busy_s", "s", "lower", "throughput_per_s", "campaign"),
    ("checker.faulty_segments", "count", "lower", "throughput_per_s",
     "campaign"),
    ("checker.faulty_inst_per_s", "1/s", "higher", "throughput_per_s",
     "campaign"),
    ("checker.healthy_inst_per_s", "1/s", "higher", "throughput_per_s",
     "campaign"),
    ("campaign.second_pass_ratio", "ratio", "lower", "throughput_per_s",
     "campaign"),
    ("pool.tasks", "count", "lower", "throughput_per_s", "campaign"),
    ("pool.occupancy", "ratio", "higher", "throughput_per_s", "campaign"),
    # eval
    ("serve.compute_p50_ms", "ms", "lower", "latency_p50_ms", "eval"),
    ("serve.overhead_p50_ms", "ms", "lower", "latency_p50_ms", "eval"),
    ("router.hop_p50_ms", "ms", "lower", "latency_p50_ms", "eval"),
    ("router.campaign_p50_ms", "ms", "lower", "latency_p90_ms", "eval"),
    ("serve.campaign_p50_ms", "ms", "lower", "latency_p90_ms", "eval"),
    ("serve.trace_source.computed", "count", "lower", "latency_p90_ms",
     "eval"),
    ("serve.trace_source.disk", "count", "higher", "latency_p90_ms", "eval"),
    ("serve.trace_source.memory", "count", "higher", "latency_p90_ms",
     "eval"),
    ("serve.dedup_ratio", "ratio", "higher", "latency_p90_ms", "eval"),
    ("serve.batch_size_mean", "requests", "higher", "latency_p90_ms",
     "eval"),
    ("serve.shed", "count", "lower", "throughput_per_s", "eval"),
    ("traceio.pack_ms", "ms", "lower", "latency_p90_ms", "eval"),
    ("traceio.unpack_ms", "ms", "lower", "latency_p90_ms", "eval"),
    ("traceio.payload_kb", "KiB", "lower", "latency_p90_ms", "eval"),
    ("tracecache.load_ms", "ms", "lower", "latency_p90_ms", "eval"),
    ("tracecache.store_ms", "ms", "lower", "latency_p90_ms", "eval"),
    # fleet
    ("fleet.static_s", "s", "lower", "throughput_per_s", "fleet"),
    ("fleet.controlled_s", "s", "lower", "throughput_per_s", "fleet"),
    ("fleet.events", "count", "higher", "throughput_per_s", "fleet"),
    ("control.overhead_ratio", "ratio", "lower", "throughput_per_s",
     "fleet"),
    # harness: how much the traced run perturbs what it measures
    ("trace.overhead_ratio.throughput_per_s", "ratio", "lower", "-", "-"),
    ("trace.overhead_ratio.latency_p50_ms", "ratio", "lower", "-", "-"),
    ("trace.overhead_ratio.latency_p90_ms", "ratio", "lower", "-", "-"),
    ("loadgen.lag_p90_ms", "ms", "lower", "-", "eval"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: Settings every run checks against ``nproc`` (see common.check_parallelism).
CAMPAIGN_JOBS = 2
EVAL_SHARDS = 2
EVAL_WORKERS_PER_SHARD = 1
EVAL_CONNECTIONS = 2
FLEET_JOBS = 1


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these tables define."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 25,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b, _moves, _on in PER_LAYER
        ],
    }


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {target}")
