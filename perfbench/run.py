"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload {run,campaign,eval,fleet} \\
        --seed N --seconds S --trace {0,1}

Set-up runs ``SETUPS`` times and ``setup_s`` is the median.  With
``--trace 0`` the workload is measured for ``--seconds`` with no
wrappers installed and the end-to-end metrics are reported, in
reference-host units: times divided, rates multiplied by the host speed
factor measured in the same run (see ``common.HostSpeed``; the raw
values are printed on the ``fingerprint`` line).  With
``--trace 1`` half the time is measured untraced, half with spans and
counts recorded around the program's layers, and the per-layer metrics
are reported, including the traced/untraced ratio of each measured
end-to-end metric.  ``peak_rss_mb`` is the peak summed resident memory
of this process and its live descendants while the workload is measured
(see ``common.PeakRss``).  Every simulated output is checked against
``reference.json``; any mismatch, exception, error or shed response or
missed deadline is a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report, the host fingerprint and the per-layer
self times.  Spans are written to ``.perfbench/spans-<workload>-<seed>
.json`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402 - after the path fix-up
    SRC,
    WORK,
    BenchError,
    Checker,
    PeakRss,
    check_parallelism,
    fingerprint,
    load_reference,
    median,
    scrub_program_env,
)
import metrics  # noqa: E402

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: Workload-specific names of the end-to-end metrics, printed as aliases.
ALIASES = {
    "run": {"throughput_per_s": "sim_inst_per_s"},
    "campaign": {"throughput_per_s": "trials_per_s"},
    "eval": {"latency_p50_ms": "eval_p50_ms",
             "latency_p90_ms": "eval_p90_ms"},
    "fleet": {"throughput_per_s": "fleet_req_per_s"},
}
#: Measured-loop metrics: +1 where the value is a time, -1 where it is a
#: rate.
COSTS = {"throughput_per_s": -1, "latency_p50_ms": 1, "latency_p90_ms": 1}


def load_workload(name: str, seed: int):
    import importlib

    return importlib.import_module(f"wl_{name}").Workload(seed)


def in_reference_units(raw: dict, factor: float) -> dict:
    """Raw times divided by the host's speed factor (see HostSpeed)."""
    out = dict(raw)
    for name, sign in COSTS.items():
        if name in out:
            out[name] = out[name] * factor ** -sign
    out["setup_s"] = raw["setup_s"] / factor
    return out


def overhead_ratios(untraced: dict, traced: dict) -> dict:
    """Traced cost / untraced cost per measured end-to-end metric."""
    out = {}
    for name, sign in COSTS.items():
        a, b = untraced.get(name), traced.get(name)
        if not a or not b:
            out[f"trace.overhead_ratio.{name}"] = 0.0
        else:
            out[f"trace.overhead_ratio.{name}"] = (b / a) ** sign
    return out


def report(workload: str, values: dict, checker: Checker,
           host: dict) -> None:
    """Human-readable lines before the JSON result."""
    aliases = ALIASES.get(workload, {})
    print(f"workload {workload}: {checker.attempted} operations, "
          f"{checker.failed} failed")
    rate = checker.failed / checker.attempted if checker.attempted else 0.0
    print(f"  {'error_rate':<40} {rate:>14.6g} ratio")
    for name, value in values.items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        print(f"  {name + alias:<40} {value:>14.6g} "
              f"{metrics.UNITS.get(name, '')}")
    for why in checker.mismatches:
        print(f"  FAILED {why}")
    print("fingerprint " + json.dumps(host, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[n for n, _ in metrics.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A shell starts background jobs with SIGINT ignored, and children
    # inherit that; the eval router stops its shards on SIGINT, so give
    # this process (and through exec, every child) the default again.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    scrubbed = scrub_program_env()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC) + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else "")
    host = fingerprint(scrubbed)
    try:
        check_parallelism(
            campaign_jobs=metrics.CAMPAIGN_JOBS,
            eval_worker_processes=metrics.EVAL_SHARDS
            * metrics.EVAL_WORKERS_PER_SHARD,
            eval_connections=metrics.EVAL_CONNECTIONS,
            fleet_jobs=metrics.FLEET_JOBS)
        checker = Checker(load_reference())
        workload = load_workload(args.workload, args.seed)
        try:
            setups = []
            for _ in range(SETUPS):
                workload.speed.sample(3)
                setups.append(workload.setup())
            if args.trace:
                values = traced_run(workload, args, checker)
            else:
                with PeakRss() as rss:
                    raw = workload.measure(args.seconds, checker)
                raw["setup_s"] = median(setups)
                raw["peak_rss_mb"] = rss.peak_mb
                host["speed_factor"] = workload.speed.factor()
                host["raw"] = raw
                values = in_reference_units(raw, host["speed_factor"])
        finally:
            workload.close()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not args.trace:
        wanted = [name for name, *_ in metrics.END_TO_END]
    else:
        wanted = [name for name, *_ in metrics.PER_LAYER]
    missing = [name for name in wanted if name not in values]
    if missing:
        print(f"perfbench: no measurement for {missing}", file=sys.stderr)
        return 2
    report(args.workload, values, checker, host)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name],
                           "unit": metrics.UNITS[name]}
                    for name in wanted},
    }))
    return 0


def traced_run(workload, args, checker) -> dict:
    """Half untraced, half traced; per-layer metrics from the spans."""
    from tracing import Tracer

    half = args.seconds / 2
    untraced = workload.measure(half, checker)
    tracer = Tracer(WORK / f"worker-spans-{os.getpid()}")
    workload.install(tracer)
    try:
        traced = workload.measure(half, checker, tracer)
    finally:
        tracer.restore()
        workload.uninstall()
    values = {name: 0.0 for name, *_ in metrics.PER_LAYER}
    values.update(workload.layers(tracer, checker, half))
    values.update(overhead_ratios(untraced, traced))
    tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.json")
    for name, seconds in sorted(tracer.self_times().items()):
        print(f"self {name:<36} {seconds:>10.4f} s")
    return values


if __name__ == "__main__":
    sys.exit(main())
