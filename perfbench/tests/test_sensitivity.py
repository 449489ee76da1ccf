"""Sensitivity self-test: injected slowdowns show where they should.

A ``sitecustomize`` hook, written by this test into a temporary
directory and put first on ``PYTHONPATH``, slows one program method in
the benchmark process and in every process it starts (router, shards,
pool workers): each call busy-waits for 20% of its own duration.
Neither the benchmark nor the program is edited.

Each case runs ``PAIRS`` baseline/delayed pairs of one workload,
alternating which side goes first, with the same seed on both sides.  A
metric is *flagged* when the delayed side is worse in every pair and its
median is worse than the baseline median by more than the distance
between the baseline's quartiles.  That is the shape of the rule for
claiming a gain (at least nine pairs in ten, medians apart by more than
the spread), applied to a regression, but deliberately weaker: three
pairs rather than ten, to keep the module's run time down, so it suits
only delays well beyond the run-to-run spread.  A
metric shows *no change* when the delayed median is within the metric's
bound of the baseline median.

Eval is not tested for the timing delay.  ``TimingModel.simulate`` is
only about a fifth of an eval request's compute (the cache warm-up
before it dominates), so a 20% delay in it moves eval p50 by 1-10% per
pair, about eval's run-to-run spread: one set of three pairs did not
flag it (baseline 378/402/351 ms, delayed 389/443/356 ms), the next
did.  A test that passes either way checks nothing.

The whole module takes about eleven minutes on a 2-CPU host; run it with
``python3 -m pytest perfbench/tests/test_sensitivity.py``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import textwrap

import pytest

import common
import metrics

PAIRS = 3
DELAY = 0.2
HOOK = textwrap.dedent("""\
    import functools
    import time

    from {module} import {cls}

    def _slowed(fn):
        @functools.wraps(fn)
        def slowed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - started
                until = time.perf_counter() + {delay} * spent
                while time.perf_counter() < until:
                    pass
        return slowed

    {cls}.{method} = _slowed({cls}.{method})
    """)
TARGETS = {
    "timing": ("repro.cpu.timing", "TimingModel", "simulate"),
    "checker": ("repro.core.checker", "CheckerCore", "check_segment"),
}
#: Seconds per run: the benchmark's own, since shorter runs were too
#: noisy on a busy host for a 20% delay to show in every pair.
SECONDS = json.loads((common.ROOT / "BENCHMARK.json").read_text())[
    "run_seconds"]
BOUNDS = {name: bound for name, _u, _b, bound in metrics.END_TO_END}
BETTER = {name: better for name, _u, better, _b in metrics.END_TO_END}


def bench(workload: str, seed: int, hook_dir: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    path = [str(common.SRC)]
    if hook_dir is not None:
        path.insert(0, hook_dir)
    env["PYTHONPATH"] = os.pathsep.join(path)
    proc = subprocess.run(
        [sys.executable, str(common.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=common.ROOT, env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout[-2000:]
    return {name: m["value"] for name, m in result["metrics"].items()}


def cost(name: str, value: float) -> float:
    """Bigger is worse, whatever the metric's direction."""
    return -value if BETTER[name] == "higher" else value


@pytest.fixture(scope="module")
def hooks(tmp_path_factory):
    dirs = {}
    for target, (module, cls, method) in TARGETS.items():
        directory = tmp_path_factory.mktemp(f"delay-{target}")
        (directory / "sitecustomize.py").write_text(HOOK.format(
            module=module, cls=cls, method=method, delay=DELAY))
        dirs[target] = str(directory)
    return dirs


def pairs(workload: str, hook_dir: str) -> tuple[list[dict], list[dict]]:
    base, slow = [], []
    for index in range(PAIRS):
        seed = 101 + index
        if index % 2:
            slow.append(bench(workload, seed, hook_dir))
            base.append(bench(workload, seed, None))
        else:
            base.append(bench(workload, seed, None))
            slow.append(bench(workload, seed, hook_dir))
    return base, slow


def flagged(name: str, base: list[dict], slow: list[dict]) -> bool:
    worse_everywhere = all(cost(name, s[name]) > cost(name, b[name])
                           for b, s in zip(base, slow))
    b = [cost(name, r[name]) for r in base]
    s = [cost(name, r[name]) for r in slow]
    q1, _, q3 = statistics.quantiles(b, n=4)
    return worse_everywhere and statistics.median(s) \
        - statistics.median(b) > q3 - q1


def unchanged(name: str, base: list[dict], slow: list[dict]) -> bool:
    b = statistics.median(r[name] for r in base)
    s = statistics.median(r[name] for r in slow)
    return abs(s - b) <= BOUNDS[name] * abs(b)


def describe(name, base, slow) -> str:
    return (f"{name}: baseline {[round(r[name], 2) for r in base]} "
            f"delayed {[round(r[name], 2) for r in slow]}")


def test_timing_delay_shows_on_run(hooks):
    base, slow = pairs("run", hooks["timing"])
    assert flagged("throughput_per_s", base, slow), \
        describe("throughput_per_s", base, slow)


def test_timing_delay_does_not_show_on_fleet(hooks):
    base, slow = pairs("fleet", hooks["timing"])
    for name in ("throughput_per_s", "latency_p50_ms"):
        assert unchanged(name, base, slow), describe(name, base, slow)


def test_checker_delay_shows_on_campaign(hooks):
    base, slow = pairs("campaign", hooks["checker"])
    assert flagged("throughput_per_s", base, slow), \
        describe("throughput_per_s", base, slow)


def test_checker_delay_does_not_show_on_run(hooks):
    base, slow = pairs("run", hooks["checker"])
    assert unchanged("throughput_per_s", base, slow), \
        describe("throughput_per_s", base, slow)
