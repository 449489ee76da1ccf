"""Workload ``campaign``: three pooled fault-injection campaigns per pass.

Each pass opens a fresh ``CampaignRunner(jobs=2)`` and runs
paraverser/exchange2, paraverser/mcf and dme/gcc at 30k instructions,
150 trials each, with the scheme's default fault kinds.  The benchmark
seed picks each campaign's trial window (``trial_offset``) from the
reference pool, so seeds differ in the faults injected; the campaign
seed, and with it the program, stays at the engine default.  A pass
replays 450 faults, which averages out the cost of any one fault, while
a program seed moves the cost of every trial of its campaign at once.
Every trial record is checked against the reference.  Pool start and each worker's per-spec context
build are inside the timed region, as a campaign user pays them.
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
from metrics import CAMPAIGN_JOBS

INSTRUCTIONS = 30_000
TRIALS = 150
CAMPAIGNS = (("paraverser", "exchange2"), ("paraverser", "mcf"),
             ("dme", "gcc"))
#: Campaign seed (the ``CampaignSpec`` default).
SPEC_SEED = 7
#: Trial windows the reference digests cover: offsets ``w * TRIALS``.
POOL = list(range(8))
IMPORTS = ["repro.faults.engine", "repro.faults.scenarios",
           "repro.core.system"]


def make_spec(scheme: str, workload: str, window: int):
    from repro.faults.engine import CampaignSpec
    from repro.faults.scenarios import default_fault_kinds

    return CampaignSpec(workload=workload, scheme=scheme,
                        instructions=INSTRUCTIONS, trials=TRIALS,
                        trial_offset=window * TRIALS, seed=SPEC_SEED,
                        fault_kinds=default_fault_kinds(scheme))


def trial_digest(record) -> str:
    """Digest of one trial's simulated outcome."""
    return digest([record.trial, record.kind, record.fault, record.detected,
                   record.masked, record.detection_instruction,
                   record.detecting_segment])[:12]


def reference_key(scheme: str, workload: str, window: int) -> str:
    return f"campaign:{scheme}:{workload}:{window}"


class Workload:
    name = "campaign"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = rng_for(self.name, seed)
        self.speed = HostSpeed()
        self.pool_stats: list[dict] = []
        self.used: list[tuple[str, str, int]] = []

    def setup(self) -> float:
        """Import in a fresh interpreter plus a started, answering pool."""
        from concurrent.futures import ProcessPoolExecutor

        seconds = import_seconds(IMPORTS)
        started = time.perf_counter()
        with ProcessPoolExecutor(max_workers=CAMPAIGN_JOBS) as pool:
            list(pool.map(abs, range(CAMPAIGN_JOBS)))
        return seconds + time.perf_counter() - started

    def close(self) -> None:
        pass

    def measure(self, seconds: float, checker, tracer=None) -> dict:
        from repro.faults.engine import CampaignRunner

        by_kind: dict[tuple[str, str], list[float]] = {}
        trials = 0
        busy = 0.0
        passes = 0
        pass_s = 0.0
        started = time.perf_counter()
        # A pass starts if at least half of it fits in the budget.
        while not passes or (time.perf_counter() - started + pass_s / 2
                             <= seconds):
            passes += 1
            windows = draw(self.rng, POOL, len(CAMPAIGNS))
            pass_start = time.perf_counter()
            sampling = 0.0
            pass_trials = 0
            runner = CampaignRunner(jobs=CAMPAIGN_JOBS)
            try:
                for (scheme, workload), window in zip(CAMPAIGNS, windows):
                    # The host's speed drifts within a pass, so it is
                    # sampled before every campaign, off the clock.
                    t0 = time.perf_counter()
                    self.speed.sample(2)
                    sampling += time.perf_counter() - t0
                    t0 = time.perf_counter()
                    try:
                        outcome = runner.run(make_spec(scheme, workload,
                                                       window))
                    except Exception as exc:  # noqa: BLE001 - counted
                        checker.attempt()
                        checker.fail(f"{scheme}/{workload}/{window}: {exc!r}")
                        continue
                    by_kind.setdefault((scheme, workload), []).append(
                        time.perf_counter() - t0)
                    self.pool_stats.append(dict(runner.last_stats))
                    self.used.append((scheme, workload, window))
                    pass_trials += self._check(checker, scheme, workload,
                                               window, outcome.records)
            finally:
                runner.close()
            pass_s = time.perf_counter() - pass_start - sampling
            busy += pass_s
            trials += pass_trials
        if not by_kind:
            return {}
        # Per-campaign medians, as in the run workload: each campaign
        # weighs once, and one slow pass moves a median of two walls
        # less than it moves a percentile of all of them.
        typical = [median(v) for v in by_kind.values()]
        return {
            "throughput_per_s": trials / busy,
            "latency_p50_ms": median(typical) * 1e3,
            "latency_p90_ms": quantile(typical, 0.9) * 1e3,
        }

    @staticmethod
    def _check(checker, scheme, workload, window, records) -> int:
        """Check every trial; returns the number that matched."""
        expected = checker.table.get(reference_key(scheme, workload, window))
        if expected is None or len(records) != len(expected):
            checker.attempt()
            checker.fail(f"{scheme}/{workload}/{window}: {len(records)} "
                         f"records, reference has "
                         f"{None if expected is None else len(expected)}")
            return 0
        good = 0
        for record, want in zip(records, expected):
            checker.attempt()
            got = trial_digest(record)
            if got == want:
                good += 1
            else:
                checker.fail(f"{scheme}/{workload}/{window} trial "
                             f"{record.trial}: got {got}, reference {want}")
        return good

    # -- traced run --------------------------------------------------------

    def install(self, tracer) -> None:
        """Wrap trial, replay and checker entry points before the pool
        forks, so every worker inherits the wrappers."""
        import repro.faults.engine as engine
        from repro.core.checker import CheckerCore
        from repro.cpu.timing import TimingModel
        from repro.faults.campaign import FaultCampaign
        from repro.faults.scenarios import DivergentCampaign

        self.pool_stats = []
        self.used = []
        run_trial_in_worker = engine.run_trial_in_worker

        def trial(spec, trial_id, shard_dir=None):
            key = spec.key()
            index = tracer.open("campaign.trial", rid=f"{key}:{trial_id}")
            # After open(): a freshly forked worker starts empty state.
            seen = tracer.state.setdefault("contexts", set())
            tracer.spans[index].attrs["first"] = key not in seen
            seen.add(key)
            try:
                return run_trial_in_worker(spec, trial_id, shard_dir)
            finally:
                tracer.close(index)

        def wrap_replay(cls):
            original = cls.run_trial

            def run_trial(self, fault, covered=None, trial=-1, **kwargs):
                index = tracer.open("campaign.replay", second_pass=False)
                tracer.state["covered"] = (None if covered is None
                                           else set(covered))
                tracer.state["replay"] = index
                try:
                    return original(self, fault, covered, trial, **kwargs)
                finally:
                    tracer.state["covered"] = None
                    tracer.close(index)

            tracer.patch_attr(cls, "run_trial", run_trial)

        def check_segment(span, result, args, kwargs):
            checker_core, segment = args[0], args[1]
            covered = tracer.state.get("covered")
            if covered is not None and segment.index not in covered:
                tracer.spans[tracer.state["replay"]].attrs[
                    "second_pass"] = True
            span.attrs.update(
                faulty=checker_core.fault_surface is not None,
                segment=segment.index,
                instructions=result.instructions_replayed,
                detected=result.detected)

        tracer.patch_attr(engine, "run_trial_in_worker", trial)
        wrap_replay(FaultCampaign)
        wrap_replay(DivergentCampaign)
        tracer.patch_method(CheckerCore, "check_segment", "checker.check",
                            check_segment)
        tracer.patch_method(TimingModel, "simulate", "timing.simulate")

    def uninstall(self) -> None:
        pass

    def layers(self, tracer, checker, seconds: float) -> dict:
        tracer.merge_worker_dumps()
        trials = tracer.named("campaign.trial")
        replays = tracer.named("campaign.replay")
        children: dict[int, float] = {}
        for span in replays:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) \
                    + span.duration
        context_s = sum(
            span.duration - children.get(index, 0.0)
            for index, span in enumerate(tracer.spans)
            if span.name == "campaign.trial" and span.attrs.get("first"))
        faulty = [s for s in tracer.named("checker.check")
                  if s.attrs.get("faulty")]
        complete = [s for s in faulty if not s.attrs.get("detected")]
        replayed: dict[str, set[int]] = {}
        for span in complete:
            trial = tracer.spans[tracer.spans[span.parent].parent]
            replayed.setdefault(trial.rid.split(":")[0], set()).add(
                span.attrs["segment"])
        faulty_s = sum(s.duration for s in complete)
        submissions = sum(-(-st["tasks"] // st["chunk"])
                          for st in self.pool_stats if st["tasks"])
        capacity = sum(st["elapsed_s"] * st["jobs"] for st in self.pool_stats)
        return {
            "campaign.context_s": context_s,
            "campaign.context_builds": float(sum(
                1 for s in trials if s.attrs.get("first"))),
            "campaign.trial_p50_ms": median(
                [s.duration for s in trials]) * 1e3 if trials else 0.0,
            "campaign.trial_busy_s": sum(s.duration for s in trials),
            "checker.faulty_segments": float(len(faulty)),
            "checker.faulty_inst_per_s": sum(
                s.attrs["instructions"] for s in complete) / faulty_s
            if faulty_s else 0.0,
            "checker.healthy_inst_per_s": self._healthy_rate(replayed),
            "campaign.second_pass_ratio": sum(
                1 for s in replays if s.attrs.get("second_pass"))
            / len(replays) if replays else 0.0,
            "pool.tasks": float(submissions),
            "pool.occupancy": sum(st["busy_s"] for st in self.pool_stats)
            / capacity if capacity else 0.0,
        }

    def _healthy_rate(self, replayed: dict[str, set[int]]) -> float:
        """Healthy replay, in this process, of the segments the faulty
        checkers replayed to the end, keyed by campaign spec (run after
        every pool has closed, so no worker inherits this state)."""
        from repro.cli import parse_checkers
        from repro.core.checker import CheckerCore
        from repro.core.system import CheckMode, ParaVerserSystem
        from repro.faults.campaign import checker_fu_counts
        from repro.harness.parallel import worker_cache
        from repro.harness.runner import make_config

        instructions = 0
        busy = 0.0
        for scheme, workload, window in dict.fromkeys(self.used):
            spec = make_spec(scheme, workload, window)
            indices = replayed.get(spec.key(), set())
            if not indices:
                continue
            config = make_config(parse_checkers(spec.checkers),
                                 CheckMode(spec.mode),
                                 hash_mode=spec.hash_mode)
            cached = worker_cache(spec.instructions, spec.seed).get(workload)
            segments = ParaVerserSystem(config).segment(cached.run)
            core = CheckerCore(cached.program,
                               fu_counts=checker_fu_counts(
                                   config.checkers[0].config),
                               hash_mode=spec.hash_mode)
            for segment in segments:
                if segment.index not in indices:
                    continue
                t0 = time.perf_counter()
                result = core.check_segment(segment)
                busy += time.perf_counter() - t0
                instructions += result.instructions_replayed
        return instructions / busy if busy else 0.0
