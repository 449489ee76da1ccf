"""Parallel fault-injection campaign engine (Fig. 8 at scale).

Campaigns are the one evaluation path where the paper's experiment is
embarrassingly parallel *within* a single workload: every trial replays
the same segments under an independent fault.  The
:class:`CampaignRunner` fans trials out over the sweep engine's process
pool (:mod:`repro.harness.parallel`), one picklable ``(spec, trial)``
task each, and merges results as they land.

Determinism does not depend on scheduling.  Trial ``t``'s fault is a
pure function of ``(spec.seed, t)`` via
:func:`~repro.faults.models.derive_trial_seed`, so any worker count,
completion order, or resume split reproduces the serial campaign
bit-for-bit.

Every completed trial is appended to a per-process JSONL shard
(``shard-<pid>.jsonl`` under the campaign directory) and flushed, so a
killed campaign resumes where it stopped: ``resume=True`` scans the
shards, skips records from other specs (each line carries the spec
key) and corrupt/partial lines, and only schedules the missing trial
ids.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

from repro.core.system import CheckMode
from repro.cpu.presets import parse_checkers
from repro.faults.campaign import covered_segments, segment_footprints
from repro.faults.models import ALL_FAULT_KINDS, fault_for_trial
from repro.faults.scenarios import (
    CAMPAIGN_SCHEMES,
    SCHEME_PARAVERSER,
    default_fault_kinds,
    make_campaign,
)
from repro.workloads.profiles import ALL_PROFILES

logger = logging.getLogger("repro.faults.engine")

#: Shard filename pattern; one per writing process.
SHARD_GLOB = "shard-*.jsonl"

_MODES = tuple(mode.value for mode in CheckMode)


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a worker needs to run one trial, picklable/JSON-able.

    The one campaign type: the CLI, the serve/router wire
    (:class:`~repro.serve.protocol.CampaignRequest` extends it) and the
    pool payloads all build it, and construction validates every field,
    so a bad spec fails with a one-line :class:`ValueError` before any
    trace or context is built.
    """

    workload: str
    checkers: str = "1xA510@1.0"
    mode: str = "opportunistic"
    hash_mode: bool = False
    instructions: int = 40_000
    seed: int = 7
    trials: int = 20
    #: First trial id of this campaign's window: trials run over
    #: ``[trial_offset, trial_offset + trials)``.  Offset windows let
    #: the shard router fan one campaign out across backends while
    #: every trial stays the same pure function of ``(seed, trial)``.
    trial_offset: int = 0
    #: Fault-site mix; ``None`` resolves to the scheme's
    #: :func:`~repro.faults.scenarios.default_fault_kinds`.
    fault_kinds: tuple[str, ...] | None = None
    #: Detection scheme the trials run under (see
    #: :mod:`repro.faults.scenarios`): ``paraverser`` (the paper's
    #: checker), ``dme`` divergent multi-version, ``ithica-sdc`` defect
    #: screen, or ``meek-ro`` reduced observability.
    scheme: str = SCHEME_PARAVERSER

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str) \
                or self.workload not in ALL_PROFILES:
            raise ValueError(f"unknown workload {self.workload!r}; "
                             "see `paraverser workloads`")
        if not isinstance(self.checkers, str):
            raise ValueError(f"bad checkers {self.checkers!r}: "
                             "expected a spec such as 1xA510@1.0")
        try:
            parse_checkers(self.checkers)
        except ValueError as exc:
            raise ValueError(f"bad checkers {self.checkers!r}: {exc}") \
                from None
        if self.mode not in _MODES:
            raise ValueError(f"unknown check mode {self.mode!r}; "
                             f"pick from {', '.join(_MODES)}")
        if self.scheme not in CAMPAIGN_SCHEMES:
            raise ValueError(f"unknown campaign scheme {self.scheme!r}; "
                             f"pick from {', '.join(CAMPAIGN_SCHEMES)}")
        kinds = self.fault_kinds
        if kinds is None:
            kinds = default_fault_kinds(self.scheme)
        elif isinstance(kinds, (list, tuple)):
            kinds = tuple(kinds)
        if not isinstance(kinds, tuple) or not kinds \
                or any(k not in ALL_FAULT_KINDS for k in kinds):
            raise ValueError(f"bad fault kinds {self.fault_kinds!r}; "
                             f"pick from {', '.join(ALL_FAULT_KINDS)}")
        object.__setattr__(self, "fault_kinds", kinds)
        if not isinstance(self.hash_mode, bool):
            raise ValueError(
                f"hash_mode must be a bool, got {self.hash_mode!r}")
        for name, minimum in (("instructions", 1), ("trials", 1),
                              ("trial_offset", 0), ("seed", None)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or (minimum is not None and value < minimum):
                bound = "" if minimum is None else f" >= {minimum}"
                raise ValueError(
                    f"{name} must be an integer{bound}, got {value!r}")

    def key(self) -> str:
        """Stable identity of the campaign's *trial-defining* fields.

        Shard records carry this so a resume never mixes results from a
        differently-parameterised campaign that shared the directory.
        ``trials`` and ``trial_offset`` are excluded: trial ids are
        global, so growing a campaign from 100 to 500 trials (or
        finishing someone else's window) must reuse recorded results.
        """
        ident = {k: v for k, v in self.to_json().items()
                 if k not in ("trials", "trial_offset")}
        blob = json.dumps(ident, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def to_json(self) -> dict:
        """The spec's own fields (a subclass's extras are not spec)."""
        return {f.name: getattr(self, f.name)
                for f in fields(CampaignSpec)}

    @classmethod
    def from_json(cls, payload: dict) -> "CampaignSpec":
        return cls(**payload)


@dataclass(frozen=True)
class TrialRecord:
    """JSON-able outcome of one trial (what the shards store)."""

    trial: int
    kind: str
    fault: str  # human-readable site description
    detected: bool
    masked: bool
    detection_instruction: int = -1
    detecting_segment: int = -1

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "TrialRecord":
        return cls(
            trial=int(payload["trial"]),
            kind=str(payload["kind"]),
            fault=str(payload["fault"]),
            detected=bool(payload["detected"]),
            masked=bool(payload["masked"]),
            detection_instruction=int(
                payload.get("detection_instruction", -1)),
            detecting_segment=int(payload.get("detecting_segment", -1)),
        )


@dataclass
class CampaignOutcome:
    """Aggregate of one (possibly resumed, possibly parallel) campaign."""

    spec: CampaignSpec
    records: list[TrialRecord] = field(default_factory=list)
    elapsed_s: float = 0.0
    busy_s: float = 0.0
    jobs: int = 1
    resumed_trials: int = 0

    @property
    def injected(self) -> int:
        return len(self.records)

    @property
    def detected(self) -> int:
        return sum(1 for r in self.records if r.detected)

    @property
    def masked(self) -> int:
        return sum(1 for r in self.records if r.masked)

    @property
    def missed(self) -> int:
        """Effective faults the configured coverage never observed."""
        return sum(1 for r in self.records
                   if not r.detected and not r.masked)

    @property
    def detection_rate_all(self) -> float:
        if not self.injected:
            logger.warning(
                "campaign %s/%s: 0 trials injected; "
                "detection_rate_all reported as 0.0",
                self.spec.workload, self.spec.scheme)
            return 0.0
        return self.detected / self.injected

    @property
    def detection_rate_effective(self) -> float:
        effective = self.injected - self.masked
        if not effective:
            # Zero-denominator campaign: 0 trials, or every fault
            # masked (tiny smoke campaigns, --resume from an empty
            # shard dir).  Report 0.0 rather than dividing.
            logger.warning(
                "campaign %s/%s: no effective faults "
                "(injected=%d, masked=%d); "
                "detection_rate_effective reported as 0.0",
                self.spec.workload, self.spec.scheme,
                self.injected, self.masked)
            return 0.0
        return self.detected / effective

    @property
    def sdc_escape_rate(self) -> float:
        """Effective-but-undetected faults per injection (silent SDCs)."""
        return self.missed / self.injected if self.injected else 0.0

    @property
    def detection_latency_sum(self) -> int:
        """Exact integer sum of detection latencies (detected trials).

        Shipped in :meth:`to_row` so a router merging offset windows
        can recompute the mean with one division — bit-identical to an
        unsplit campaign, which floating-point partial means are not.
        """
        return sum(r.detection_instruction for r in self.records
                   if r.detected)

    @property
    def mean_detection_latency(self) -> float:
        if not self.detected:
            return float("nan")
        return self.detection_latency_sum / self.detected

    @property
    def max_detection_latency(self) -> int:
        """Worst-case detection latency in main-core instructions."""
        return max((r.detection_instruction for r in self.records
                    if r.detected), default=0)

    def by_kind(self) -> dict[str, dict[str, int]]:
        """Per fault-kind injected/detected/masked counts."""
        out: dict[str, dict[str, int]] = {}
        for record in self.records:
            bucket = out.setdefault(
                record.kind, {"injected": 0, "detected": 0, "masked": 0})
            bucket["injected"] += 1
            bucket["detected"] += record.detected
            bucket["masked"] += record.masked
        return out

    def to_row(self) -> dict:
        """Headline numbers as a JSON-able dict (CLI/serve payload)."""
        return {
            "workload": self.spec.workload,
            "checkers": self.spec.checkers,
            "mode": self.spec.mode,
            "scheme": self.spec.scheme,
            "trials": self.injected,
            "detected": self.detected,
            "masked": self.masked,
            "missed": self.missed,
            "detection_rate_all": self.detection_rate_all,
            "detection_rate_effective": self.detection_rate_effective,
            "sdc_escape_rate": self.sdc_escape_rate,
            "detection_latency_sum": self.detection_latency_sum,
            "detection_latency_max": self.max_detection_latency,
            "mean_detection_latency": (
                self.mean_detection_latency if self.detected else None),
            "by_kind": self.by_kind(),
            "elapsed_s": self.elapsed_s,
            "jobs": self.jobs,
            "resumed_trials": self.resumed_trials,
        }


# -- worker side (runs in pool processes, and inline for jobs=1) -------------

#: Per-process campaign contexts, keyed by spec key.  Bounded like the
#: sweep worker caches: a long-lived pool cycling through campaigns must
#: not pin every program/segment list forever.
_CONTEXTS: dict = {}
_CONTEXT_LIMIT = 4


@dataclass
class CampaignContext:
    """The heavy state shared by all of one campaign's trials."""

    campaign: object  # the scheme's trial runner, e.g. FaultCampaign
    covered: list[int]
    segments: int
    #: Instruction coverage of the configuration's checked run.
    coverage: float


def build_campaign_context(cache, workload: str, config,
                           scheme: str = SCHEME_PARAVERSER,
                           seed: int = 0) -> CampaignContext:
    """The campaign context build behind every campaign entry point.

    Runs ``config`` over ``cache``'s functional trace of ``workload``
    (a :class:`~repro.harness.runner.WorkloadCache`), takes the segments
    that run cut the trace into, and builds ``scheme``'s trial runner
    against the first checker's core with the config's ``hash_mode``,
    and with the segments' FU footprints so trials skip the segments a
    fault cannot reach.  ``seed`` keys the DME decorrelation masks.
    """
    cached = cache.get(workload)
    artifacts = cache.run_stages(workload, config)
    result, segments = artifacts["result"], artifacts["segments"]
    footprints = segment_footprints(cached.program, cached.run.columns.pcs,
                                    segments)
    campaign = make_campaign(scheme, cached.program, segments,
                             config.checkers[0].config,
                             hash_mode=config.hash_mode, seed=seed,
                             footprints=footprints)
    return CampaignContext(campaign=campaign,
                           covered=covered_segments(result),
                           segments=len(segments),
                           coverage=result.coverage)


def campaign_context(spec: CampaignSpec) -> CampaignContext:
    """Build-or-fetch this process's context for ``spec``.

    Reuses the sweep engine's process-global
    :func:`~repro.harness.parallel.worker_cache`, so the functional
    trace (and, with ``REPRO_TRACE_CACHE``, its on-disk copy) is shared
    with sweep and serve workloads running in the same pool.
    """
    key = spec.key()
    ctx = _CONTEXTS.get(key)
    if ctx is not None:
        return ctx

    from repro.harness.parallel import worker_cache
    from repro.harness.runner import make_config

    config = make_config(parse_checkers(spec.checkers),
                         CheckMode(spec.mode), hash_mode=spec.hash_mode)
    ctx = build_campaign_context(worker_cache(spec.instructions, spec.seed),
                                 spec.workload, config,
                                 scheme=spec.scheme, seed=spec.seed)
    _CONTEXTS[key] = ctx
    while len(_CONTEXTS) > _CONTEXT_LIMIT:
        _CONTEXTS.pop(next(iter(_CONTEXTS)))
    return ctx


def run_trial_in_worker(spec: CampaignSpec, trial: int,
                        shard_dir: str | None = None) -> dict:
    """Run one trial; append its record to this process's shard.

    Returns the :class:`TrialRecord` JSON dict.  Pure function of
    ``(spec, trial)`` — the executing process is irrelevant.
    """
    ctx = campaign_context(spec)
    kind, fault = fault_for_trial(
        spec.seed, trial, ctx.campaign.fu_counts,
        kinds=spec.fault_kinds, segments=ctx.segments)
    result = ctx.campaign.run_trial(fault, ctx.covered,
                                    trial=trial, kind=kind)
    record = TrialRecord(
        trial=trial,
        kind=kind,
        fault=fault.describe(),
        detected=result.detected,
        masked=result.masked,
        detection_instruction=result.detection_instruction,
        detecting_segment=result.detecting_segment,
    )
    if shard_dir is not None:
        _append_shard(Path(shard_dir), spec.key(), record)
    return record.to_json()


def _append_shard(shard_dir: Path, spec_key: str,
                  record: TrialRecord) -> None:
    """Append-and-flush one record to this process's shard file."""
    shard_dir.mkdir(parents=True, exist_ok=True)
    path = shard_dir / f"shard-{os.getpid()}.jsonl"
    line = json.dumps({"spec": spec_key, **record.to_json()},
                      sort_keys=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def load_completed(shard_dir: str | os.PathLike,
                   spec: CampaignSpec) -> dict[int, TrialRecord]:
    """Completed trial records for ``spec`` found in the shard files.

    Tolerates the realities of killed campaigns: partial trailing
    lines, corrupt JSON, records from other specs that shared the
    directory — all skipped (with a warning for undecodable lines).
    Duplicate ``(spec_key, trial)`` records — a crash between write and
    fsync can replay a line, and a killed worker's trial may be re-run
    into another shard — are deduplicated (first record wins; every
    record is the same pure function of the trial id anyway) so a
    resumed campaign never double-counts a trial.
    """
    shard_dir = Path(shard_dir)
    spec_key = spec.key()
    completed: dict[int, TrialRecord] = {}
    duplicates = 0
    for path in sorted(shard_dir.glob(SHARD_GLOB)):
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            logger.warning("campaign resume: unreadable shard %s (%s)",
                           path, exc)
            continue
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if payload.get("spec") != spec_key:
                    continue
                record = TrialRecord.from_json(payload)
            except (ValueError, KeyError, TypeError):
                logger.warning(
                    "campaign resume: skipping corrupt record "
                    "%s:%d", path, lineno)
                continue
            if record.trial in completed:
                duplicates += 1
                continue
            completed[record.trial] = record
    if duplicates:
        logger.warning(
            "campaign resume: ignored %d duplicate trial record(s) "
            "for spec %s", duplicates, spec_key)
    return completed


# -- runner side -------------------------------------------------------------

class CampaignRunner:
    """Fans campaign trials across worker processes, merging by trial id.

    ``jobs=1`` (the default via ``REPRO_JOBS``) runs everything
    in-process through the exact same per-trial entry point, so serial
    and parallel campaigns are the same computation scheduled
    differently.
    """

    #: Target tasks per worker when auto-sizing chunks: enough slack
    #: for load balancing across uneven trial durations, few enough
    #: submissions that dispatch overhead stays amortised.
    TASKS_PER_WORKER = 4

    def __init__(self, jobs: int | None = None,
                 campaign_dir: str | os.PathLike | None = None,
                 resume: bool = False,
                 chunk: int | None = None) -> None:
        if jobs is None:
            from repro.harness.runner import env_jobs
            jobs = env_jobs()
        self.jobs = jobs
        self.campaign_dir = str(campaign_dir) if campaign_dir else None
        self.resume = resume
        #: Trials per pool task; ``None`` auto-sizes from the workload.
        self.chunk = chunk
        #: Occupancy/wall-time record of the most recent :meth:`run`.
        self.last_stats: dict | None = None
        self._pool = None

    def _chunk_size(self, todo: int) -> int:
        """Trials per pool task (explicit ``chunk``, else auto)."""
        if self.chunk is not None:
            return max(1, self.chunk)
        return max(1, todo // (self.jobs * self.TASKS_PER_WORKER))

    def run(self, spec: CampaignSpec,
            on_record: Callable[[TrialRecord], None] | None = None,
            ) -> CampaignOutcome:
        """Run (or finish) the campaign; records come back trial-ordered.

        ``on_record`` fires as each trial result lands (completion
        order), for progress reporting.
        """
        completed: dict[int, TrialRecord] = {}
        if self.resume:
            if self.campaign_dir is None:
                raise ValueError("resume requires a campaign directory")
            completed = load_completed(self.campaign_dir, spec)
        window = range(spec.trial_offset, spec.trial_offset + spec.trials)
        todo = [t for t in window if t not in completed]
        resumed = spec.trials - len(todo)
        if resumed:
            logger.info("campaign resume: %d/%d trials already done",
                        resumed, spec.trials)

        started = time.perf_counter()
        if self.jobs <= 1 or len(todo) <= 1:
            fresh, busy = self._run_serial(spec, todo, on_record)
        else:
            fresh, busy = self._run_pooled(spec, todo, on_record)
        elapsed = time.perf_counter() - started

        records = dict(completed)
        records.update(fresh)
        outcome = CampaignOutcome(
            spec=spec,
            records=[records[t] for t in sorted(records)
                     if t in window],
            elapsed_s=elapsed,
            busy_s=busy,
            jobs=self.jobs,
            resumed_trials=resumed,
        )
        chunk = self._chunk_size(len(todo)) if todo else 1
        self.last_stats = {
            "jobs": self.jobs,
            "tasks": len(todo),
            "chunk": chunk,
            "elapsed_s": elapsed,
            "busy_s": busy,
            "occupancy": busy / (elapsed * self.jobs)
            if elapsed > 0 and self.jobs > 0 else 0.0,
        }
        return outcome

    def _run_serial(self, spec, todo, on_record):
        records: dict[int, TrialRecord] = {}
        busy = 0.0
        for trial in todo:
            start = time.perf_counter()
            payload = run_trial_in_worker(spec, trial, self.campaign_dir)
            busy += time.perf_counter() - start
            record = TrialRecord.from_json(payload)
            records[trial] = record
            if on_record is not None:
                on_record(record)
        return records, busy

    def _run_pooled(self, spec, todo, on_record):
        from repro.harness.parallel import _campaign_chunk_task

        size = self._chunk_size(len(todo))
        chunks = [todo[i:i + size] for i in range(0, len(todo), size)]
        pool = self._executor()
        spec_payload = spec.to_json()
        futures = {
            pool.submit(_campaign_chunk_task, spec_payload, chunk,
                        self.campaign_dir): chunk
            for chunk in chunks
        }
        records: dict[int, TrialRecord] = {}
        busy = 0.0
        pending = set(futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                payloads, task_busy = future.result()
                busy += task_busy
                for trial, payload in zip(futures[future], payloads):
                    record = TrialRecord.from_json(payload)
                    records[trial] = record
                    if on_record is not None:
                        on_record(record)
        return records, busy

    def _executor(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_campaign(spec: CampaignSpec, jobs: int | None = None,
                 campaign_dir: str | os.PathLike | None = None,
                 resume: bool = False,
                 chunk: int | None = None,
                 on_record: Callable[[TrialRecord], None] | None = None,
                 ) -> CampaignOutcome:
    """One-shot convenience wrapper around :class:`CampaignRunner`."""
    with CampaignRunner(jobs=jobs, campaign_dir=campaign_dir,
                        resume=resume, chunk=chunk) as runner:
        return runner.run(spec, on_record=on_record)


def publish_campaign_stats(stats, outcome: CampaignOutcome,
                           name: str = "faults") -> None:
    """Publish ``faults.*`` telemetry into a stats tree.

    Coverage leaves are deterministic for a given spec; ``elapsed_s``,
    ``busy_s`` and ``occupancy`` are host wall-clock (mask them in
    regression gates, like ``pipeline.*`` timings).  ``name`` lets the
    scenario matrix publish one campaign per scheme under
    ``faults.<scheme>.*``.
    """
    group = stats.group(name, "fault-injection campaign results")
    group.count("injected", outcome.injected, "trials injected")
    group.count("detected", outcome.detected, "trials detected")
    group.count("masked", outcome.masked, "trials masked (no effect)")
    group.count("missed", outcome.missed,
                "effective faults missed by coverage")
    group.scalar("detection_rate_all", outcome.detection_rate_all,
                 "detected / injected")
    group.scalar("detection_rate_effective",
                 outcome.detection_rate_effective,
                 "detected / effective (Fig. 8 coverage)")
    group.scalar("sdc_escape_rate", outcome.sdc_escape_rate,
                 "effective-but-undetected faults / injected")
    group.scalar("detection_latency_mean",
                 outcome.mean_detection_latency
                 if outcome.detected else 0.0,
                 "mean main-core instructions to detection")
    group.scalar("detection_latency_max",
                 float(outcome.max_detection_latency),
                 "worst-case main-core instructions to detection")
    if outcome.detected:
        group.scalar("mean_detection_latency",
                     outcome.mean_detection_latency,
                     "mean main-core instructions to detection")
    group.count("resumed_trials", outcome.resumed_trials,
                "trials recovered from shards")
    for kind, counts in sorted(outcome.by_kind().items()):
        sub = group.group(kind, f"{kind} fault-site results")
        sub.count("injected", counts["injected"])
        sub.count("detected", counts["detected"])
        sub.count("masked", counts["masked"])
    runtime = group.group("runtime", "host wall-clock (non-deterministic)")
    runtime.scalar("elapsed_s", outcome.elapsed_s, "campaign wall time")
    runtime.scalar("busy_s", outcome.busy_s, "summed worker busy time")
    runtime.scalar("jobs", outcome.jobs, "worker processes")
