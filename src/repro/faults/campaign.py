"""Fault-injection campaigns (Fig. 8 and the section VII-B numbers).

Errors are injected on the *checker* core (detection is symmetric, and
this keeps the main core's execution pristine, exactly as the paper
does).  A trial:

1. builds a fault and a faulty :class:`~repro.core.checker.CheckerCore`;
2. replays, in order, the segments the opportunistic schedule actually
   covered with the configured checker pool;
3. records the first detection and its latency in main-core instructions;
4. if no covered segment detects, replays *all* segments to classify the
   fault as masked (it never changed execution — the paper's "correctly
   masked" 24 %) or as missed-by-coverage.

Both passes skip the segments a fault cannot reach
(:func:`reachable_segments`): a segment whose healthy replay passes no
value for a functional-unit class the fault can alter replays exactly
as a healthy replay does, which never detects.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.core.checker import CheckerCore
from repro.core.counter import Segment
from repro.core.errors import DetectionEvent
from repro.core.system import SystemResult
from repro.cpu.config import CoreConfig
from repro.cpu.functional import fu_bits, pc_fu_bits
from repro.faults.models import (
    FAULT_STUCK_AT,
    DefectFault,
    RegisterFault,
    StuckAtFault,
    TransientFault,
    fault_for_trial,
)
from repro.isa.instructions import FUKind
from repro.isa.program import Program

logger = logging.getLogger("repro.faults.campaign")

Fault = Union[StuckAtFault, TransientFault, RegisterFault, DefectFault]


@dataclass
class InjectionResult:
    """Outcome of one injected fault."""

    fault: Fault
    detected: bool
    masked: bool
    detection_instruction: int = -1  # main-core trace index at detection
    detecting_segment: int = -1
    event: DetectionEvent | None = None
    trial: int = -1  # campaign trial index (-1 for ad-hoc injections)
    kind: str = FAULT_STUCK_AT

    @property
    def effective(self) -> bool:
        """An error that actually perturbed execution somewhere."""
        return not self.masked


@dataclass
class CampaignResult:
    """Aggregate of one campaign."""

    workload: str
    trials: list[InjectionResult] = field(default_factory=list)

    @property
    def injected(self) -> int:
        return len(self.trials)

    @property
    def masked(self) -> int:
        return sum(1 for t in self.trials if t.masked)

    @property
    def detected(self) -> int:
        return sum(1 for t in self.trials if t.detected)

    @property
    def detection_rate_all(self) -> float:
        """Detected / injected (the paper's 76 % full-coverage number)."""
        if not self.injected:
            logger.warning("campaign %s: 0 trials injected; "
                           "detection_rate_all reported as 0.0",
                           self.workload)
            return 0.0
        return self.detected / self.injected

    @property
    def detection_rate_effective(self) -> float:
        """Detected / non-masked (Fig. 8's coverage metric)."""
        effective = self.injected - self.masked
        if not effective:
            # 0 trials, or every fault masked: no denominator, so
            # report 0.0 instead of dividing (or claiming coverage).
            logger.warning("campaign %s: no effective faults "
                           "(injected=%d, masked=%d); "
                           "detection_rate_effective reported as 0.0",
                           self.workload, self.injected, self.masked)
            return 0.0
        return self.detected / effective

    @property
    def sdc_escape_rate(self) -> float:
        """Effective-but-undetected faults per injection (silent SDCs)."""
        if not self.injected:
            return 0.0
        return sum(1 for t in self.trials
                   if not t.detected and not t.masked) / self.injected

    @property
    def mean_detection_latency(self) -> float:
        latencies = [t.detection_instruction for t in self.trials
                     if t.detected]
        return sum(latencies) / len(latencies) if latencies else float("nan")


def checker_fu_counts(config: CoreConfig) -> dict[FUKind, int]:
    """Functional-unit instance counts for round-robin fault exposure."""
    return {kind: fu.units for kind, fu in config.fus.items()}


def segment_footprints(program: Program, pcs,
                       segments: list[Segment]) -> list[int]:
    """Per segment, the bitmask of FU classes its replay passes values for.

    ``pcs`` is the commit trace's pc column the segments index into; a
    replay that diverges from it has already met a faulted class.
    """
    masks = pc_fu_bits(program)[np.asarray(pcs, dtype=np.intp)]
    return [int(np.bitwise_or.reduce(masks[seg.start:seg.end]))
            for seg in segments]


def reachable_segments(fault, segments: list[Segment],
                       footprints: list[int] | None) -> set[int]:
    """Indices of the segments whose replay ``fault`` can perturb.

    Any other segment's footprint misses every class the fault declares
    in ``fu_kinds``, so its faulty replay calls no fault hook: it runs
    exactly as a healthy replay (which never detects) and leaves the
    fault's use and match counters untouched.  A register fault's
    ``strike_segment`` is always reachable.  A fault without
    ``fu_kinds`` is taken to alter every class; with ``footprints=None``
    every segment is reachable.
    """
    if footprints is None:
        return {seg.index for seg in segments}
    bits = fu_bits(getattr(fault, "fu_kinds", None))
    strike = getattr(fault, "strike_segment", None)
    return {seg.index for seg, footprint in zip(segments, footprints)
            if footprint & bits or seg.index == strike}


class FaultCampaign:
    """Runs stuck-at injection trials against checked segments.

    ``footprints`` (from :func:`segment_footprints`) lets trials skip the
    segments a fault cannot reach; without it every segment is replayed.
    """

    def __init__(self, program: Program, segments: list[Segment],
                 checker_config: CoreConfig,
                 hash_mode: bool = False,
                 footprints: list[int] | None = None) -> None:
        self.program = program
        self.segments = segments
        self.fu_counts = checker_fu_counts(checker_config)
        self.hash_mode = hash_mode
        self.footprints = footprints

    def run_trial(self, fault: Fault,
                  covered: list[int] | None = None,
                  trial: int = -1,
                  kind: str = FAULT_STUCK_AT) -> InjectionResult:
        """Inject ``fault`` on the checker; replay covered segments."""
        covered_set = set(covered) if covered is not None else None
        reach = reachable_segments(fault, self.segments, self.footprints)
        checked = reach if covered_set is None else reach & covered_set
        # Stateful faults (transients) carry use counters; start each
        # replay pass from a pristine copy so a trial's outcome never
        # depends on what ran on the fault object before it.
        checker = CheckerCore(self.program, fault_surface=fault.fresh(),
                              fu_counts=self.fu_counts,
                              hash_mode=self.hash_mode)
        for seg in self.segments:
            if seg.index not in checked:
                continue
            result = checker.check_segment(seg)
            if result.detected:
                return InjectionResult(
                    fault=fault, detected=True, masked=False,
                    detection_instruction=seg.end,
                    detecting_segment=seg.index,
                    event=result.first_event,
                    trial=trial, kind=kind,
                )
        # Nothing detected among covered segments: was it masked entirely?
        if covered_set is not None and len(covered_set) < len(self.segments):
            full = CheckerCore(self.program, fault_surface=fault.fresh(),
                               fu_counts=self.fu_counts,
                               hash_mode=self.hash_mode)
            for seg in self.segments:
                if seg.index in covered_set or seg.index not in reach:
                    continue
                if full.check_segment(seg).detected:
                    # Effective fault that coverage missed.
                    return InjectionResult(fault=fault, detected=False,
                                           masked=False,
                                           trial=trial, kind=kind)
        return InjectionResult(fault=fault, detected=False, masked=True,
                               trial=trial, kind=kind)

    def run(self, trials: int, seed: int = 0,
            covered: list[int] | None = None,
            kinds: tuple[str, ...] = (FAULT_STUCK_AT,),
            first_trial: int = 0) -> CampaignResult:
        """Run ``trials`` random fault injections.

        Each trial's fault is drawn from its own derived seed
        (:func:`~repro.faults.models.derive_trial_seed`), so any subset
        or reordering of trials — including fan-out over worker
        processes — reproduces exactly the serial campaign.
        """
        result = CampaignResult(workload=self.program.name)
        for trial in range(first_trial, first_trial + trials):
            kind, fault = fault_for_trial(
                seed, trial, self.fu_counts, kinds=kinds,
                segments=len(self.segments))
            result.trials.append(
                self.run_trial(fault, covered, trial=trial, kind=kind))
        return result


def covered_segments(system_result: SystemResult) -> list[int]:
    """Segment indices the (opportunistic) schedule actually checked."""
    return [s.segment for s in system_result.schedule if s.covered]
