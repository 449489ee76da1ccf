"""Pipeline stage 6: end-to-end functional verification sample.

Replays a sample of segments on a healthy checker core as a self-check
of the logging/replay implementation itself.
"""

from __future__ import annotations

from repro.core.checker import CheckerCore, CheckResult
from repro.core.counter import Segment
from repro.core.simconfig import ParaVerserConfig
from repro.isa.program import Program


def verify_sample(config: ParaVerserConfig, program: Program,
                  segments: list[Segment]) -> list[CheckResult]:
    """Replay a sample of segments on a healthy checker.

    A healthy checker must never report an error (no false positives);
    a detection here means the logging/replay implementation itself
    diverged, so it raises rather than returning quietly.  Each replay
    restores the segment's start checkpoint, so one shared
    :class:`CheckerCore` serves the whole sample.
    """
    count = min(config.verify_segments, len(segments))
    if count <= 0:
        return []
    stride = max(len(segments) // count, 1)
    sample = segments[::stride][:count]
    checker = CheckerCore(program, hash_mode=config.hash_mode)
    results = [checker.check_segment(seg) for seg in sample]
    for result in results:
        if result.detected:
            raise RuntimeError(
                "healthy checker detected a divergence (implementation "
                f"bug): {result.first_event}"
            )
    return results
