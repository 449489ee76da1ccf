"""ParaVerser core mechanisms — the paper's primary contribution."""

from repro.core.allocator import Allocation, CheckerAllocator, CheckerSlot
from repro.core.checker import (
    CheckResult,
    CheckerCore,
    LogReplayInterface,
    ReplayDetection,
)
from repro.core.counter import (
    DEFAULT_TIMEOUT_INSTRUCTIONS,
    CutReason,
    Segment,
    SegmentBuilder,
)
from repro.core.eager import (
    eager_finish_time,
    lazy_finish_time,
    line_arrival_times,
    segment_finish_time,
)
from repro.core.errors import DetectionEvent, DetectionKind, ParaVerserError
from repro.core.hashmode import DIGEST_BYTES, HashStream, digest_segment
from repro.core.lsc import LoadStoreComparator
from repro.core.lsl import (
    LoadStoreLogCache,
    LSLAccess,
    LSLRecord,
    RecordKind,
    record_from_trace,
)
from repro.core.lspu import LoadStorePushUnit, PushedLine
from repro.core.rcu import RegisterCheckpointUnit
from repro.core.speculative import (
    AccessOutcome,
    InFlightOp,
    SpeculativeIndexAllocator,
    SpeculativeLSLWindow,
)
from repro.core.cluster import ClusterResult, ClusterSystem
from repro.core.maintenance import CoreHealth, CoreRecord, HealthMonitor
from repro.core.forensics import (
    DivergencePoint,
    VoteOutcome,
    locate_divergence,
    replay_vote,
)
from repro.core.rollback import (
    RecoverableSystem,
    RecoveredRun,
    RecoveryEvent,
    UndoLogPort,
)
from repro.core.system import (
    CheckMode,
    ParaVerserConfig,
    ParaVerserSystem,
    PreparedRun,
    SegmentSchedule,
    SystemResult,
)

__all__ = [
    "AccessOutcome",
    "ClusterResult",
    "ClusterSystem",
    "CoreHealth",
    "CoreRecord",
    "HealthMonitor",
    "PreparedRun",
    "RecoverableSystem",
    "RecoveredRun",
    "RecoveryEvent",
    "UndoLogPort",
    "Allocation",
    "CheckMode",
    "CheckResult",
    "CheckerAllocator",
    "CheckerCore",
    "CheckerSlot",
    "CutReason",
    "DEFAULT_TIMEOUT_INSTRUCTIONS",
    "DIGEST_BYTES",
    "DetectionEvent",
    "DetectionKind",
    "DivergencePoint",
    "HashStream",
    "InFlightOp",
    "LSLAccess",
    "LSLRecord",
    "LoadStoreComparator",
    "LoadStoreLogCache",
    "LoadStorePushUnit",
    "LogReplayInterface",
    "ParaVerserConfig",
    "ParaVerserError",
    "ParaVerserSystem",
    "PushedLine",
    "RecordKind",
    "RegisterCheckpointUnit",
    "ReplayDetection",
    "Segment",
    "SegmentBuilder",
    "SegmentSchedule",
    "SpeculativeIndexAllocator",
    "SpeculativeLSLWindow",
    "SystemResult",
    "VoteOutcome",
    "digest_segment",
    "eager_finish_time",
    "lazy_finish_time",
    "line_arrival_times",
    "locate_divergence",
    "record_from_trace",
    "replay_vote",
    "segment_finish_time",
]
