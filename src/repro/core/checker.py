"""Checker-core replay engine.

A checker core re-executes one segment from its start register checkpoint,
serving every load (and non-repeatable value) from the Load-Store Log and
comparing addresses, sizes and store data through the Load-Store
Comparator.  At the end of the segment (same committed-instruction count as
the main core, section IV-F) the RCU compares register files — and, in
Hash Mode, SHA-256 digests.

The induction argument (section III-B): segment N is correct provided
segments 1..N-1 are correct, all accesses hit the logged addresses, all
stores match, and the end register file matches the start of segment N+1.
Any divergence — including a checker whose own fault sends replay down a
different control path, out of the program, or to the wrong record count —
surfaces as a :class:`~repro.core.errors.DetectionEvent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.counter import Segment
from repro.core.errors import DetectionEvent, DetectionKind
from repro.core.hashmode import HashStream
from repro.core.lsc import LoadStoreComparator
from repro.core.lsl import LSLRecord, RecordKind
from repro.core.rcu import RegisterCheckpointUnit
from repro.cpu.functional import (
    ControlFlowEscape,
    FaultSurface,
    FunctionalCore,
)
from repro.isa.instructions import FUKind
from repro.isa.program import Program
from repro.isa.registers import RegisterFile


class ReplayDetection(Exception):
    """Raised inside replay when a divergence is detected (precise)."""

    def __init__(self, event: DetectionEvent) -> None:
        super().__init__(str(event))
        self.event = event


class LogReplayInterface:
    """MemoryPort + NonRepSource over a segment's log records.

    Consumes records in program order (the speculative-index scheme of
    section IV-G guarantees out-of-order checkers observe the same logical
    order; :mod:`repro.core.speculative` models that machinery).
    """

    def __init__(self, segment: Segment, lsc: LoadStoreComparator,
                 hash_mode: bool = False) -> None:
        self.segment = segment
        self.records = segment.records
        self.lsc = lsc
        self.hash_mode = hash_mode
        self.hash_stream = HashStream() if hash_mode else None
        self._next = 0
        self._pending_sc: LSLRecord | None = None
        self._gather_pending: LSLRecord | None = None
        self._gather_served = 0
        self._scatter_pending: LSLRecord | None = None
        self._scatter_served = 0

    # -- record plumbing ----------------------------------------------------

    def _take(self, kinds: tuple[RecordKind, ...], what: str) -> LSLRecord:
        if self._next >= len(self.records):
            raise ReplayDetection(DetectionEvent(
                DetectionKind.LOG_UNDERFLOW, self.segment.index,
                f"checker issued {what} beyond the {len(self.records)} "
                "logged entries",
            ))
        record = self.records[self._next]
        self._next += 1
        if record.kind not in kinds:
            raise ReplayDetection(DetectionEvent(
                DetectionKind.LOAD_ADDRESS if "load" in what
                else DetectionKind.STORE_ADDRESS,
                self.segment.index,
                f"checker issued {what} but log entry {self._next - 1} is "
                f"{record.kind.value}",
                record.trace_index,
            ))
        return record

    def _check(self, event: DetectionEvent | None) -> None:
        if event is not None:
            raise ReplayDetection(event)

    def _digest(self, addr: int, size: int, stored: int | None) -> None:
        if self.hash_stream is not None:
            self.hash_stream.add_access(addr, size, stored)

    @property
    def consumed(self) -> int:
        return self._next

    @property
    def surplus_records(self) -> int:
        return len(self.records) - self._next

    # -- MemoryPort -----------------------------------------------------------

    def load(self, addr: int, size: int) -> int:
        if self._gather_pending:
            return self._gather_load(addr, size)
        record = self._take((RecordKind.LOAD, RecordKind.GATHER), "a load")
        if record.kind is RecordKind.GATHER:
            # First access of an LDG: stage the record, serve both halves.
            self._gather_pending = record
            return self._gather_load(addr, size)
        access = record.accesses[0]
        self._digest(addr, size, None)
        if not self.hash_mode:
            self._check(self.lsc.compare_load(
                access, addr, size, self.segment.index, record.trace_index))
        return access.loaded if access.loaded is not None else 0

    def _gather_load(self, addr: int, size: int) -> int:
        record = self._gather_pending
        assert record is not None
        # Accesses are logged lowest-address-first; match by address.
        match = None
        for access in record.accesses:
            if access.addr == addr:
                match = access
                break
        self._digest(addr, size, None)
        if match is None:
            first = record.accesses[0]
            if not self.hash_mode:
                self._gather_pending = None
                self._check(self.lsc.compare_load(
                    first, addr, size, self.segment.index, record.trace_index))
            match = first
        self._gather_served += 1
        if self._gather_served >= len(record.accesses):
            self._gather_pending = None
            self._gather_served = 0
        return match.loaded if match.loaded is not None else 0

    def store(self, addr: int, size: int, value: int) -> None:
        if self._pending_sc is not None:
            record = self._pending_sc
            self._pending_sc = None
            access = record.accesses[0]
            self._digest(addr, size, value)
            if not self.hash_mode:
                self._check(self.lsc.compare_store(
                    access, addr, size, value,
                    self.segment.index, record.trace_index))
            return
        if self._scatter_pending is not None:
            self._scatter_store(addr, size, value)
            return
        record = self._take((RecordKind.STORE, RecordKind.SCATTER), "a store")
        if record.kind is RecordKind.SCATTER:
            self._scatter_pending = record
            self._scatter_store(addr, size, value)
            return
        access = record.accesses[0]
        self._digest(addr, size, value)
        if not self.hash_mode:
            self._check(self.lsc.compare_store(
                access, addr, size, value,
                self.segment.index, record.trace_index))

    def _scatter_store(self, addr: int, size: int, value: int) -> None:
        record = self._scatter_pending
        assert record is not None
        match = None
        for access in record.accesses:
            if access.addr == addr:
                match = access
                break
        self._digest(addr, size, value)
        if match is None:
            match = record.accesses[0]
            if not self.hash_mode:
                self._scatter_pending = None
                self._check(self.lsc.compare_store(
                    match, addr, size, value,
                    self.segment.index, record.trace_index))
        elif not self.hash_mode:
            event = self.lsc.compare_store(
                match, addr, size, value,
                self.segment.index, record.trace_index)
            if event is not None:
                self._scatter_pending = None
                self._check(event)
        self._scatter_served += 1
        if self._scatter_served >= len(record.accesses):
            self._scatter_pending = None
            self._scatter_served = 0

    def bulk_copy(self, src: int, dst: int,
                  words: int) -> tuple[int, ...]:
        """Replay a BCOPY: one oversized record, loads then stores."""
        record = self._take((RecordKind.BULK,), "a bulk copy")
        loads = [a for a in record.accesses if a.loaded is not None]
        stores = [a for a in record.accesses if a.stored is not None]
        if len(loads) != words or len(stores) != words:
            raise ReplayDetection(DetectionEvent(
                DetectionKind.LOAD_ADDRESS, self.segment.index,
                f"bulk copy of {words} words but log entry has "
                f"{len(loads)} loads / {len(stores)} stores",
                record.trace_index,
            ))
        values = []
        # Digest in record order (all loads, then all stores) to mirror
        # the main core's LSPU commit order.
        for i in range(words):
            self._digest(src + 8 * i, 8, None)
        for i, store in enumerate(stores):
            self._digest(dst + 8 * i, 8, store.stored)
        for i, (load, store) in enumerate(zip(loads, stores)):
            if not self.hash_mode:
                self._check(self.lsc.compare_load(
                    load, src + 8 * i, 8,
                    self.segment.index, record.trace_index))
                self._check(self.lsc.compare_store(
                    store, dst + 8 * i, 8, load.loaded or 0,
                    self.segment.index, record.trace_index))
            values.append(load.loaded if load.loaded is not None else 0)
        return tuple(values)

    def swap(self, addr: int, size: int, value: int) -> int:
        record = self._take((RecordKind.SWAP,), "an atomic swap")
        access = record.accesses[0]
        self._digest(addr, size, value)
        if not self.hash_mode:
            self._check(self.lsc.compare_store(
                access, addr, size, value,
                self.segment.index, record.trace_index))
        return access.loaded if access.loaded is not None else 0

    # -- NonRepSource -----------------------------------------------------------

    def _nonrep_value(self, what: str) -> int:
        record = self._take((RecordKind.NONREP,), what)
        value = record.accesses[0].loaded
        self._digest(0, 8, None)
        return value if value is not None else 0

    def rdrand(self) -> int:
        return self._nonrep_value("a random read")

    def rdtime(self, committed: int) -> int:
        del committed
        return self._nonrep_value("a timer read")

    def sysrd(self) -> int:
        return self._nonrep_value("a system-register read")

    def sc_success(self) -> int:
        record = self._take((RecordKind.NONREP_STORE,), "a store-conditional")
        flag = record.accesses[0].loaded or 0
        if flag:
            self._pending_sc = record
        return flag


@dataclass
class CheckResult:
    """Outcome of checking one segment."""

    segment_index: int
    detected: bool
    events: list[DetectionEvent] = field(default_factory=list)
    instructions_replayed: int = 0
    records_consumed: int = 0

    @property
    def first_event(self) -> DetectionEvent | None:
        return self.events[0] if self.events else None


class CheckerCore:
    """Replays and verifies segments on a (possibly faulty) checker core."""

    def __init__(
        self,
        program: Program,
        fault_surface: FaultSurface | None = None,
        fu_counts: dict[FUKind, int] | None = None,
        hash_mode: bool = False,
    ) -> None:
        self.program = program
        self.fault_surface = fault_surface
        self.fu_counts = fu_counts
        self.hash_mode = hash_mode
        self.lsc = LoadStoreComparator()
        self.rcu = RegisterCheckpointUnit()
        self.segments_checked = 0
        self.instructions_checked = 0

    def check_segment(self, segment: Segment) -> CheckResult:
        """Replay ``segment`` and report any detected divergence."""
        if segment.start_checkpoint is None or segment.end_checkpoint is None:
            raise ValueError("segment is missing its register checkpoints")
        interface = LogReplayInterface(segment, self.lsc, self.hash_mode)
        regs = RegisterFile()
        regs.restore(segment.start_checkpoint)
        core = FunctionalCore(
            self.program,
            interface,
            registers=regs,
            nonrep=interface,
            fault_surface=self.fault_surface,
            fu_counts=self.fu_counts,
            start_pc=segment.start_checkpoint.pc,
        )
        self.rcu.arm(segment.end_checkpoint, segment.digest)
        result = CheckResult(segment.index, detected=False)
        try:
            run = core.run(segment.instructions, record_trace=False)
        except ReplayDetection as detection:
            result.detected = True
            result.events.append(detection.event)
            result.records_consumed = interface.consumed
            return result
        except ControlFlowEscape as escape:
            result.detected = True
            result.events.append(DetectionEvent(
                DetectionKind.CONTROL_FLOW, segment.index, str(escape)))
            result.records_consumed = interface.consumed
            return result
        result.instructions_replayed = run.instructions
        result.records_consumed = interface.consumed
        self.segments_checked += 1
        self.instructions_checked += run.instructions

        if run.instructions != segment.instructions:
            result.detected = True
            result.events.append(DetectionEvent(
                DetectionKind.INSTRUCTION_COUNT, segment.index,
                f"replayed {run.instructions} != logged {segment.instructions}",
            ))
        if interface.surplus_records:
            result.detected = True
            result.events.append(DetectionEvent(
                DetectionKind.LOG_OVERFLOW, segment.index,
                f"{interface.surplus_records} logged entries never replayed",
            ))
        end_checkpoint = run.end_checkpoint
        corrupt = getattr(self.fault_surface, "corrupt_checkpoint", None)
        if corrupt is not None:
            # Register-file fault sites strike the checker's end-of-segment
            # snapshot itself, right before the RCU comparison.
            end_checkpoint = corrupt(end_checkpoint, segment.index)
        event = self.rcu.compare(end_checkpoint, segment.index)
        if event is not None:
            result.detected = True
            result.events.append(event)
        if self.hash_mode and interface.hash_stream is not None:
            event = self.rcu.compare_digest(
                interface.hash_stream.digest(), segment.index)
            if event is not None:
                result.detected = True
                result.events.append(event)
        return result

