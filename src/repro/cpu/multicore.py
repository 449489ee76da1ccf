"""Multicore functional execution over shared memory.

Runs several programs (threads) round-robin in fixed quanta against one
shared :class:`~repro.mem.memory.Memory`.  Because the main cores log the
*observed* value of every load at the time it executed, any cross-thread
communication — including races — replays on the checkers exactly as it
happened (paper section IV-J); this executor produces exactly those
per-thread traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.columns import TraceColumns
from repro.cpu.functional import (
    DirectMemoryPort,
    FunctionalCore,
    MainNonRepSource,
    RunResult,
    _fu_names,
)
from repro.isa.program import Program
from repro.isa.registers import RegisterCheckpoint
from repro.mem.memory import Memory


@dataclass
class ThreadRun:
    """One thread's outcome of a multicore run."""

    program: Program
    result: RunResult
    #: Trace indices where the scheduler switched this thread out; these
    #: become forced checkpoint boundaries (interrupts, section IV-J).
    switch_points: list[int]
    #: Register checkpoints captured at each switch point (trace index ->
    #: snapshot); segments aligned to interrupts use these directly, since
    #: a shared-memory run cannot be re-executed per thread.
    checkpoints: dict[int, RegisterCheckpoint]


def run_multicore(
    programs: list[Program],
    memory: Memory | None = None,
    max_instructions_per_thread: int = 100_000,
    quantum: int = 500,
    seed: int = 0,
) -> list[ThreadRun]:
    """Execute ``programs`` round-robin over shared memory."""
    if not programs:
        raise ValueError("no programs to run")
    if memory is None:
        memory = Memory()
        for program in programs:
            for addr, value in program.memory_image.items():
                memory.store(addr, 8, value)
    port = DirectMemoryPort(memory)
    cores = [
        FunctionalCore(
            program, port,
            nonrep=MainNonRepSource(seed=seed + tid, core_id=tid),
        )
        for tid, program in enumerate(programs)
    ]
    starts = [core.regs.snapshot(core.pc) for core in cores]
    traces = [TraceColumns(program) for program in programs]
    switch_points: list[list[int]] = [[] for _ in cores]
    checkpoints: list[dict[int, RegisterCheckpoint]] = [{} for _ in cores]
    remaining = [max_instructions_per_thread] * len(cores)
    active = [True] * len(cores)

    while any(active):
        progressed = False
        for tid, core in enumerate(cores):
            if not active[tid]:
                continue
            chunk = core.run(min(quantum, remaining[tid]))
            traces[tid].extend(chunk.columns)
            remaining[tid] -= chunk.instructions
            if chunk.instructions:
                progressed = True
            checkpoints[tid][len(traces[tid])] = chunk.end_checkpoint
            if core.halted or remaining[tid] <= 0 or chunk.instructions == 0:
                active[tid] = False
            else:
                switch_points[tid].append(len(traces[tid]))
        if not progressed:
            break

    runs: list[ThreadRun] = []
    for tid, core in enumerate(cores):
        columns = traces[tid]
        class_counts = columns.class_counts(
            _fu_names(programs[tid]))
        runs.append(ThreadRun(
            program=programs[tid],
            result=RunResult(
                program=programs[tid],
                columns=columns,
                start_checkpoint=starts[tid],
                end_checkpoint=core.regs.snapshot(core.pc),
                halted=core.halted,
                instructions=len(columns),
                class_counts=class_counts,
            ),
            switch_points=switch_points[tid],
            checkpoints=checkpoints[tid],
        ))
    return runs
