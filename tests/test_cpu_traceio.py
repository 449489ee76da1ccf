"""Tests for trace/program serialization."""

import json

import pytest

from repro.core.checker import CheckerCore
from repro.core.system import ParaVerserConfig, ParaVerserSystem
from repro.cpu.config import CoreInstance
from repro.cpu.presets import A510, X2
from repro.cpu.timing import TimingModel
from repro.cpu import traceio
from repro.cpu.traceio import (
    load_run,
    program_from_json,
    program_to_json,
    save_run,
)
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile


@pytest.fixture(scope="module")
def run_and_program():
    program = build_program(get_profile("x264"), seed=3)  # incl. BCOPY ops
    config = ParaVerserConfig(
        main=CoreInstance(X2, 3.0), checkers=[CoreInstance(A510, 2.0)],
        seed=3, timeout_instructions=500,
    )
    system = ParaVerserSystem(config)
    return system, program, system.execute(program, 6_000)


def test_program_roundtrip(run_and_program):
    _, program, _ = run_and_program
    restored = program_from_json(program_to_json(program))
    assert restored.name == program.name
    assert len(restored.instructions) == len(program.instructions)
    assert restored.memory_image == program.memory_image
    for a, b in zip(restored.instructions, program.instructions):
        assert a == b


def test_run_roundtrip(tmp_path, run_and_program):
    _, _, run = run_and_program
    path = tmp_path / "run.json"
    save_run(run, path)
    restored = load_run(path)
    assert restored.instructions == run.instructions
    assert restored.halted == run.halted
    assert restored.start_checkpoint.matches(run.start_checkpoint)
    assert restored.end_checkpoint.matches(run.end_checkpoint)
    assert len(restored.trace) == len(run.trace)
    for a, b in zip(restored.trace[:200], run.trace[:200]):
        assert (a.pc, a.addr, a.loaded, a.stored, a.taken, a.next_pc, a.bulk) \
            == (b.pc, b.addr, b.loaded, b.stored, b.taken, b.next_pc, b.bulk)


def test_loaded_trace_is_checkable(tmp_path, run_and_program):
    """A reloaded run must drive segmentation + healthy replay cleanly."""
    system, _, run = run_and_program
    path = tmp_path / "run.json"
    save_run(run, path)
    restored = load_run(path)
    segments = system.segment(restored)
    checker = CheckerCore(restored.program)
    for segment in segments[:3]:
        result = checker.check_segment(segment)
        assert not result.detected, str(result.first_event)


def test_loaded_trace_times_identically(tmp_path, run_and_program):
    _, _, run = run_and_program
    path = tmp_path / "run.json"
    save_run(run, path)
    restored = load_run(path)
    original = TimingModel(CoreInstance(X2, 3.0)).simulate(
        run.program, run.trace)
    reloaded = TimingModel(CoreInstance(X2, 3.0)).simulate(
        restored.program, restored.trace)
    assert reloaded.cycles == pytest.approx(original.cycles)


def test_format_is_binary_container(tmp_path, run_and_program):
    _, _, run = run_and_program
    path = tmp_path / "run.pvtc"
    save_run(run, path)
    data = path.read_bytes()
    assert data.startswith(traceio.MAGIC)
    assert data[4] == traceio.FORMAT_VERSION
    header_len = int.from_bytes(data[5:13], "little")
    header = json.loads(data[13:13 + header_len].decode("utf-8"))
    assert header["n"] == run.instructions
    assert sum(length for _, length in header["sections"]) \
        == len(data) - 13 - header_len


def test_legacy_json_files_are_rejected(tmp_path, run_and_program):
    """Files of the retired v1 JSON writer fail to load, never misread."""
    _, _, run = run_and_program
    path = tmp_path / "run.json"
    legacy = {
        "version": 1,
        "program": traceio.program_to_json(run.program),
        "trace": [[e.pc, e.addr, e.addr2, e.size, e.loaded, e.loaded2,
                   e.stored, e.nonrep, 1 if e.taken else 0, e.next_pc,
                   list(e.bulk) if e.bulk is not None else None]
                  for e in run.trace],
        "start_checkpoint": {"ints": list(run.start_checkpoint.ints),
                             "fps": list(run.start_checkpoint.fps),
                             "pc": run.start_checkpoint.pc},
        "end_checkpoint": {"ints": list(run.end_checkpoint.ints),
                           "fps": list(run.end_checkpoint.fps),
                           "pc": run.end_checkpoint.pc},
        "halted": run.halted,
        "instructions": run.instructions,
        "class_counts": run.class_counts,
    }
    path.write_text(json.dumps(legacy))
    with pytest.raises(ValueError, match="not a binary trace container"):
        load_run(path)
    with pytest.raises(ValueError, match="unsupported trace format"):
        traceio.run_from_payload(legacy)


def test_version_check(tmp_path, run_and_program):
    _, _, run = run_and_program
    path = tmp_path / "run.pvtc"
    save_run(run, path)
    data = bytearray(path.read_bytes())
    data[4] = 99  # container version byte
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        load_run(path)
    path.write_text(json.dumps({"version": 99}))
    with pytest.raises(ValueError):
        load_run(path)
