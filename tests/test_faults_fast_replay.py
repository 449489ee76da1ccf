"""Fast faulty replay: per-fault handler tables and segment skipping.

A fault surface declares the FU classes it can alter in ``fu_kinds``;
the functional core then takes the generic fault path only at pcs that
pass a value for one of them, and campaigns skip the segments whose
footprint misses them all.  Both must be exact: the reference is the
same replay with ``fu_kinds`` hidden (generic handler at every pc) and
with every segment footprint set to all classes.
"""

import copy
import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.checker import CheckerCore
from repro.core.system import CheckMode, ParaVerserSystem
from repro.cpu.functional import (
    ALL_FU_BITS,
    DirectMemoryPort,
    FunctionalCore,
    MainNonRepSource,
    NoFaults,
    _HANDLERS,
    _handler_table,
    fu_bits,
)
from repro.cpu.presets import A510, parse_checkers
from repro.detect.registry import all_backends
from repro.faults.campaign import (
    checker_fu_counts,
    reachable_segments,
    segment_footprints,
)
from repro.faults.engine import (
    CampaignSpec,
    campaign_context,
    run_trial_in_worker,
)
from repro.faults.models import (
    ALL_FAULT_KINDS,
    DEFECT_FU_CLASSES,
    DefectFault,
    RegisterFault,
    StuckAtFault,
    TransientFault,
)
from repro.faults.scenarios import (
    CAMPAIGN_SCHEMES,
    DecorrelatedSurface,
    decorrelation_mask,
)
from repro.harness.runner import WorkloadCache, make_config
from repro.isa.instructions import OP_SPECS, FUKind, Instruction, Opcode
from repro.isa.program import Program
from repro.mem.memory import Memory
from repro.pipeline.trace import RecordedNonRepSource

FU_COUNTS = checker_fu_counts(A510)


class Opaque:
    """Hides a surface's ``fu_kinds``, so the core runs the generic
    handler at every pc; every other attribute is the wrapped one's."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def apply(self, fu, unit, value, is_address=False):
        return self.inner.apply(fu, unit, value, is_address)

    def __getattr__(self, name):
        if name in ("inner", "fu_kinds") or name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.inner, name)


class Recorder:
    """Identity surface that records the (pc, class) of every call."""

    def __init__(self) -> None:
        self.core = None
        self.seen: dict[int, set] = {}

    def apply(self, fu, unit, value, is_address=False):
        self.seen.setdefault(self.core.pc, set()).add(fu)
        return value


@pytest.fixture(scope="module")
def workloads():
    """Program and short segments of two workloads: one with atomics,
    timers and FP divides, one with bulk copies."""
    cache = WorkloadCache(6000, trace_cache=None, jobs=1)
    config = make_config(parse_checkers("1xA510@1.0"), CheckMode.FULL,
                         timeout_instructions=800)
    out = []
    for name in ("fluidanimate", "x264"):
        cached = cache.get(name)
        segments = ParaVerserSystem(config).segment(cached.run)
        out.append((cached.program, segments, cached.run))
    return out


# -- handler declarations ----------------------------------------------------

def every_opcode_program() -> Program:
    """Straight-line program executing every opcode once."""
    instrs = [Instruction(Opcode.LUI, rd=1, imm=0x1000),
              Instruction(Opcode.LUI, rd=2, imm=0x2000),
              Instruction(Opcode.ADDI, rd=3, rs1=0, imm=6),
              Instruction(Opcode.FCVTIF, rd=1, rs1=3)]
    for op in Opcode:
        pc = len(instrs)
        if op in (Opcode.HALT, Opcode.LUI, Opcode.FCVTIF):
            continue
        if OP_SPECS[op].is_branch and op is not Opcode.JALR:
            instrs.append(Instruction(op, rs1=3, rs2=3, target=pc + 1))
        elif op is Opcode.JALR:
            instrs += [Instruction(Opcode.ADDI, rd=4, rs1=0, imm=pc + 2),
                       Instruction(op, rd=5, rs1=4)]
        elif op is Opcode.LDG:
            instrs.append(Instruction(op, rd=6, rd2=7, rs1=1, rs2=2))
        elif op is Opcode.STS:
            instrs.append(Instruction(op, rs1=1, rs2=2, rs3=3))
        elif op is Opcode.BCOPY:
            instrs.append(Instruction(op, rs1=1, rs2=2, imm=2))
        elif op in (Opcode.LD, Opcode.ST, Opcode.SWP, Opcode.SC):
            instrs.append(Instruction(op, rd=6, rs1=1, rs2=3))
        else:
            # FP sources read f1; integer sources read x3.
            rs1 = 1 if OP_SPECS[op].reads_fp else 3
            instrs.append(Instruction(op, rd=6, rs1=rs1, rs2=1, imm=3))
    instrs.append(Instruction(Opcode.HALT))
    program = Program("every-opcode", instrs)
    program.validate()
    return program


def test_declared_classes_match_what_handlers_pass(workloads):
    """Run programs with the generic handler everywhere: every pc's
    surface calls hit exactly the classes its handler declares."""
    programs = [(every_opcode_program(), MainNonRepSource(), 10_000)]
    programs += [(program, RecordedNonRepSource(run.columns),
                  len(run.columns)) for program, _, run in workloads]
    executed = set()
    for program, nonrep, budget in programs:
        recorder = Recorder()
        core = FunctionalCore(program,
                              DirectMemoryPort(Memory(program.memory_image)),
                              nonrep=nonrep, fault_surface=recorder,
                              fu_counts=FU_COUNTS)
        recorder.core = core
        pcs = core.run(budget).columns.pcs
        instrs = program.instructions
        for pc in set(pcs):
            executed.add(instrs[pc].op)
            declared = _HANDLERS[instrs[pc].op].fu_kinds
            assert recorder.seen.get(pc, set()) == declared, instrs[pc]
    assert executed == set(Opcode)


def test_table_selection():
    """The table is cached per class set; a class set picks generic
    handlers exactly at the pcs that pass it a value."""
    program = every_opcode_program()
    fast = _handler_table(program, frozenset())
    assert _handler_table(program, frozenset()) is fast
    kinds = frozenset({FUKind.LOAD})
    table = _handler_table(program, kinds)
    assert _handler_table(program, frozenset({FUKind.LOAD})) is table
    for pc, instr in enumerate(program.instructions):
        if kinds & _HANDLERS[instr.op].fu_kinds:
            assert table[pc] is not fast[pc]
        else:
            assert table[pc] is fast[pc]
    assert NoFaults.fu_kinds == frozenset()


def test_fault_classes():
    assert StuckAtFault(FUKind.FP, 0, 1, 1).fu_kinds == {FUKind.FP}
    assert TransientFault(FUKind.LOAD, 0, 1, 5).fu_kinds == {FUKind.LOAD}
    assert RegisterFault(False, 1, 2, 3).fu_kinds == frozenset()
    defect = DefectFault(fus=DEFECT_FU_CLASSES[0], trigger_mask=1,
                         trigger_value=1, corruption=2)
    assert defect.fu_kinds == set(DEFECT_FU_CLASSES[0])
    wrapped = DecorrelatedSurface(defect, 0x10)
    assert wrapped.fu_kinds == defect.fu_kinds
    assert not hasattr(DecorrelatedSurface(Opaque(defect), 1), "fu_kinds")


# -- per-fault table: property test against the generic reference ----------

_FUS = st.sampled_from(list(FUKind))


@st.composite
def faults(draw, segments: int):
    kind = draw(st.sampled_from(("stuck", "transient", "register",
                                 "defect")))
    if kind == "stuck":
        fu = draw(_FUS)
        fault = StuckAtFault(
            fu, draw(st.integers(0, FU_COUNTS.get(fu, 1) - 1)),
            draw(st.integers(0, 63)), draw(st.integers(0, 1)),
            addresses_only=draw(st.booleans()))
    elif kind == "transient":
        fu = draw(_FUS)
        fault = TransientFault(
            fu, draw(st.integers(0, FU_COUNTS.get(fu, 1) - 1)),
            draw(st.integers(0, 63)), draw(st.integers(1, 400)),
            addresses_only=draw(st.booleans()))
    elif kind == "register":
        fault = RegisterFault(draw(st.booleans()), draw(st.integers(1, 31)),
                              draw(st.integers(0, 63)),
                              draw(st.integers(0, segments - 1)))
    else:
        fus = draw(st.sampled_from(DEFECT_FU_CLASSES)
                   | st.sets(_FUS, min_size=1).map(tuple))
        mask = draw(st.integers(1, 0xFFF))
        fault = DefectFault(fus, mask, draw(st.integers(0, mask)) & mask,
                            1 << draw(st.integers(0, 63)),
                            latch_after=draw(st.integers(1, 3)),
                            addresses_only=draw(st.booleans()))
    if draw(st.booleans()):
        return DecorrelatedSurface(fault, draw(st.integers(1, (1 << 40) - 1)))
    return fault


def _inner(surface):
    return surface.fault if isinstance(surface, DecorrelatedSurface) \
        else surface


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_per_fault_table_matches_generic_reference(workloads, data):
    program, segments, _ = workloads[data.draw(st.integers(0, 1))]
    fault = data.draw(faults(len(segments)))
    first = data.draw(st.integers(0, len(segments) - 1))
    run = segments[first:first + data.draw(st.integers(1, 3))]
    fast_surface = fault.fresh()
    reference_surface = fault.fresh()
    fast = CheckerCore(program, fault_surface=fast_surface,
                       fu_counts=FU_COUNTS)
    reference = CheckerCore(program, fault_surface=Opaque(reference_surface),
                            fu_counts=FU_COUNTS)
    for seg in run:
        got = fast.check_segment(seg)
        want = reference.check_segment(seg)
        assert (got.detected, got.events, got.instructions_replayed,
                got.records_consumed) == (
            want.detected, want.events, want.instructions_replayed,
            want.records_consumed)
        inner, ref_inner = _inner(fast_surface), _inner(reference_surface)
        for field in ("_uses", "fired", "matches"):
            assert getattr(inner, field, None) \
                == getattr(ref_inner, field, None), field


# -- segment footprints and the skip rule ------------------------------------

def test_footprints_or_the_classes_of_each_segment(workloads):
    program, segments, run = workloads[0]
    footprints = segment_footprints(program, run.columns.pcs, segments)
    assert len(footprints) == len(segments)
    instrs = program.instructions
    for seg, footprint in zip(segments, footprints):
        kinds = set()
        for pc in run.columns.pcs[seg.start:seg.end]:
            kinds |= _HANDLERS[instrs[pc].op].fu_kinds
        assert footprint == fu_bits(kinds)


def test_reachable_segments_rule():
    class Seg:
        def __init__(self, index):
            self.index = index

    segments = [Seg(i) for i in range(4)]
    load, fp = fu_bits({FUKind.LOAD}), fu_bits({FUKind.FP})
    footprints = [load, fp, load | fp, 0]
    stuck = StuckAtFault(FUKind.FP, 0, 1, 1)
    assert reachable_segments(stuck, segments, footprints) == {1, 2}
    register = RegisterFault(False, 1, 2, strike_segment=3)
    assert reachable_segments(register, segments, footprints) == {3}
    assert reachable_segments(Opaque(stuck), segments, footprints) \
        == {0, 1, 2}  # undeclared: every segment with any class
    assert reachable_segments(stuck, segments, None) == {0, 1, 2, 3}
    assert fu_bits(None) == ALL_FU_BITS


@pytest.mark.parametrize("scheme", CAMPAIGN_SCHEMES)
def test_segment_skip_is_exact(scheme, monkeypatch):
    """Trial records equal the same context's with nothing skipped."""
    # exchange2's schedule covers 1 of 4 segments (both passes of the
    # covered/masked schemes run); mcf's covers all 4, so MEEK closes
    # its window.
    workload = "mcf" if scheme == "meek-ro" else "exchange2"
    spec = CampaignSpec(workload=workload, scheme=scheme,
                        instructions=20000, trials=40, seed=7,
                        fault_kinds=ALL_FAULT_KINDS)
    ctx = campaign_context(spec)
    if scheme == "meek-ro":
        assert set(range(4)) <= set(ctx.covered)  # one window closes
    else:
        assert 0 < len(ctx.covered) < ctx.segments
    calls = {"n": 0}
    check_segment = CheckerCore.check_segment

    def counting(self, segment):
        calls["n"] += 1
        return check_segment(self, segment)

    monkeypatch.setattr(CheckerCore, "check_segment", counting)
    trials = range(spec.trials)
    skipping = [run_trial_in_worker(spec, t) for t in trials]
    replayed = calls["n"]
    # Footprints of every class still skip a register fault's other
    # segments; no footprints at all replays every segment.
    monkeypatch.setattr(ctx.campaign, "footprints",
                        [ALL_FU_BITS] * ctx.segments)
    assert [run_trial_in_worker(spec, t) for t in trials] == skipping
    monkeypatch.setattr(ctx.campaign, "footprints", None)
    calls["n"] = 0
    full = [run_trial_in_worker(spec, t) for t in trials]
    assert skipping == full
    assert replayed < calls["n"]


# -- healthy replay never detects (the invariant the skip relies on) --------

@pytest.mark.parametrize("backend", [b for b in all_backends()
                                     if hasattr(b, "make_config")],
                         ids=lambda b: b.name)
def test_healthy_checker_replays_every_segment_clean(backend):
    cache = WorkloadCache(20000, seed=7, trace_cache=None, jobs=1)
    cached = cache.get("perlbench")
    config = backend.make_config()
    segments = ParaVerserSystem(config).segment(cached.run)
    checker = CheckerCore(cached.program,
                          fu_counts=checker_fu_counts(
                              config.checkers[0].config),
                          hash_mode=config.hash_mode)
    dirty = [seg.index for seg in segments
             if checker.check_segment(seg).detected]
    assert dirty == []


# -- DecorrelatedSurface copies ----------------------------------------------

@pytest.mark.parametrize("roundtrip", [
    copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
    ids=["copy", "deepcopy", "pickle"])
def test_decorrelated_surface_round_trips(roundtrip):
    surface = DecorrelatedSurface(
        RegisterFault(True, 3, 5, strike_segment=2), decorrelation_mask(7, 1))
    clone = roundtrip(surface)
    assert clone == surface
    assert clone.strike_segment == 2  # delegation still works
    with pytest.raises(AttributeError):
        getattr(clone, "no_such_attribute")
