"""Columnar traces: bit-identity vs the object path, packing round trips.

The gate for the columnar refactor: every consumer of a
:class:`~repro.cpu.columns.TraceColumns` must produce *exactly* what the
legacy per-``TraceEntry`` path produced, on every bundled benchmark —
same LSL records, same segment cuts, same timing, same bytes on disk.
"""

import pytest

from repro.core.counter import SegmentBuilder
from repro.core.lsl import record_from_trace, records_from_columns
from repro.cpu import traceio
from repro.cpu.columns import TraceColumns, pack_column, unpack_column
from repro.cpu.config import CoreInstance
from repro.cpu.presets import A510, X2
from repro.cpu.timing import TimingModel
from repro.harness.runner import WorkloadCache
from repro.workloads.profiles import ALL_PROFILES

BUDGET = 2500
SEED = 7


@pytest.fixture(scope="module")
def cache():
    return WorkloadCache(max_instructions=BUDGET, seed=SEED,
                         trace_cache=None)


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_columnar_matches_object_path(cache, name):
    """Golden gate, per bundled benchmark: columns == object path."""
    run = cache.get(name).run
    cols = run.columns
    entries = run.trace  # materialised object-path view

    # Entry list <-> columns conversions are lossless inverses.
    assert TraceColumns.from_entries(entries, run.program) == cols
    rebuilt = cols.entries(run.program)
    assert rebuilt == entries

    # Bulk LSL record extraction matches the per-entry extraction.
    want = [r for r in (record_from_trace(e, i)
                        for i, e in enumerate(entries)) if r is not None]
    assert records_from_columns(cols) == want

    # Sparse segmentation matches the dense walk, cut for cut —
    # including forced (interrupt) boundaries and a small timeout.
    builder = SegmentBuilder(2048, timeout_instructions=900)
    forced = {97, len(entries) // 2, len(entries)}
    sparse = builder.split(cols, forced)
    dense = builder.split(entries, forced)
    assert len(sparse) == len(dense)
    for a, b in zip(sparse, dense):
        assert (a.index, a.start, a.end, a.reason, a.lsl_bytes, a.lines) \
            == (b.index, b.start, b.end, b.reason, b.lsl_bytes, b.lines)
        assert a.records == b.records

    # Packed round trip is exact.
    assert TraceColumns.from_payload(cols.to_payload(), run.program) == cols


def test_binary_container_round_trip(cache):
    run = cache.get("x264").run  # includes BCOPY bulk rows
    restored = traceio.run_from_bytes(traceio.run_to_bytes(run))
    assert restored.columns == run.columns
    assert restored.instructions == run.instructions
    assert restored.end_checkpoint == run.end_checkpoint
    assert restored.class_counts == run.class_counts


def test_timing_identical_on_columns_and_entries(cache):
    run = cache.get("gcc").run
    for core in (CoreInstance(X2, 3.0), CoreInstance(A510, 2.0)):
        a = TimingModel(core).simulate(run.program, run.columns)
        b = TimingModel(core).simulate(run.program, run.trace)
        assert a.cycles == b.cycles
        assert a.mispredicts == b.mispredicts
        assert a.level_counts == b.level_counts


@pytest.mark.parametrize("itemsize", [1, 2, 4, 8])
def test_pack_unpack_round_trip(itemsize):
    top = (1 << (8 * itemsize)) - 1
    values = [0, 1, 7, top // 2, top]
    data = pack_column(values, itemsize)
    assert len(data) == len(values) * itemsize
    assert unpack_column(data, itemsize) == values
    assert pack_column([], itemsize) == b""
    assert unpack_column(b"", itemsize) == []


def test_extend_shifts_sparse_indices(cache):
    run = cache.get("x264").run
    cols = run.columns
    n = len(cols)
    merged = TraceColumns(run.program)
    merged.extend(cols)
    merged.extend(cols)
    assert len(merged) == 2 * n
    assert merged.pcs == cols.pcs * 2
    n_mem = len(cols.mem_rows)
    assert merged.mem_rows[:n_mem] == cols.mem_rows
    assert merged.mem_rows[n_mem:] == [(r[0] + n,) + r[1:]
                                       for r in cols.mem_rows]
    assert merged.br_rows[len(cols.br_rows):] == [
        (i + n, nxt, taken) for i, nxt, taken in cols.br_rows]
    assert set(merged.bulks) \
        == set(cols.bulks) | {i + n for i in cols.bulks}

