"""Persistent trace cache: round-trip, keying, invalidation, determinism."""

import json

import pytest

from repro.core.system import CheckMode
from repro.cpu import tracecache, traceio
from repro.harness.experiments import a510
from repro.cpu.tracecache import TraceCache, cache_key, env_trace_cache
from repro.harness.runner import WorkloadCache, make_config
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile

BENCH = "exchange2"
BUDGET = 4000
SEED = 7


@pytest.fixture()
def run_result():
    cache = WorkloadCache(max_instructions=BUDGET, seed=SEED,
                          trace_cache=None)
    return cache.get(BENCH).run


def test_traceio_round_trip(tmp_path, run_result):
    path = tmp_path / "run.json"
    traceio.save_run(run_result, path)
    loaded = traceio.load_run(path)
    assert loaded.instructions == run_result.instructions
    assert loaded.halted == run_result.halted
    assert loaded.end_checkpoint == run_result.end_checkpoint
    assert len(loaded.trace) == len(run_result.trace)
    assert all(a == b for a, b in zip(loaded.trace, run_result.trace))
    assert loaded.program.instructions == run_result.program.instructions


def test_cache_key_sensitivity():
    base = cache_key(BENCH, SEED, BUDGET)
    assert base == cache_key(BENCH, SEED, BUDGET)  # stable
    assert base != cache_key("gcc", SEED, BUDGET)
    assert base != cache_key(BENCH, SEED + 1, BUDGET)
    assert base != cache_key(BENCH, SEED, BUDGET + 1)


def test_cache_key_tracks_versions(monkeypatch):
    base = cache_key(BENCH, SEED, BUDGET)
    monkeypatch.setattr(tracecache, "CACHE_VERSION", 999)
    bumped = cache_key(BENCH, SEED, BUDGET)
    assert base != bumped
    monkeypatch.setattr(tracecache, "CACHE_VERSION", 1)
    monkeypatch.setattr(traceio, "TRACE_SEMANTICS_VERSION", 999)
    assert cache_key(BENCH, SEED, BUDGET) != base


def test_hit_miss_and_put(tmp_path, run_result):
    tc = TraceCache(tmp_path)
    assert tc.get(BENCH, SEED, BUDGET) is None  # cold miss
    tc.put(BENCH, SEED, BUDGET, run_result)
    hit = tc.get(BENCH, SEED, BUDGET)
    assert hit is not None
    assert hit.instructions == run_result.instructions
    # Different key parameters miss even with an entry on disk.
    assert tc.get(BENCH, SEED + 1, BUDGET) is None
    assert tc.get(BENCH, SEED, BUDGET + 1) is None


def test_corrupt_entry_is_evicted(tmp_path, run_result, caplog):
    tc = TraceCache(tmp_path)
    tc.put(BENCH, SEED, BUDGET, run_result)
    path = tc.path_for(BENCH, SEED, BUDGET)
    path.write_text("{not json")
    with caplog.at_level("WARNING", logger="repro.cpu.tracecache"):
        assert tc.get(BENCH, SEED, BUDGET) is None
    assert not path.exists()  # evicted, next put can repopulate
    # The eviction is observable, not silent: one warning naming the file.
    warning = [r for r in caplog.records if "corrupt" in r.getMessage()]
    assert len(warning) == 1
    assert str(path) in warning[0].getMessage()


def test_stale_format_version_is_evicted(tmp_path, run_result):
    tc = TraceCache(tmp_path)
    path = tc.path_for(BENCH, SEED, BUDGET)
    data = bytearray(traceio.run_to_bytes(run_result))
    data[4] = 99  # container version byte
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(bytes(data))
    assert tc.get(BENCH, SEED, BUDGET) is None
    assert not path.exists()


def _legacy_entry_payload(run) -> dict:
    """A v1 JSON cache entry, as the retired JSON-era writer produced it."""
    return {
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


def test_legacy_json_entry_is_a_miss_and_recomputed(tmp_path, run_result):
    """A JSON-era ``<key>.json`` entry is never read: its key misses,
    the run is recomputed and published as a binary entry, and the
    recomputed run equals a fresh functional execution."""
    tc = TraceCache(tmp_path)
    legacy = tc.path_for(BENCH, SEED, BUDGET).with_suffix(".json")
    legacy.parent.mkdir(parents=True, exist_ok=True)
    # A would-be hit with a wrong trace: it must never be served.
    payload = _legacy_entry_payload(run_result)
    payload["instructions"] = 1
    legacy.write_text(json.dumps(payload))

    assert tc.get(BENCH, SEED, BUDGET) is None
    assert tc.stats.misses == 1
    assert tc.info()["entries"] == 0
    cache = WorkloadCache(max_instructions=BUDGET, seed=SEED, trace_cache=tc)
    assert cache.trace_source(BENCH) == "computed"
    recomputed = cache.get(BENCH).run
    assert recomputed.instructions == run_result.instructions
    assert recomputed.columns == run_result.columns
    assert tc.path_for(BENCH, SEED, BUDGET).is_file()
    hit = tc.get(BENCH, SEED, BUDGET)
    assert hit is not None and hit.columns == run_result.columns
    assert legacy.exists()  # never read, never rewritten


def test_new_entry_shadows_legacy(tmp_path, run_result):
    tc = TraceCache(tmp_path)
    path = tc.path_for(BENCH, SEED, BUDGET).with_suffix(".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{not json")  # would be evicted if ever read
    tc.put(BENCH, SEED, BUDGET, run_result)
    assert tc.get(BENCH, SEED, BUDGET) is not None
    assert path.exists()  # the shadowed legacy file was never touched


def test_entries_are_compressed_and_raw_binary_still_loads(tmp_path,
                                                           run_result):
    tc = TraceCache(tmp_path)
    tc.put(BENCH, SEED, BUDGET, run_result)
    path = tc.path_for(BENCH, SEED, BUDGET)
    data = path.read_bytes()
    raw = traceio.run_to_bytes(run_result)
    assert data[0] == 0x78  # zlib magic byte
    assert len(data) < len(raw)
    # A raw (uncompressed) binary container is sniffed and loads too.
    path.write_bytes(raw)
    hit = tc.get(BENCH, SEED, BUDGET)
    assert hit is not None
    assert hit.columns == run_result.columns


def test_stats_counters(tmp_path, run_result):
    from repro.obs import StatGroup

    tc = TraceCache(tmp_path)
    assert tc.get(BENCH, SEED, BUDGET) is None
    assert tc.stats.misses == 1 and tc.stats.hits == 0
    assert tc.stats.hit_rate == 0.0
    tc.put(BENCH, SEED, BUDGET, run_result)
    written = tc.stats.bytes_written
    assert written > 0
    assert tc.get(BENCH, SEED, BUDGET) is not None
    assert tc.stats.hits == 1
    assert tc.stats.bytes_read == written
    assert tc.stats.hit_rate == 0.5
    group = StatGroup("trace_cache")
    tc.stats.export_stats(group)
    flat = group.flatten()
    assert flat["hits"] == 1 and flat["misses"] == 1
    assert flat["bytes_written"] == written


def test_purge_empties_the_cache(tmp_path, run_result):
    tc = TraceCache(tmp_path)
    tc.put(BENCH, SEED, BUDGET, run_result)
    tc.put(BENCH, SEED + 1, BUDGET, run_result)
    assert tc.info()["entries"] == 2
    assert tc.purge() == 2
    assert tc.info()["entries"] == 0
    assert tc.get(BENCH, SEED, BUDGET) is None


def test_env_trace_cache(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    assert env_trace_cache() is None
    monkeypatch.setenv("REPRO_TRACE_CACHE", "")
    assert env_trace_cache() is None
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    assert env_trace_cache() is None
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    tc = env_trace_cache()
    assert tc is not None and tc.directory == tmp_path


def test_cached_run_config_is_bit_identical(tmp_path):
    config = make_config([a510(2.0)] * 2, CheckMode.OPPORTUNISTIC)
    uncached = WorkloadCache(max_instructions=BUDGET, seed=SEED,
                             trace_cache=None)
    want = uncached.run_config(BENCH, config)

    tc = TraceCache(tmp_path)
    warm = WorkloadCache(max_instructions=BUDGET, seed=SEED, trace_cache=tc)
    warm.run_config(BENCH, config)  # populates the disk cache
    assert tc.get(BENCH, SEED, BUDGET) is not None

    cold = WorkloadCache(max_instructions=BUDGET, seed=SEED, trace_cache=tc)
    got = cold.run_config(BENCH, config)  # loads the trace from disk

    assert got.baseline_time_ns == want.baseline_time_ns
    assert got.checked_time_ns == want.checked_time_ns
    assert got.slowdown == want.slowdown
    assert got.coverage == want.coverage
    assert got.stall_ns == want.stall_ns
    assert got.segments == want.segments
    assert got.lsl_bytes == want.lsl_bytes
    assert got.main_timing.cycles == want.main_timing.cycles
    assert got.baseline_timing.cycles == want.baseline_timing.cycles


def test_round_tripped_program_reproduces_run():
    """A program loaded from JSON yields the same functional trace."""
    program = build_program(get_profile(BENCH), seed=SEED)
    round_tripped = traceio.program_from_json(
        traceio.program_to_json(program))
    assert round_tripped.instructions == program.instructions
    assert round_tripped.memory_image == program.memory_image


def test_concurrent_writers_never_publish_torn_entries(tmp_path,
                                                       run_result):
    """Same-process concurrent writers (serve pool tasks, threads) must
    each use a unique temp file: readers only ever see complete entries,
    and no temp files survive."""
    import threading

    tc = TraceCache(tmp_path)
    errors = []
    stop = threading.Event()

    def writer():
        try:
            for _ in range(5):
                tc.put(BENCH, SEED, BUDGET, run_result)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def reader():
        try:
            while not stop.is_set():
                hit = tc.get(BENCH, SEED, BUDGET)
                # A miss (not-yet-written) is fine; a torn entry is not.
                if hit is not None:
                    assert hit.instructions == run_result.instructions
                    assert len(hit.trace) == len(run_result.trace)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    writers = [threading.Thread(target=writer) for _ in range(6)]
    readers = [threading.Thread(target=reader) for _ in range(2)]
    for thread in readers + writers:
        thread.start()
    for thread in writers:
        thread.join()
    stop.set()
    for thread in readers:
        thread.join()

    assert not errors
    final = tc.get(BENCH, SEED, BUDGET)
    assert final is not None
    assert final.instructions == run_result.instructions
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_put_failure_leaves_no_temp_files(tmp_path, run_result,
                                          monkeypatch):
    tc = TraceCache(tmp_path)

    def failing_replace(src, dst):
        raise OSError("disk full")

    # Fail at publication time, after the temp file has been written,
    # exercising the cleanup path.
    monkeypatch.setattr(tracecache.os, "replace", failing_replace)
    with pytest.raises(OSError):
        tc.put(BENCH, SEED, BUDGET, run_result)
    assert list(tmp_path.iterdir()) == []
