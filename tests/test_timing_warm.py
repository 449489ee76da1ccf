"""Warm once: the main core's warmed caches, restored per program and geometry.

``pipeline.timing.main_timing`` warms the main core's L1D/L2/L3 the first
time it times a program on one cache geometry, keeps snapshots on the
program, and restores them on every later pass.  These tests pin that a
restore equals a fresh warm, that simulating never leaks back into the
snapshot, that one checked run warms once per geometry, and that whole
runs are identical to runs that re-warm on every timing pass.
"""

import copy
import fnmatch
from dataclasses import replace

import pytest

from repro.core.system import CheckMode, ParaVerserSystem
from repro.cpu.presets import parse_checkers
from repro.cpu.timing import TimingModel
from repro.harness.runner import make_config
from repro.mem.cache import Cache, CacheConfig
from repro.pipeline import graph as graph_mod
from repro.pipeline import report as report_mod
from repro.pipeline import timing as timing_mod
from repro.pipeline.timing import build_uncore, main_timing, warm_addresses
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile

BUDGET = 6000
SEED = 7


def _caches(model):
    hierarchy = model.hierarchy
    return (hierarchy.l1d, hierarchy.l2, hierarchy.uncore.l3)


def _fresh_warm(config, program):
    """Snapshots of a model warmed directly, the way every pass once did."""
    model = TimingModel(config.main, build_uncore(config, 0.0))
    model.warm_data(warm_addresses(program))
    return tuple(cache.snapshot() for cache in _caches(model))


@pytest.fixture
def seen(monkeypatch):
    """Per ``simulate`` call: the L1D/L2/L3 snapshots and whether every
    counter the warm resets was zero when the replay began."""
    records = []
    real = TimingModel.simulate

    def spy(self, *args, **kwargs):
        hierarchy = self.hierarchy
        uncore = hierarchy.uncore
        caches = _caches(self)
        zeroed = (all(c.hits == c.misses == c.evictions == 0
                      for c in caches)
                  and not any(hierarchy.level_counts.values())
                  and uncore.llc_accesses == 0
                  and uncore.dram.accesses == 0
                  and not uncore.dram._open_rows)
        records.append((tuple(c.snapshot() for c in caches), zeroed))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(TimingModel, "simulate", spy)
    return records


@pytest.fixture
def warm_calls(monkeypatch):
    calls = []
    real = TimingModel.warm_data

    def counting(self, addresses):
        calls.append(self)
        return real(self, addresses)

    monkeypatch.setattr(TimingModel, "warm_data", counting)
    return calls


def _config(share=1.0, checkers="4xA510@2.0", mode=CheckMode.FULL,
            hash_mode=False):
    config = make_config(parse_checkers(checkers), mode, hash_mode=hash_mode)
    return replace(config, llc_share=share)


def _run(name):
    """A fresh program (so no snapshot yet) and its functional run."""
    program = build_program(get_profile(name), seed=SEED)
    assert program.metadata.get("warm_ranges")
    return ParaVerserSystem(_config()).execute(program, BUDGET)


# -- Cache.snapshot / restore --------------------------------------------------

def _cache():
    return Cache(CacheConfig("c", 1024, 2))


def test_restore_reproduces_residency_and_lru_order():
    src = _cache()
    for addr in (0x0, 0x200, 0x0, 0x40):  # the hit makes line 0x200 LRU
        src.access(addr)
    dst = _cache()
    dst.restore(src.snapshot())
    assert dst.snapshot() == src.snapshot()
    # The next miss in set 0 evicts the same victim (0x200) in both.
    for cache in (src, dst):
        cache.access(0x600)
    assert dst.snapshot() == src.snapshot()
    assert (dst.hits, dst.misses, dst.evictions) == (0, 1, 1)


def test_restore_copies_the_snapshot():
    src = _cache()
    src.access(0x40)
    snapshot = src.snapshot()
    kept = copy.deepcopy(snapshot)
    dst = _cache()
    dst.restore(snapshot)
    for addr in range(0, 4096, 64):
        dst.access(addr)
    assert snapshot == kept
    dst.restore(snapshot)
    assert dst.snapshot() == kept


def test_restore_rejects_another_geometry():
    with pytest.raises(ValueError, match="sets"):
        Cache(CacheConfig("c", 2048, 2)).restore(_cache().snapshot())


# -- main_timing ---------------------------------------------------------------

@pytest.mark.parametrize("name", ["gcc", "bwaves"])
@pytest.mark.parametrize("share", [1.0, 0.5])
def test_restored_caches_equal_a_fresh_warm(seen, warm_calls, name, share):
    run = _run(name)
    config = _config(share)
    want = _fresh_warm(config, run.program)
    assert all(sum(counts) for counts, _tags in want)  # every level warmed
    del warm_calls[:]
    first = main_timing(config, run, None, 0.0)
    second = main_timing(config, run, None, 0.0)
    assert len(warm_calls) == 1
    assert [snapshots for snapshots, _ in seen] == [want, want]
    assert all(zeroed for _, zeroed in seen)
    assert first == second


def test_partition_gets_its_own_snapshot(warm_calls):
    run = _run("gcc")
    whole, half = _config(1.0), _config(0.5)
    main_timing(whole, run, None, 0.0)
    main_timing(half, run, None, 0.0)
    main_timing(whole, run, None, 0.0)
    main_timing(half, run, None, 0.0)
    assert len(warm_calls) == 2
    keys = list(run.program._warm_snapshots)
    assert len(keys) == 2
    l3s = {key[2] for key in keys}
    assert len(l3s) == 2  # same L1D/L2, the partition's own L3


def test_simulate_leaves_the_snapshot_unchanged(seen):
    run = _run("bwaves")
    config = _config()
    main_timing(config, run, None, 0.0)
    stored = copy.deepcopy(run.program._warm_snapshots)
    main_timing(config, run, [1000, len(run.columns)], 5.0)
    main_timing(config, run, None, 0.0)
    assert run.program._warm_snapshots == stored
    assert seen[1][0] == seen[2][0] == seen[0][0]


# -- whole runs ------------------------------------------------------------------

RUN_CONFIGS = {
    "full": dict(checkers="4xA510@2.0"),
    "opp-hash": dict(checkers="1xA510@1.0", mode=CheckMode.OPPORTUNISTIC,
                     hash_mode=True),
}


@pytest.mark.parametrize("config_id", sorted(RUN_CONFIGS))
def test_one_run_warms_once_per_geometry(warm_calls, config_id):
    program = build_program(get_profile("gcc"), seed=SEED)
    ParaVerserSystem(_config(**RUN_CONFIGS[config_id])).run(program, BUDGET)
    assert len(warm_calls) == 1
    ParaVerserSystem(_config(0.5, **RUN_CONFIGS[config_id])).run(program,
                                                                 BUDGET)
    assert len(warm_calls) == 2


def _simulated_leaves(result):
    return {key: value for key, value in result.stats.flatten().items()
            if not fnmatch.fnmatchcase(key, "pipeline.*")}


@pytest.mark.parametrize("config_id", sorted(RUN_CONFIGS))
@pytest.mark.parametrize("name", ["gcc", "bwaves"])
def test_run_equals_rewarming_every_pass(monkeypatch, warm_calls, config_id,
                                         name):
    config = _config(**RUN_CONFIGS[config_id])
    restored = ParaVerserSystem(config).run(
        build_program(get_profile(name), seed=SEED), BUDGET)
    assert len(warm_calls) == 1

    passes = []

    def cold(config, run, *args, **kwargs):
        passes.append(run)
        run.program.__dict__.pop("_warm_snapshots", None)
        return main_timing(config, run, *args, **kwargs)

    for module in (timing_mod, graph_mod, report_mod):
        monkeypatch.setattr(module, "main_timing", cold)
    del warm_calls[:]
    rewarmed = ParaVerserSystem(config).run(
        build_program(get_profile(name), seed=SEED), BUDGET)
    # Baseline, gridded baseline, checked pass 1, NoC-adjusted pass.
    assert len(passes) == len(warm_calls) == 4

    assert restored == rewarmed
    assert _simulated_leaves(restored) == _simulated_leaves(rewarmed)
