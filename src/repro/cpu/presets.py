"""Table I core and memory presets.

Three core classes, matching the paper's evaluation:

* ``X2`` — the big out-of-order main core (Arm Cortex-X2-like, 5-wide,
  3 GHz in main mode, down-clockable as a checker);
* ``A510`` — the little in-order core (3-wide, up to 2 GHz);
* ``A35`` — the dedicated scalar in-order checker used to model the prior
  works DSN18 (12 checkers) and ParaDox (16 checkers).

Latency values follow the Arm software-optimisation guides the paper cites:
in particular the A510's up-to-22-cycle floating-point divide, which is the
mechanism behind bwaves' behaviour in Figs. 6-8.
"""

from __future__ import annotations

import argparse
import re

from repro.cpu.config import CoreConfig, CoreInstance, CoreKind, FUConfig
from repro.isa.instructions import FUKind
from repro.mem.cache import CacheConfig
from repro.mem.dram import DramConfig
from repro.mem.hierarchy import HierarchyConfig

#: Shared last-level cache (Table I "System").
L3_CONFIG = CacheConfig("l3", size_bytes=8 * 1024 * 1024, ways=8,
                        hit_latency=25, mshrs=48)

DRAM_CONFIG = DramConfig()


def big_hierarchy() -> HierarchyConfig:
    """X2 cache hierarchy (Table I, big cores)."""
    return HierarchyConfig(
        l1i=CacheConfig("l1i", 64 * 1024, 4, hit_latency=2, mshrs=16),
        l1d=CacheConfig("l1d", 64 * 1024, 4, hit_latency=4, mshrs=16),
        l2=CacheConfig("l2", 1024 * 1024, 8, hit_latency=9, mshrs=32),
        l3=L3_CONFIG,
        dram=DRAM_CONFIG,
    )


def little_hierarchy() -> HierarchyConfig:
    """A510 cache hierarchy (Table I, little cores)."""
    return HierarchyConfig(
        l1i=CacheConfig("l1i", 32 * 1024, 4, hit_latency=1, mshrs=12),
        l1d=CacheConfig("l1d", 32 * 1024, 4, hit_latency=1, mshrs=12),
        l2=CacheConfig("l2", 256 * 1024, 8, hit_latency=9, mshrs=16),
        l3=L3_CONFIG,
        dram=DRAM_CONFIG,
    )


def tiny_hierarchy() -> HierarchyConfig:
    """Dedicated-checker hierarchy: a small icache, no useful dcache.

    Prior works' dedicated checkers have no data caches (section III-B);
    loads are always served from the (dedicated SRAM) load-store log.
    """
    return HierarchyConfig(
        l1i=CacheConfig("l1i", 16 * 1024, 2, hit_latency=1, mshrs=4),
        l1d=CacheConfig("l1d", 4 * 1024, 2, hit_latency=1, mshrs=2),
        l2=CacheConfig("l2", 64 * 1024, 4, hit_latency=9, mshrs=4),
        l3=L3_CONFIG,
        dram=DRAM_CONFIG,
    )


X2 = CoreConfig(
    name="X2",
    kind=CoreKind.OUT_OF_ORDER,
    width=5,
    commit_width=5,
    rob_size=288,
    lq_size=85,
    sq_size=90,
    fus={
        FUKind.BRANCH: FUConfig(units=2, latency=1),
        # 2 simple-int pipes plus the 2 complex-int pipes' simple-op paths.
        FUKind.INT_ALU: FUConfig(units=4, latency=1),
        FUKind.INT_MUL: FUConfig(units=2, latency=3),
        FUKind.INT_DIV: FUConfig(units=1, latency=12, interval=12),
        FUKind.FP: FUConfig(units=4, latency=3),
        FUKind.FP_DIV: FUConfig(units=2, latency=13, interval=11),
        FUKind.LOAD: FUConfig(units=2, latency=1),
        FUKind.STORE: FUConfig(units=1, latency=1),
    },
    hierarchy=big_hierarchy(),
    predictor_kib=64,
    mispredict_penalty=12,
    max_freq_ghz=3.0,
    min_freq_ghz=1.0,
    voltage_max=1.0,
    voltage_min=0.65,
    epi_scale=1.0,
    static_scale=1.0,
    area_mm2=2.43,
)

A510 = CoreConfig(
    name="A510",
    kind=CoreKind.IN_ORDER,
    width=3,
    commit_width=3,
    rob_size=16,  # 16-entry LSQ bounds the in-order window
    lq_size=16,
    sq_size=16,
    fus={
        FUKind.BRANCH: FUConfig(units=1, latency=1),
        FUKind.INT_ALU: FUConfig(units=3, latency=1),
        FUKind.INT_MUL: FUConfig(units=1, latency=3),
        FUKind.INT_DIV: FUConfig(units=1, latency=12, interval=12),
        FUKind.FP: FUConfig(units=2, latency=4),
        FUKind.FP_DIV: FUConfig(units=1, latency=22, interval=20),
        FUKind.LOAD: FUConfig(units=2, latency=1),
        FUKind.STORE: FUConfig(units=1, latency=1),
    },
    hierarchy=little_hierarchy(),
    predictor_kib=8,
    mispredict_penalty=8,
    max_freq_ghz=2.0,
    min_freq_ghz=0.5,
    voltage_max=0.90,
    voltage_min=0.55,
    epi_scale=0.66,
    static_scale=0.18,
    area_mm2=0.44,
)

A35 = CoreConfig(
    name="A35",
    kind=CoreKind.IN_ORDER,
    width=1,
    commit_width=1,
    rob_size=8,
    lq_size=8,
    sq_size=8,
    fus={
        FUKind.BRANCH: FUConfig(units=1, latency=1),
        FUKind.INT_ALU: FUConfig(units=1, latency=1),
        FUKind.INT_MUL: FUConfig(units=1, latency=4),
        FUKind.INT_DIV: FUConfig(units=1, latency=18, interval=18),
        FUKind.FP: FUConfig(units=1, latency=5),
        FUKind.FP_DIV: FUConfig(units=1, latency=22, interval=22),
        FUKind.LOAD: FUConfig(units=1, latency=1),
        FUKind.STORE: FUConfig(units=1, latency=1),
    },
    hierarchy=tiny_hierarchy(),
    predictor_kib=2,
    mispredict_penalty=6,
    max_freq_ghz=2.0,
    min_freq_ghz=0.5,
    voltage_max=0.85,
    voltage_min=0.55,
    epi_scale=0.35,
    static_scale=0.10,
    area_mm2=0.84 / 16,  # paper: 16 extrapolated A35s ~= 0.84 mm^2
)

CORE_CLASSES = {"X2": X2, "A510": A510, "A35": A35}

_CHECKER_SPEC = re.compile(r"^(\d+)x([A-Za-z0-9]+)@([\d.]+)$")

#: Largest checker pool a spec may ask for.  Specs arrive over the wire
#: and are parsed at the front door, so the count is bounded before a
#: list of that many cores is built.
MAX_CHECKERS = 1024


class CheckerSpecError(argparse.ArgumentTypeError, ValueError):
    """A malformed checker-pool spec.

    A :class:`ValueError` to library callers; also an
    :class:`argparse.ArgumentTypeError`, so ``type=parse_checkers``
    options print the message as-is.
    """


def parse_checker_groups(spec: str) -> list[tuple[int, CoreConfig, float]]:
    """Parse ``"4xA510@2.0,1xX2@3.0"`` into ``(count, class, GHz)`` groups.

    The one parser of the checker-pool syntax: :func:`parse_checkers`
    expands the groups into core instances, and the fleet and control
    models price them per group.  Callers that accept ``"none"`` handle
    it before calling.
    """
    groups: list[tuple[int, CoreConfig, float]] = []
    for part in spec.split(","):
        match = _CHECKER_SPEC.match(part.strip())
        if not match:
            raise CheckerSpecError(
                f"bad checker spec {part!r}; expected e.g. 4xA510@2.0"
            )
        count, name, freq = match.groups()
        config = CORE_CLASSES.get(name)
        if config is None:
            raise CheckerSpecError(
                f"unknown core class {name!r}; known: {sorted(CORE_CLASSES)}"
            )
        groups.append((int(count), config, float(freq)))
    return groups


def parse_checkers(spec: str) -> list[CoreInstance]:
    """Parse ``"4xA510@2.0,1xX2@3.0"`` into core instances."""
    instances: list[CoreInstance] = []
    for count, config, freq in parse_checker_groups(spec):
        if len(instances) + count > MAX_CHECKERS:
            raise CheckerSpecError(
                f"checker pool {spec!r} exceeds {MAX_CHECKERS} cores")
        instances.extend([CoreInstance(config, freq)] * count)
    if not instances:
        raise CheckerSpecError("empty checker specification")
    return instances
