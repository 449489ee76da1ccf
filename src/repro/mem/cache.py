"""Set-associative cache model with LRU replacement.

Used trace-driven by the timing models: the cache tracks which lines are
resident and reports hits/misses; latency accounting lives in
:mod:`repro.mem.hierarchy`.  The same structure is repurposed by the
Load-Store Log Cache (:mod:`repro.core.lsl`), which linearly indexes the
data array instead of tag-matching it — exactly the paper's Fig. 3 trick.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64
    hit_latency: int = 1  # cycles, in the owning clock domain
    mshrs: int = 8

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets <= 0:
            raise ValueError(f"{self.name}: cache too small for geometry")
        return sets

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


class Cache:
    """A set-associative LRU cache.

    Each set is an ordered list of tags (most recently used last).  The model
    tracks hit/miss/eviction statistics; it stores no data, because the
    functional layer owns correctness and the timing layer only needs
    residency.
    """

    __slots__ = ("config", "_sets", "_set_mask", "_line_shift", "_ways",
                 "hits", "misses", "evictions")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        num_sets = config.num_sets
        if num_sets & (num_sets - 1):
            raise ValueError(f"{config.name}: set count {num_sets} not a power of two")
        self._sets: list[list[int]] = [[] for _ in range(num_sets)]
        self._set_mask = num_sets - 1
        self._line_shift = config.line_bytes.bit_length() - 1
        self._ways = config.ways
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _index(self, addr: int) -> tuple[int, int]:
        line = addr >> self._line_shift
        return line & self._set_mask, line

    def access(self, addr: int) -> bool:
        """Access ``addr``; return True on hit.  Misses allocate the line."""
        tag = addr >> self._line_shift
        ways = self._sets[tag & self._set_mask]
        if tag in ways:
            # MRU hit on the MRU line is an LRU no-op — skip the reorder.
            if ways[-1] != tag:
                ways.remove(tag)
                ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        ways.append(tag)
        if len(ways) > self._ways:
            ways.pop(0)
            self.evictions += 1
        return False

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU state or statistics."""
        set_idx, tag = self._index(addr)
        return tag in self._sets[set_idx]

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr`` if present; return whether it was."""
        set_idx, tag = self._index(addr)
        ways = self._sets[set_idx]
        if tag in ways:
            ways.remove(tag)
            return True
        return False

    def snapshot(self) -> tuple[array, array]:
        """Compact copy of the resident lines: per-set tag counts plus
        every set's tags, LRU first, in one flat array."""
        return (array("H", map(len, self._sets)),
                array("q", chain.from_iterable(self._sets)))

    def restore(self, snapshot: tuple[array, array]) -> None:
        """Make the resident lines and their LRU order equal ``snapshot``.

        Statistics are left alone, and the snapshot is copied, so it can
        be restored again after this cache has been used.
        """
        counts, tags = snapshot
        if len(counts) != len(self._sets):
            raise ValueError(
                f"{self.config.name}: snapshot has {len(counts)} sets, "
                f"cache has {len(self._sets)}")
        flat = tags.tolist()
        sets = self._sets
        start = 0
        for idx, count in enumerate(counts):
            end = start + count
            sets[idx] = flat[start:end]
            start = end

    def flush(self) -> None:
        """Invalidate every line (e.g. when a cache becomes an LSL$)."""
        for ways in self._sets:
            ways.clear()

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = 0

    def export_stats(self, group) -> None:
        """Publish hit/miss/eviction counters into an obs StatGroup."""
        group.count("hits", self.hits)
        group.count("misses", self.misses)
        group.count("evictions", self.evictions)
        group.scalar("miss_rate", self.miss_rate)
