"""Persistent, content-addressed cache of functional runs.

A functional run is fully determined by (workload profile, RNG seed,
instruction budget) plus the code that interprets them, so repeated
bench invocations can skip functional execution entirely by persisting
the run with :mod:`repro.cpu.traceio` and keying it on those inputs.

The key also folds in every version that could silently change the
trace semantics: the cache's own schema version, the ``traceio``
*semantics* version, and a fingerprint of the ISA opcode set.  Bumping
any of them invalidates old entries without needing a manual wipe —
stale files are simply misses (and corrupt ones are deleted on sight).

Entries are zlib-compressed binary containers (``<key>.pvtc``); the
first byte tells them from a raw container (``0x78`` zlib, ``P`` raw).
Files of any other name — such as ``<key>.json`` entries of the retired
JSON format — are never read, so their key is simply a miss.

Enable it via ``REPRO_TRACE_CACHE=/path/to/dir`` (unset, empty or ``0``
disables caching), or construct a :class:`TraceCache` explicitly.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.cpu import traceio
from repro.cpu.functional import RunResult
from repro.isa.instructions import Opcode

logger = logging.getLogger("repro.cpu.tracecache")

CACHE_VERSION = 1

#: Suffix of cache entries (zlib-wrapped binary container).
ENTRY_SUFFIX = ".pvtc"

#: zlib level for new entries: trace columns are byte-repetitive, so
#: the fastest setting already shrinks them severalfold; higher levels
#: only add CPU time on the put path.
COMPRESSION_LEVEL = 1

_ZLIB_FIRST_BYTE = 0x78


def _isa_fingerprint() -> str:
    """Hash of the opcode set: any ISA change invalidates cached traces."""
    blob = ",".join(op.value for op in Opcode)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def cache_key(profile: str, seed: int, max_instructions: int) -> str:
    """Content address for one functional run."""
    payload = json.dumps(
        {
            "cache_version": CACHE_VERSION,
            "trace_format": traceio.TRACE_SEMANTICS_VERSION,
            "isa": _isa_fingerprint(),
            "profile": profile,
            "seed": seed,
            "max_instructions": max_instructions,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _decode_entry(data: bytes) -> RunResult:
    """Decode one cache file, compressed or raw."""
    if data[:1] == bytes([_ZLIB_FIRST_BYTE]):
        data = zlib.decompress(data)
    return traceio.run_from_bytes(data)


@dataclass
class TraceCacheStats:
    """Hit/miss and traffic counters for one :class:`TraceCache`."""

    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def export_stats(self, group) -> None:
        """Publish the counters into an obs StatGroup."""
        group.count("hits", self.hits)
        group.count("misses", self.misses)
        group.count("bytes_read", self.bytes_read)
        group.count("bytes_written", self.bytes_written)
        group.scalar("hit_rate", self.hit_rate)


class TraceCache:
    """On-disk store of serialized functional runs."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.stats = TraceCacheStats()

    def path_for(self, profile: str, seed: int,
                 max_instructions: int) -> Path:
        key = cache_key(profile, seed, max_instructions)
        return self.directory / f"{key}{ENTRY_SUFFIX}"

    def get(self, profile: str, seed: int,
            max_instructions: int) -> RunResult | None:
        """Load a cached run, or None on miss.

        Unreadable or stale-format files count as misses and are removed
        so they cannot shadow a fresh entry forever.
        """
        path = self.path_for(profile, seed, max_instructions)
        if not path.is_file():
            self.stats.misses += 1
            return None
        try:
            data = path.read_bytes()
            run = _decode_entry(data)
        except (ValueError, KeyError, TypeError, IndexError, EOFError,
                OSError, zlib.error) as exc:
            # E.g. a publisher killed mid-os.replace on a non-atomic
            # filesystem leaves a truncated file; treat it as a miss.
            logger.warning(
                "trace cache: dropping corrupt entry %s (%s: %s)",
                path, type(exc).__name__, exc)
            path.unlink(missing_ok=True)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(data)
        return run

    def put(self, profile: str, seed: int, max_instructions: int,
            run: RunResult) -> None:
        """Persist a run atomically (unique temp file + ``os.replace``).

        The temp name must be unique *per writer*, not per process: the
        serving layer runs concurrent writers inside one process (pool
        tasks, threads), and a pid-derived name would let two of them
        interleave writes to the same temp file and publish a torn
        entry.  ``mkstemp`` guarantees uniqueness; ``os.replace`` makes
        publication atomic, so readers only ever observe complete
        entries (last writer wins — all writers of a key serialize the
        same bytes).
        """
        path = self.path_for(profile, seed, max_instructions)
        self.directory.mkdir(parents=True, exist_ok=True)
        blob = zlib.compress(traceio.run_to_bytes(run), COMPRESSION_LEVEL)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, path)
            self.stats.bytes_written += len(blob)
        except BaseException:
            # Never leave half-written temp files shadowing the cache.
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            raise

    # -- maintenance (the ``paraverser cache`` subcommand) ------------------

    def entries(self) -> list[Path]:
        """Every cache entry on disk."""
        if not self.directory.is_dir():
            return []
        return sorted(
            p for p in self.directory.iterdir()
            if p.suffix == ENTRY_SUFFIX and not p.name.startswith(".")
        )

    def info(self) -> dict:
        """Shape of the on-disk cache: entry count and byte total."""
        entries = self.entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "total_bytes": sum(path.stat().st_size for path in entries),
        }

    def purge(self) -> int:
        """Delete every entry; returns how many files were removed."""
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed


def env_trace_cache() -> TraceCache | None:
    """REPRO_TRACE_CACHE: cache directory, or unset/empty/``0`` to disable."""
    raw = os.environ.get("REPRO_TRACE_CACHE")
    if not raw or raw == "0":
        return None
    return TraceCache(raw)
