"""Compare two ``--stats-json`` dumps and flag regressions.

``paraverser run --stats-json`` (and ``paraverser serve --stats-json``)
emit stable trees, so two dumps of the same scenario are directly
comparable.  :func:`diff_stats` walks both trees and classifies every
shared numeric leaf by direction:

* **higher-is-worse** — per-stage wall times (``*.wall_time_ms``),
  stalls (``*.stall_ns``), slowdown, latencies;
* **lower-is-worse** — cache hit rates (derived from sibling
  ``hits``/``misses`` counters), checker occupancy, coverage.

A leaf regresses when it moves in its bad direction by more than the
relative ``threshold``.  Unclassified leaves are reported as
informational only and never regress.
"""

from __future__ import annotations

import fnmatch
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

#: Key suffixes where an increase beyond threshold is a regression.
HIGHER_IS_WORSE = ("wall_time_ms", "stall_ns", "slowdown", "latency_ns",
                   "extra_llc_latency_ns", "lsl_push_latency_ns",
                   "latency_ms.mean", "latency_ms.p50", "latency_ms.p95",
                   "latency_ms.p99", "latency_ms.p999", "latency_ms.max",
                   "stall_fraction", "sdc_events", "max_lag_ms",
                   "mean_detection_days", "checker_lag_ns.mean",
                   # Shard-router health: forwards re-sent to another
                   # shard and shards marked down are failure events.
                   "re_dispatches", "re_dispatched_away", "mark_downs",
                   "unroutable",
                   # Control plane: mode thrashing, energy-budget
                   # excursions, and fleet-scale energy figures must
                   # only ever shrink.
                   "switch_rate", "budget_overshoot", "energy_overhead",
                   "ed2p_j_ms2", "residency.disabled_frac",
                   # Fault campaigns: silent escapes and detection
                   # latency (campaign scenarios) must only shrink.
                   "sdc_escape_rate", "detection_latency_mean",
                   "detection_latency_max", "mean_detection_latency")
#: Key suffixes where a decrease beyond threshold is a regression.
LOWER_IS_WORSE = ("occupancy", "pool_occupancy", "coverage", "hit_rate",
                  "ipc", "detection_rate_all",
                  "detection_rate_effective",
                  # Ring locality: requests landing off their primary
                  # owner lose cache heat.
                  "locality.primary_ratio",
                  # Control plane: time spent at full coverage is the
                  # payoff the controller exists to maximise.
                  "residency.full_frac")


@dataclass(frozen=True)
class DiffEntry:
    """One compared leaf."""

    key: str
    a: float
    b: float
    #: +1: higher is worse, -1: lower is worse, 0: informational.
    direction: int
    regression: bool

    @property
    def rel_change(self) -> float:
        if self.a == 0:
            return math.inf if self.b != 0 else 0.0
        return (self.b - self.a) / abs(self.a)


def load_tree(path: str | Path) -> dict:
    """Load one stats dump written by ``--stats-json``."""
    return json.loads(Path(path).read_text())


def flatten_tree(tree: dict, prefix: str = "") -> dict[str, float]:
    """Dotted-name -> numeric-leaf map; histograms contribute summary
    scalars (``.count``/``.mean``/``.min``/``.max``), buckets are skipped."""
    flat: dict[str, float] = {}
    for name, value in tree.items():
        dotted = f"{prefix}{name}"
        if isinstance(value, dict):
            if "count" in value and "mean" in value:  # histogram summary
                for stat in ("count", "mean", "min", "max"):
                    leaf = value.get(stat)
                    if isinstance(leaf, (int, float)):
                        flat[f"{dotted}.{stat}"] = float(leaf)
            else:
                flat.update(flatten_tree(value, dotted + "."))
        elif isinstance(value, bool):
            flat[dotted] = float(value)
        elif isinstance(value, (int, float)):
            flat[dotted] = float(value)
    return flat


def _derive_hit_rates(flat: dict[str, float]) -> None:
    """Add ``<group>.hit_rate`` wherever hits/misses counters pair up."""
    for key in list(flat):
        if not key.endswith(".hits"):
            continue
        base = key[: -len(".hits")]
        misses = flat.get(f"{base}.misses")
        if misses is None:
            continue
        total = flat[key] + misses
        if total > 0:
            flat[f"{base}.hit_rate"] = flat[key] / total


def classify(key: str) -> int:
    """Direction of one leaf: +1 higher-worse, -1 lower-worse, 0 info."""
    for suffix in HIGHER_IS_WORSE:
        if key.endswith(suffix):
            return 1
    for suffix in LOWER_IS_WORSE:
        if key.endswith(suffix):
            return -1
    return 0


def diff_stats(tree_a: dict, tree_b: dict,
               threshold: float = 0.10,
               ignore: Sequence[str] = ()) -> list[DiffEntry]:
    """Compare two trees; entries for every shared, changed-or-directional
    leaf, regressions first.

    ``ignore`` holds ``fnmatch`` glob patterns over dotted leaf names;
    matching leaves are excluded entirely.  The standard use is
    ``pipeline.*``: stage wall times are host-dependent, so a CI gate
    over simulated stats masks them out.
    """
    flat_a = flatten_tree(tree_a)
    flat_b = flatten_tree(tree_b)
    _derive_hit_rates(flat_a)
    _derive_hit_rates(flat_b)
    entries: list[DiffEntry] = []
    for key in sorted(set(flat_a) & set(flat_b)):
        if any(fnmatch.fnmatchcase(key, pattern) for pattern in ignore):
            continue
        a, b = flat_a[key], flat_b[key]
        direction = classify(key)
        if direction == 0 and a == b:
            continue
        if direction > 0:
            regression = b > a * (1.0 + threshold) \
                if a != 0 else b > threshold
        elif direction < 0:
            regression = b < a * (1.0 - threshold)
        else:
            regression = False
        entries.append(DiffEntry(key=key, a=a, b=b, direction=direction,
                                 regression=regression))
    entries.sort(key=lambda e: (not e.regression, e.key))
    return entries


def render_diff(entries: list[DiffEntry],
                show_all: bool = False) -> str:
    """Human-readable table; regressions always shown, the rest only
    with ``show_all`` (directional leaves are shown when changed)."""
    lines = [f"{'leaf':48s} {'A':>14s} {'B':>14s} {'change':>9s}  flag"]
    for entry in entries:
        changed = entry.a != entry.b
        if not (entry.regression or show_all
                or (entry.direction != 0 and changed)):
            continue
        rel = entry.rel_change
        change = "inf" if math.isinf(rel) else f"{rel * 100:+.1f}%"
        flag = "REGRESSION" if entry.regression else (
            {1: "higher-worse", -1: "lower-worse"}.get(entry.direction, ""))
        lines.append(f"{entry.key:48s} {entry.a:14.6g} {entry.b:14.6g} "
                     f"{change:>9s}  {flag}")
    regressions = sum(e.regression for e in entries)
    lines.append(f"{regressions} regression(s) across "
                 f"{len(entries)} compared leaves")
    return "\n".join(lines)
