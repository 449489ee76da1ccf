"""Spans and counts recorded around calls into the program's layers.

The traced run wraps public functions of the program from the outside
(module attributes and class methods are swapped for timing wrappers and
restored afterwards); no program file changes.  Spans are kept in memory
and written out once, when the run ends.  Pool workers forked while the
wrappers are installed inherit them; each worker keeps its own spans and
writes them to ``spans-<pid>.json`` when it exits, and the parent merges
those files into its own record.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None = None
    rid: str = ""
    pid: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and count recorder with call-boundary wrappers."""

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = dump_dir
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: Open synchronous spans (indices into ``spans``), innermost last.
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        #: Free-form state wrappers share (e.g. the trial being replayed).
        self.state: dict = {}

    # -- recording ---------------------------------------------------------

    def _own_process(self) -> None:
        """A forked worker starts an empty record, dumped at its exit."""
        pid = os.getpid()
        if pid == self._pid:
            return
        self._pid = pid
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self.state = {}
        mp_util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.to_json()))

    def open(self, name: str, rid: str = "", **attrs) -> int:
        self._own_process()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, rid,
                               os.getpid(), attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - wrapper misuse
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    def record(self, name: str, start: float, end: float, rid: str = "",
               **attrs) -> None:
        """A span measured elsewhere (e.g. one request in an event loop)."""
        self._own_process()
        self.spans.append(Span(name, start, end, None, rid, os.getpid(),
                               attrs))

    def count(self, name: str, amount: float = 1) -> None:
        self._own_process()
        self.counts[name] += amount

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn: Callable, name: str,
             after: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``after(span, result, args, kwargs)``
        may add attributes and counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if after is not None:
                after(span, result, args, kwargs)
            return result

        return traced

    def patch_function(self, fn: Callable, name: str,
                       after: Callable | None = None) -> None:
        """Wrap ``fn`` wherever a loaded ``repro`` module binds it."""
        wrapper = self.wrap(fn, name, after)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls: type, attr: str, name: str,
                     after: Callable | None = None) -> None:
        self.patch_attr(cls, attr,
                        self.wrap(cls.__dict__[attr], name, after))

    def patch_attr(self, owner: object, attr: str, replacement) -> None:
        """Swap one attribute until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------------

    def merge_worker_dumps(self) -> None:
        """Fold worker span files into this record."""
        for path in sorted(self.dump_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            offset = len(self.spans)
            for raw in payload["spans"]:
                parent = raw["parent"]
                self.spans.append(Span(
                    raw["name"], raw["start"], raw["end"],
                    None if parent is None else parent + offset,
                    raw["rid"], raw["pid"], raw["attrs"]))
            for key, value in payload["counts"].items():
                self.counts[key] += value
            path.unlink()
        if self.dump_dir.is_dir():
            self.dump_dir.rmdir()

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def busy(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for child in sorted(children[index], key=lambda s: s.start):
                start = max(child.start, cursor)
                if child.end > start:
                    covered += child.end - start
                    cursor = child.end
            totals[span.name] += span.duration - covered
        return dict(totals)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "rid": s.rid, "pid": s.pid,
                 "attrs": s.attrs}
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json()))
