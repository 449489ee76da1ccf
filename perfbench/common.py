"""Shared plumbing for the benchmark: host facts, statistics, digests.

Everything here is independent of the program under test except
:func:`program_env`, which builds the environment every child process of
the benchmark starts from.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for span dumps, trace-cache dirs and campaign shards.
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Environment variables read by the program; the benchmark unsets them.
PROGRAM_ENV_PREFIX = "REPRO_"


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result (exit code 2)."""


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def scrub_program_env() -> list[str]:
    """Unset every ``REPRO_*`` variable; returns the names that were set."""
    names = sorted(k for k in os.environ if k.startswith(PROGRAM_ENV_PREFIX))
    for name in names:
        del os.environ[name]
    return names


def program_env() -> dict[str, str]:
    """Environment for child processes: ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def check_parallelism(**settings: int) -> None:
    """Reject any jobs/workers/connections setting above ``nproc``."""
    cpus = nproc()
    for name, value in settings.items():
        if value > cpus:
            raise BenchError(
                f"setting {name}={value} exceeds nproc={cpus}; refusing "
                "to measure an oversubscribed host")


def fingerprint(scrubbed: list[str]) -> dict:
    """Host facts recorded next to every result."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
        "repro_env_unset": scrubbed,
    }


def import_seconds(modules: list[str]) -> float:
    """Wall time of a fresh interpreter importing ``modules``."""
    code = "; ".join(f"import {m}" for m in modules)
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=program_env(),
                   cwd=ROOT, check=True)
    return time.perf_counter() - started


def process_tree(root: int) -> list[int]:
    """``root`` and every live process descended from it."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            parents[int(entry)] = int(fields[1])
    tree = [root]
    for pid in tree:
        tree.extend(child for child, parent in parents.items()
                    if parent == pid)
    return tree


def rss_kib(pid: int) -> int:
    """Resident set size of one process (0 once it has gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


#: Held by a calibration sample and by a :class:`PeakRss` scan, so the
#: scan thread never runs inside a timed kernel (it inflated the kernel
#: by several percent, and the workload far less).
QUIET = threading.Lock()


class PeakRss:
    """Peak summed RSS of this process and its live descendants.

    A thread samples the process tree every ``INTERVAL`` seconds while
    the context is open; :attr:`peak_mb` is the largest sum seen.
    Processes running at the same time count together; pages a forked
    child shares with its parent count once in each.  Processes that
    ended before the context opened (set-up's import timers) do not
    count.
    """

    INTERVAL = 0.25

    def __init__(self) -> None:
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        root = os.getpid()
        while True:
            with QUIET:
                total = sum(rss_kib(pid) for pid in process_tree(root))
            self.peak_mb = max(self.peak_mb, total / 1024.0)
            if self._stop.wait(self.INTERVAL):
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def rng_for(workload: str, seed: int, stream: str = "") -> random.Random:
    """The workload's input stream for ``seed`` (string seeds are stable)."""
    return random.Random(f"perfbench:{workload}:{seed}:{stream}")


def draw(rng: random.Random, pool: list, count: int) -> list:
    """``count`` pool entries, without repeats until the pool is used up."""
    out: list = []
    while len(out) < count:
        batch = list(pool)
        rng.shuffle(batch)
        out.extend(batch)
    return out[:count]


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty list."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def digest(payload) -> str:
    """Stable short digest of a JSON-able value (floats by ``repr``)."""
    blob = json.dumps(payload, sort_keys=True, default=repr,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def load_reference() -> dict:
    """The committed reference digests (see ``make_reference.py``)."""
    return json.loads(REFERENCE.read_text())


#: Median time of :func:`calibration_kernel` on the reference host, a
#: 2-CPU x86_64 VM running Python 3.11 while otherwise idle.
CAL_REFERENCE_MS = 10.5


def calibration_kernel() -> int:
    """A fixed pure-Python loop; its time tracks the host's speed."""
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


class HostSpeed:
    """Samples the calibration kernel between operations.

    The benchmark's hosts change speed by up to 2x within minutes (other
    tenants), which no amount of work in one run averages out.  Timing
    metrics are therefore reported in reference-host units: each raw
    time is divided by :meth:`factor`, the mean kernel time of this
    run over :data:`CAL_REFERENCE_MS`.  A slower program moves the
    metric; a slower host moves the kernel as well and cancels out.
    The mean, not the median: the host flips between a fast and a slow
    state, a run's time grows with the share of it spent slow, and the
    mean tracks that share where the median jumps between the states.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            with QUIET:
                started = time.perf_counter()
                calibration_kernel()
                self.samples.append((time.perf_counter() - started) * 1e3)

    def factor(self) -> float:
        return sum(self.samples) / len(self.samples) / CAL_REFERENCE_MS


class Checker:
    """Counts operations and compares their outputs against references."""

    def __init__(self, table: dict[str, str]) -> None:
        self.table = table
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(why)

    def expect(self, key: str, value_digest: str) -> bool:
        """One checked output; a mismatch or unknown key is a failure."""
        expected = self.table.get(key)
        if expected == value_digest:
            return True
        self.fail(f"{key}: got {value_digest}, reference {expected}")
        return False
