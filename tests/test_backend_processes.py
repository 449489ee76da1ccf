"""Spawned serve backends stop with their whole process group.

A ``paraverser serve`` shard forks pool workers.  Stopping only the
shard process left those workers running with parent pid 1, and a
SIGKILLed shard always left them behind.  Each spawned shard leads its
own process group, and :meth:`BackendManager.stop_processes` signals
the group, so nothing of it survives.
"""

import os
import signal
import time

import pytest

from repro.router.backends import BackendManager

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads process groups from /proc")

#: ``--prime`` forks the pool worker before the shard reports its port.
PRIME = ["--prime", "exchange2", "-n", "2000"]


def _live_members(group: int) -> list[int]:
    """Pids in process group ``group`` that have not exited."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        state, pgrp = fields[0], int(fields[2])
        if pgrp == group and state not in ("Z", "X"):
            members.append(int(entry))
    return members


def _wait_until_gone(group: int, timeout_s: float = 5.0) -> list[int]:
    """Signal delivery is asynchronous; give the kernel a moment."""
    deadline = time.monotonic() + timeout_s
    while (live := _live_members(group)) and time.monotonic() < deadline:
        time.sleep(0.02)
    return live


def _spawn_primed_shard(tmp_path):
    manager = BackendManager()
    (backend,) = manager.spawn_local(1, workers=1, trace_dir=str(tmp_path),
                                     extra_args=PRIME)
    return manager, backend.process.pid


def test_stop_processes_leaves_no_group_member_alive(tmp_path):
    manager, group = _spawn_primed_shard(tmp_path)
    try:
        assert os.getpgid(group) == group  # the shard leads its group
        assert len(_live_members(group)) >= 2  # shard + pool worker
    finally:
        manager.stop_processes()
    assert _wait_until_gone(group) == []


def test_stop_processes_reaps_workers_of_a_killed_shard(tmp_path):
    manager, group = _spawn_primed_shard(tmp_path)
    try:
        os.kill(group, signal.SIGKILL)  # the chaos case: parent only
        manager.backends["shard0"].process.wait(timeout=10)
        assert _live_members(group)  # its pool worker is orphaned
    finally:
        manager.stop_processes()
    assert _wait_until_gone(group) == []
