"""WorkerPool process hygiene: reset must reap, not orphan, workers."""

import os
import threading
import time

from repro.serve.workers import WorkerPool


def _spawn_workers(pool):
    """Force the lazy executor to exist and spin up its processes."""
    executor = pool._ensure()
    # A trivial picklable call makes the executor fork its workers.
    for future in [executor.submit(abs, -i) for i in range(pool.workers)]:
        future.result()
    return list(executor._processes.values())


def test_reset_reaps_worker_processes():
    pool = WorkerPool(workers=2)
    try:
        procs = _spawn_workers(pool)
        assert procs
        pool.reset()
        # Every worker the pool ever started must be dead after reset —
        # the crash-retry loop must not accumulate orphans.
        assert all(not p.is_alive() for p in procs)
        assert all(p.exitcode is not None for p in procs)
        assert pool._executor is None
    finally:
        pool.shutdown()


def test_reset_before_first_use_is_a_no_op():
    pool = WorkerPool(workers=2)
    pool.reset()
    assert pool._executor is None


def test_pool_recreates_after_reset():
    pool = WorkerPool(workers=1)
    try:
        first = _spawn_workers(pool)
        pool.reset()
        second = _spawn_workers(pool)
        assert second  # the next batch transparently got a fresh pool
        assert {p.pid for p in first}.isdisjoint({p.pid for p in second})
    finally:
        pool.shutdown()


def test_reap_timeout_is_bounded():
    assert 0 < WorkerPool.REAP_TIMEOUT_S <= 30


def test_reset_settles_exit_codes_when_the_manager_thread_reaps_first(
        monkeypatch):
    """The old executor's manager thread joins the same workers.  When it
    reaps one first, ``waitpid`` in ``reset`` fails with ECHILD and
    ``multiprocessing`` reads the worker as alive until that thread
    stores the exit code.  A pause between the manager thread's reap and
    that store makes the race happen on every run."""
    pool = WorkerPool(workers=2)
    try:
        procs = _spawn_workers(pool)
        real = os.waitpid

        def slow_after_reap(pid, options):
            got = real(pid, options)
            if got[0] == pid and \
                    threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
            return got

        monkeypatch.setattr(os, "waitpid", slow_after_reap)
        pool.reset()
        assert all(p.exitcode is not None for p in procs)
        assert all(not p.is_alive() for p in procs)
    finally:
        pool.shutdown()
