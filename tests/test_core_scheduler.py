"""Tests for OS-level role scheduling (section IV-A / Fig. 1)."""

import pytest

from repro.control.roles import PoolCore, Role, RoleScheduler
from repro.cpu.config import CoreInstance
from repro.cpu.presets import A510, X2


def pool():
    """A Fig. 1-style mix: 2 big + 4 little cores."""
    cores = [PoolCore(f"big{i}", CoreInstance(X2, 3.0)) for i in range(2)]
    cores += [PoolCore(f"little{i}", CoreInstance(A510, 2.0))
              for i in range(4)]
    return cores


def test_empty_pool_rejected():
    with pytest.raises(ValueError):
        RoleScheduler([])


def test_low_load_all_spares_check():
    scheduler = RoleScheduler(pool(), min_checkers_per_main=4)
    plan = scheduler.plan_epoch(0, demand_cores=1)
    assert len(plan.mains) == 1
    assert len(plan.checkers) == 5
    assert scheduler.coverage_mode_for(plan) == "full"


def test_main_work_gets_fast_cores_first():
    scheduler = RoleScheduler(pool())
    plan = scheduler.plan_epoch(0, demand_cores=2)
    assert set(plan.mains) == {"big0", "big1"}


def test_little_cores_preferred_as_checkers():
    scheduler = RoleScheduler(pool())
    plan = scheduler.plan_epoch(0, demand_cores=1)
    # The spare big core is also a checker, but littles exist in the pool.
    assert any(cid.startswith("little") for cid in plan.checkers)


def test_high_load_disables_checking():
    scheduler = RoleScheduler(pool())
    plan = scheduler.plan_epoch(0, demand_cores=6)
    assert not plan.checking_enabled
    assert scheduler.coverage_mode_for(plan) == "disabled"
    assert len(plan.mains) == 6


def test_medium_load_degrades_to_opportunistic():
    scheduler = RoleScheduler(pool(), min_checkers_per_main=4)
    plan = scheduler.plan_epoch(0, demand_cores=4)
    assert plan.checking_enabled
    assert scheduler.coverage_mode_for(plan) == "opportunistic"


def test_demand_trace_drives_mode_transitions():
    scheduler = RoleScheduler(pool(), min_checkers_per_main=2)
    outcome = scheduler.run([1, 2, 6, 6, 2, 1])
    modes = [scheduler.coverage_mode_for(plan) for plan in outcome.plans]
    assert modes[0] == "full"
    assert modes[2] == "disabled"
    assert modes[-1] == "full"  # checking resumes when load recedes
    assert outcome.checking_availability == pytest.approx(4 / 6)


def test_roles_cover_every_core_every_epoch():
    scheduler = RoleScheduler(pool())
    outcome = scheduler.run([0, 1, 3, 6])
    for plan in outcome.plans:
        assert set(plan.roles) == {core.core_id for core in pool()}


def test_zero_demand_means_no_checking_needed():
    scheduler = RoleScheduler(pool())
    plan = scheduler.plan_epoch(0, demand_cores=0)
    assert plan.mains == []
    assert not plan.checking_enabled


def test_demand_clamped_to_pool_size():
    scheduler = RoleScheduler(pool())
    outcome = scheduler.run([99])
    assert len(outcome.plans[0].mains) == 6


def test_role_history_per_core():
    scheduler = RoleScheduler(pool())
    outcome = scheduler.run([1, 6])
    history = outcome.roles_of("little0")
    assert history[0] is Role.CHECKER
    assert history[1] is Role.MAIN  # repurposed under load (section IV-A)
