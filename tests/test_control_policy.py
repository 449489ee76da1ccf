"""Control policies: watermarks, ladders, specs (repro.control.policy)."""

import pytest

from repro.control import (
    ControlAction,
    Controller,
    ED2PBudgetPolicy,
    EpochObservation,
    SchedulerPolicy,
    StaticPolicy,
    ThresholdPolicy,
    fleet_energy_nj,
    make_controller,
)
from repro.power.ed2p import A510_SWEEP_GHZ


def obs(**overrides) -> EpochObservation:
    base = dict(epoch=1, t_s=0.1, epoch_len_s=0.1, servers=4,
                offered=100, completed=100, p50_ms=1.0, p99_ms=2.0,
                utilization=0.5, stall_fraction=0.0, coverage=1.0,
                lag_max_frac=0.2, busy_s=0.2, checked_work_s=0.2,
                mode="full", checkers="4xA510@2.0")
    base.update(overrides)
    return EpochObservation(**base)


class TestStatic:
    def test_pins_the_operating_point(self):
        policy = StaticPolicy(mode="opportunistic", checkers="2xA510@2.0")
        action = policy.on_epoch(obs())
        assert action == ControlAction(mode="opportunistic",
                                       checkers="2xA510@2.0")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            StaticPolicy(mode="turbo")


class TestThreshold:
    def test_degrades_on_stall_not_p99(self):
        policy = ThresholdPolicy()
        # High p99 alone (pure overload below the overload watermark's
        # trigger semantics) must not shed coverage...
        assert policy.on_epoch(obs(p99_ms=20.0)).mode == "full"
        # ...but checking-caused stalls must.
        hot = policy.on_epoch(obs(stall_fraction=0.10))
        assert hot.mode == "opportunistic"
        assert hot.info["hot"] is True

    def test_disabled_only_past_overload_watermark(self):
        policy = ThresholdPolicy()
        policy.on_epoch(obs(stall_fraction=0.10))  # -> opportunistic
        stay = policy.on_epoch(obs(mode="opportunistic",
                                   stall_fraction=0.10, p99_ms=10.0))
        assert stay.mode == "opportunistic"
        shed = policy.on_epoch(obs(mode="opportunistic", p99_ms=50.0))
        assert shed.mode == "disabled"
        assert shed.info["overload"] is True
        # The pool spec survives disabled so the backlog keeps draining.
        assert shed.checkers == policy.checkers

    def test_restore_requires_lag_headroom(self):
        policy = ThresholdPolicy()
        policy.on_epoch(obs(stall_fraction=0.10))  # -> opportunistic
        # Quiet stalls and tail, but the LSL is still near the bound:
        held = policy.on_epoch(obs(mode="opportunistic",
                                   lag_max_frac=0.99))
        assert held.mode == "opportunistic"
        restored = policy.on_epoch(obs(mode="opportunistic",
                                       lag_max_frac=0.2))
        assert restored.mode == "full"
        assert restored.info["cool"] is True

    def test_band_between_watermarks_never_switches(self):
        policy = ThresholdPolicy(stall_high=0.05, stall_low=0.01)
        for _ in range(20):
            action = policy.on_epoch(obs(stall_fraction=0.03,
                                         p99_ms=10.0))
            assert action.mode == "full"

    def test_watermark_ordering_enforced(self):
        with pytest.raises(ValueError, match="low < high"):
            ThresholdPolicy(stall_high=0.01, stall_low=0.05)
        with pytest.raises(ValueError, match="low < high"):
            ThresholdPolicy(p99_high_ms=1.0, p99_low_ms=5.0)


class TestED2PBudget:
    def test_ladder_walks_dvfs_before_modes(self):
        policy = ED2PBudgetPolicy(budget=0.40, pool=4)
        modes = [mode for mode, _ in policy.ladder]
        assert modes == ["full"] * len(A510_SWEEP_GHZ) \
            + ["opportunistic", "disabled"]
        assert policy.ladder[0][1] == "4xA510@2"
        assert policy.ladder[len(A510_SWEEP_GHZ) - 1][1] == "4xA510@1.4"
        assert policy.ladder[-1] == ("disabled", "none")

    def test_over_budget_steps_down_and_reports_overshoot(self):
        # A tiny budget forces a step down on the very first epoch.
        policy = ED2PBudgetPolicy(budget=0.01)
        action = policy.on_epoch(obs())
        assert action.info["step"] == 1
        assert action.info["overshoot"] > 0.0
        # Disabling the checkers stops the cumulative overhead growing,
        # and the margin band eventually walks the ladder back up.
        for _ in range(60):
            action = policy.on_epoch(obs(mode=action.mode,
                                         checkers=action.checkers,
                                         checked_work_s=0.0))
        assert action.info["step"] < len(policy.ladder) - 1

    def test_validation(self):
        with pytest.raises(ValueError, match="budget"):
            ED2PBudgetPolicy(budget=0.0)
        with pytest.raises(ValueError, match="low_margin"):
            ED2PBudgetPolicy(low_margin=1.5)


class TestSchedulerPolicy:
    def test_quiet_fleet_gets_full_coverage(self):
        policy = SchedulerPolicy()
        action = policy.on_epoch(obs(utilization=0.1))
        assert action.mode == "full"
        assert action.checkers.endswith("xA510@2")

    def test_saturated_fleet_disables(self):
        policy = SchedulerPolicy(littles=2)
        action = policy.on_epoch(obs(utilization=1.0))
        assert action.mode == "disabled"
        assert action.checkers == "none"


class TestEnergy:
    def test_checker_energy_scales_with_checked_work(self):
        main_a, checker_a = fleet_energy_nj(1.0, 0.5, "4xA510@2.0")
        main_b, checker_b = fleet_energy_nj(1.0, 1.0, "4xA510@2.0")
        assert main_a == main_b
        assert 0 < checker_a < checker_b

    def test_no_pool_means_no_checker_energy(self):
        main, checker = fleet_energy_nj(1.0, 0.5, "none")
        assert main > 0 and checker == 0.0

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="bad checker spec"):
            fleet_energy_nj(1.0, 0.5, "A510")

    def test_unknown_core_class_is_a_one_line_value_error(self):
        with pytest.raises(ValueError, match="unknown core class 'M1'") \
                as excinfo:
            fleet_energy_nj(1.0, 0.5, "2xM1@3.0")
        assert not isinstance(excinfo.value, KeyError)
        assert "\n" not in str(excinfo.value)

    def test_slower_pool_burns_less_per_instruction(self):
        _, fast = fleet_energy_nj(1.0, 0.5, "4xA510@2.0")
        _, slow = fleet_energy_nj(1.0, 0.5, "4xA510@1.4")
        assert slow < fast  # lower frequency -> lower voltage -> less E


class TestMakeController:
    def test_builds_dwell_wrapped_policies(self):
        controller = make_controller({"kind": "threshold", "dwell": 3,
                                      "stall_high": 0.2})
        assert isinstance(controller, Controller)
        assert controller.dwell_epochs == 3
        assert isinstance(controller.policy, ThresholdPolicy)
        assert controller.policy.stall_high == 0.2

    def test_freqs_ghz_tuple_restored_from_json_list(self):
        controller = make_controller({"kind": "ed2p_budget",
                                      "freqs_ghz": [2.0, 1.6]})
        assert isinstance(controller.policy, ED2PBudgetPolicy)
        assert len(controller.policy.ladder) == 4  # 2 DVFS + opp + off

    def test_scheduler_kind_registered(self):
        controller = make_controller({"kind": "scheduler", "littles": 4})
        assert isinstance(controller.policy, SchedulerPolicy)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown controller kind"):
            make_controller({"kind": "pid"})
