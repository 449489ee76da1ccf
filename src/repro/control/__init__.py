"""The adaptive control plane (section I / Fig. 1, section IV-A).

Closed-loop policies that re-decide the fleet's checking arrangement —
coverage mode, checker pool, DVFS point — at epoch boundaries, from the
same deterministic telemetry the stats tree publishes.  The package
splits along the loop:

* :mod:`repro.control.policy` — observation/action types, the
  watermark-threshold and ED2P-budget policies, fleet-scale energy
  accounting, and the :func:`make_controller` spec factory;
* :mod:`repro.control.roles` — the OS core-role scheduler and its
  policy adapter;
* :mod:`repro.control.loop` — the dwell-hysteresis
  :class:`Controller` wrapper and ``control.*``/``power.*`` stats;
* :mod:`repro.control.bench` — the diurnal frontier bench.
"""

from repro.control.loop import (
    Controller,
    budget_overshoot,
    publish_control_stats,
    result_ed2p,
    result_energy_nj,
)
from repro.control.policy import (
    POLICY_KINDS,
    ControlAction,
    ED2PBudgetPolicy,
    EpochObservation,
    Policy,
    StaticPolicy,
    ThresholdPolicy,
    fleet_energy_nj,
    make_controller,
)
from repro.control.roles import (
    EpochPlan,
    PoolCore,
    Role,
    RoleScheduler,
    ScheduleOutcome,
    SchedulerPolicy,
    standard_pool,
)

__all__ = [
    "ControlAction",
    "Controller",
    "ED2PBudgetPolicy",
    "EpochObservation",
    "EpochPlan",
    "POLICY_KINDS",
    "Policy",
    "PoolCore",
    "Role",
    "RoleScheduler",
    "ScheduleOutcome",
    "SchedulerPolicy",
    "StaticPolicy",
    "ThresholdPolicy",
    "budget_overshoot",
    "fleet_energy_nj",
    "make_controller",
    "publish_control_stats",
    "result_ed2p",
    "result_energy_nj",
    "standard_pool",
]
