"""OS-level core-role scheduling under varying load (section IV-A).

The operating system decides which cores run workloads and which act as
checkers, re-deciding at checkpoint boundaries (checkpoints are bounded,
so there is no starvation).  The paper's operational claims:

* preference for checker duty goes to idle cores, and among those to
  lower-performance cores;
* under high system load, checking is automatically scaled down (to
  opportunistic coverage) or disabled entirely, so fault detection never
  steals throughput the datacenter needs (section I / Fig. 1);
* when load recedes, checking resumes.

:class:`RoleScheduler` simulates that control loop over a demand trace,
and :class:`SchedulerPolicy` adapts it to the fleet control plane: each
epoch's observed utilisation becomes the demand the scheduler plans
against, and the plan's spare-core arithmetic becomes the next epoch's
(mode, checker pool) operating point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cpu.config import CoreInstance
from repro.cpu.presets import CORE_CLASSES

from repro.control.policy import (
    POLICY_KINDS,
    ControlAction,
    EpochObservation,
)


class Role(enum.Enum):
    """What a core is doing during an epoch."""

    MAIN = "main"
    CHECKER = "checker"
    IDLE = "idle"


@dataclass(frozen=True)
class PoolCore:
    """One schedulable core."""

    core_id: str
    instance: CoreInstance

    @property
    def is_little(self) -> bool:
        return self.instance.config.area_mm2 < 1.0

    @property
    def compute_capacity(self) -> float:
        """Relative single-thread capacity (area as a crude proxy would be
        wrong — use width x frequency)."""
        return self.instance.config.width * self.instance.freq_ghz


@dataclass
class EpochPlan:
    """The scheduler's decision for one epoch."""

    epoch: int
    demand_cores: float
    roles: dict[str, Role]
    #: Checker capacity per main core actually running checked work.
    checkers_per_main: float
    checking_enabled: bool

    @property
    def mains(self) -> list[str]:
        return [cid for cid, role in self.roles.items() if role is Role.MAIN]

    @property
    def checkers(self) -> list[str]:
        return [cid for cid, role in self.roles.items()
                if role is Role.CHECKER]


@dataclass
class ScheduleOutcome:
    """Aggregate over a demand trace."""

    plans: list[EpochPlan] = field(default_factory=list)

    @property
    def epochs_with_checking(self) -> int:
        return sum(1 for plan in self.plans if plan.checking_enabled)

    @property
    def checking_availability(self) -> float:
        if not self.plans:
            return 0.0
        return self.epochs_with_checking / len(self.plans)

    def roles_of(self, core_id: str) -> list[Role]:
        return [plan.roles[core_id] for plan in self.plans]


class RoleScheduler:
    """Assigns main/checker/idle roles to a core pool per epoch.

    ``min_checkers_per_main`` is the pool needed for full coverage
    (e.g. 4 little cores per big main, section VII-A); when spare cores
    fall below it, checking degrades to opportunistic; when demand wants
    every core, checking disables.
    """

    def __init__(self, cores: list[PoolCore],
                 min_checkers_per_main: float = 1.0) -> None:
        if not cores:
            raise ValueError("empty core pool")
        self.cores = cores
        self.min_checkers_per_main = min_checkers_per_main

    def plan_epoch(self, epoch: int, demand_cores: float) -> EpochPlan:
        """Assign roles for one epoch of ``demand_cores`` of main work.

        Demand is satisfied with the *fastest* cores first (main work
        needs single-thread performance); remaining cores become
        checkers, littlest first (paper's preference), or stay idle when
        there is nothing to check.
        """
        by_speed = sorted(self.cores, key=lambda c: -c.compute_capacity)
        roles: dict[str, Role] = {}
        need = demand_cores
        mains: list[PoolCore] = []
        for core in by_speed:
            if need > 0:
                roles[core.core_id] = Role.MAIN
                mains.append(core)
                need -= 1
            else:
                roles[core.core_id] = Role.IDLE
        spare = [core for core in self.cores
                 if roles[core.core_id] is Role.IDLE]
        # Littlest spare cores become checkers (energy preference).
        spare.sort(key=lambda c: c.instance.config.area_mm2)
        checking_enabled = bool(mains) and bool(spare)
        checkers = 0
        if checking_enabled:
            for core in spare:
                roles[core.core_id] = Role.CHECKER
                checkers += 1
        return EpochPlan(
            epoch=epoch,
            demand_cores=demand_cores,
            roles=roles,
            checkers_per_main=checkers / len(mains) if mains else 0.0,
            checking_enabled=checking_enabled,
        )

    def run(self, demand_trace: list[float]) -> ScheduleOutcome:
        """Plan every epoch of a demand trace."""
        outcome = ScheduleOutcome()
        for epoch, demand in enumerate(demand_trace):
            clamped = max(0.0, min(demand, len(self.cores)))
            outcome.plans.append(self.plan_epoch(epoch, clamped))
        return outcome

    def coverage_mode_for(self, plan: EpochPlan) -> str:
        """The checking mode the plan supports (Fig. 1's spectrum)."""
        if not plan.checking_enabled:
            return "disabled"
        if plan.checkers_per_main >= self.min_checkers_per_main:
            return "full"
        return "opportunistic"


def standard_pool(mains: int = 1, littles: int = 6,
                  little_ghz: float = 2.0) -> list[PoolCore]:
    """The per-server pool the fleet models: X2 mains plus A510 spares."""
    cores = [PoolCore(core_id=f"big{i}",
                      instance=CoreInstance(config=CORE_CLASSES["X2"],
                                            freq_ghz=3.0))
             for i in range(mains)]
    cores += [PoolCore(core_id=f"little{i}",
                       instance=CoreInstance(config=CORE_CLASSES["A510"],
                                             freq_ghz=little_ghz))
              for i in range(littles)]
    return cores


class SchedulerPolicy:
    """The role scheduler driven by live utilisation instead of a trace.

    Each epoch, observed main-core utilisation is scaled to a core
    demand over one server's pool (1 X2 + ``littles`` A510 spares with
    ``headroom`` slack for burst absorption); the resulting plan's
    coverage mode and spare-checker count become the fleet-wide
    operating point.  This is the paper's section IV-A loop closed over
    the simulator's own telemetry rather than an offline demand trace.
    """

    def __init__(self, littles: int = 6, little_ghz: float = 2.0,
                 min_checkers_per_main: float = 4.0,
                 headroom: float = 1.25) -> None:
        if littles < 1:
            raise ValueError(f"littles must be >= 1, got {littles}")
        self.littles = littles
        self.little_ghz = little_ghz
        self.headroom = headroom
        self.scheduler = RoleScheduler(
            standard_pool(mains=1, littles=littles,
                          little_ghz=little_ghz),
            min_checkers_per_main=min_checkers_per_main)
        self._epoch = 0

    def on_epoch(self, obs: EpochObservation) -> ControlAction | None:
        self._epoch += 1
        # One main core of demand per unit utilisation, plus headroom:
        # at high load the burst reserve spills onto the little cores,
        # stealing them from checker duty exactly as section IV-A says.
        pool = 1 + self.littles
        demand = min(float(pool),
                     obs.utilization * self.headroom * pool)
        plan = self.scheduler.plan_epoch(self._epoch, demand)
        mode = self.scheduler.coverage_mode_for(plan)
        n_checkers = len(plan.checkers)
        checkers = ("none" if mode == "disabled" or n_checkers == 0
                    else f"{n_checkers}xA510@{self.little_ghz:g}")
        return ControlAction(mode=mode, checkers=checkers, info={
            "demand_cores": round(demand, 4),
            "spare_checkers": n_checkers,
        })


POLICY_KINDS["scheduler"] = SchedulerPolicy
