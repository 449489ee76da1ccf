"""Control policies: epoch observations in, (mode, pool) actions out.

A policy is a pure-ish object: given the stream of deterministic
:class:`EpochObservation` records a fleet run produces, it emits
:class:`ControlAction` decisions.  Policies carry no wall-clock state
and draw no randomness, so a controlled run is exactly as deterministic
as an uncontrolled one — the whole adaptive control plane rides on the
simulator's existing ``sha256(seed, rid, site)`` contract.

Policies are constructed from *plain-dict specs* via
:func:`make_controller`, because controlled cells fan out over worker
processes exactly like static ones: the spec travels through
``FleetTrafficConfig.to_json``, and each worker builds its own policy
instance.  Anything a policy needs must therefore round-trip through
JSON.

Two operating-point ladders, matching the paper's Fig. 1 spectrum:

* the **mode ladder** ``full -> opportunistic -> disabled`` trades
  coverage for tail latency (:class:`ThresholdPolicy`);
* the **DVFS ladder** walks the A510 sweep frequencies before touching
  the mode at all, trading energy for lag headroom
  (:class:`ED2PBudgetPolicy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.cpu.config import CoreInstance, CoreKind
from repro.cpu.presets import CORE_CLASSES, parse_checker_groups
from repro.fleet.server import (
    IN_ORDER_EFFICIENCY,
    MAIN_THROUGHPUT,
    MODES,
)
from repro.power.ed2p import A510_SWEEP_GHZ
from repro.power.energy import dynamic_energy_nj, static_energy_nj

#: The big core every fleet server runs (Table I), pinned at 3 GHz.
_MAIN = CoreInstance(config=CORE_CLASSES["X2"], freq_ghz=3.0)


@dataclass(frozen=True)
class EpochObservation:
    """What the simulator saw during one control epoch (one window)."""

    epoch: int
    t_s: float                  # boundary time the window closed at
    epoch_len_s: float
    servers: int
    offered: int
    completed: int
    p50_ms: float
    p99_ms: float
    utilization: float          # busy_s / (epoch_len_s * servers)
    stall_fraction: float       # stall_s / busy_s
    coverage: float             # checked / (checked + unchecked) work
    lag_max_frac: float         # max server lag / lag bound
    busy_s: float               # main-core busy seconds, all servers
    checked_work_s: float       # seconds of work the checkers replayed
    mode: str                   # the mode the window ran under
    checkers: str               # the pool spec the window ran under


@dataclass(frozen=True)
class ControlAction:
    """The operating point to run the *next* epoch at.

    ``info`` is free-form diagnostics the simulator folds into the
    epoch record (budget headroom, ladder position, ...); it never
    influences behaviour.
    """

    mode: str
    checkers: str
    info: dict | None = None


class Policy(Protocol):
    """The contract every control policy implements."""

    def on_epoch(self, obs: EpochObservation) -> ControlAction | None:
        """Decide the next epoch's operating point (None = no opinion)."""
        ...


# ---------------------------------------------------------------------------
# Fleet-timescale energy accounting (repro.power at datacenter scale).
# ---------------------------------------------------------------------------

def fleet_energy_nj(busy_s: float, checked_s: float,
                    checkers: str) -> tuple[float, float]:
    """``(main_nj, checker_nj)`` for one window of fleet work.

    Seconds of main-core work become instructions through the same
    X2@3 GHz throughput constant the lag model uses
    (:data:`~repro.fleet.server.MAIN_THROUGHPUT`, instructions per
    nanosecond), then flow through the calibrated :mod:`repro.power`
    primitives.  Checked work is replayed once by the pool: each class
    group replays its throughput share of the instructions, in checker
    mode (no-tag LSL$ loads), with leakage over the replay time.
    """
    busy_ns = busy_s * 1e9
    main_inst = int(busy_ns * MAIN_THROUGHPUT)
    main_nj = (dynamic_energy_nj(_MAIN.config, _MAIN.voltage, main_inst)
               + static_energy_nj(_MAIN.config, _MAIN.voltage, busy_ns))
    if checked_s <= 0.0 or checkers.strip().lower() == "none":
        return main_nj, 0.0
    groups = []  # (count, config, instance, throughput inst/ns)
    for count, config, freq in parse_checker_groups(checkers):
        efficiency = 1.0 if config.kind == CoreKind.OUT_OF_ORDER \
            else IN_ORDER_EFFICIENCY
        instance = CoreInstance(config=config, freq_ghz=freq)
        groups.append((count, config, instance,
                       count * config.width * freq * efficiency))
    pool_rate = sum(g[3] for g in groups)
    checked_inst = checked_s * 1e9 * MAIN_THROUGHPUT
    replay_ns = checked_inst / pool_rate if pool_rate else 0.0
    checker_nj = 0.0
    for count, config, instance, rate in groups:
        share = int(checked_inst * (rate / pool_rate))
        checker_nj += dynamic_energy_nj(config, instance.voltage, share,
                                        checker_mode=True)
        checker_nj += static_energy_nj(config, instance.voltage,
                                       replay_ns * count)
    return main_nj, checker_nj


# ---------------------------------------------------------------------------
# Policies.
# ---------------------------------------------------------------------------

class StaticPolicy:
    """Pin one operating point (the do-nothing controller, for A/Bs)."""

    def __init__(self, mode: str = "full",
                 checkers: str = "4xA510@2.0") -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; "
                             f"pick from {', '.join(MODES)}")
        self.mode = mode
        self.checkers = checkers

    def on_epoch(self, obs: EpochObservation) -> ControlAction | None:
        del obs
        return ControlAction(mode=self.mode, checkers=self.checkers)


class ThresholdPolicy:
    """Watermark controller on checker stalls, lag, and tail latency.

    The degrade trigger is deliberately *not* raw p99: under pure
    overload (arrivals beyond capacity) the tail is queueing delay that
    no checking mode can fix, and a p99-chasing controller would ratchet
    itself to ``disabled`` for nothing.  Instead:

    * ``full -> opportunistic`` when checking is demonstrably the
      problem — the stall fraction (main-core time lost waiting at the
      saturated lag bound, a full-mode-only signal) crosses its *high*
      watermark.  Raw lag is *not* a degrade trigger: bursty arrivals
      brush the lag bound even at trough load, where full coverage is
      still nearly free;
    * ``-> disabled`` only past the separate overload watermark
      ``p99_high_ms``, i.e. when the fleet is drowning and even the
      bookkeeping of opportunistic checking is worth shedding
      (section I: fault detection never steals throughput the
      datacenter needs);
    * one restore step when stalls and p99 sit below the *low*
      watermarks and the worst lag is back under ``lag_low_frac`` of
      the bound (restoring full coverage onto a saturated LSL would
      stall immediately).

    The gap between the watermark pairs is the hysteresis band — a load
    oscillating inside it never causes a switch, so the fleet cannot
    thrash between modes on noise (the dwell in
    :class:`~repro.control.loop.Controller` guards the residual case of
    load swinging across both watermarks every epoch).  The pool spec is
    kept even while disabled: the checkers stop *accepting* new work but
    keep draining the LSL backlog, so recovery is observable.
    """

    LADDER = MODES  # full -> opportunistic -> disabled

    def __init__(self, stall_high: float = 0.05, stall_low: float = 0.01,
                 lag_low_frac: float = 0.95,
                 p99_high_ms: float = 25.0, p99_low_ms: float = 5.0,
                 checkers: str = "4xA510@2.0") -> None:
        for label, low, high in (("stall", stall_low, stall_high),
                                 ("p99", p99_low_ms, p99_high_ms)):
            if low >= high:
                raise ValueError(
                    f"{label} watermarks must satisfy low < high, got "
                    f"low={low} high={high}")
        if lag_low_frac <= 0.0:
            raise ValueError(
                f"lag_low_frac must be positive, got {lag_low_frac}")
        self.stall_high = stall_high
        self.stall_low = stall_low
        self.lag_low_frac = lag_low_frac
        self.p99_high_ms = p99_high_ms
        self.p99_low_ms = p99_low_ms
        self.checkers = checkers
        self._step = 0  # index into LADDER

    def on_epoch(self, obs: EpochObservation) -> ControlAction | None:
        hot = obs.stall_fraction > self.stall_high
        overload = obs.p99_ms > self.p99_high_ms
        cool = (obs.stall_fraction < self.stall_low
                and obs.lag_max_frac < self.lag_low_frac
                and obs.p99_ms < self.p99_low_ms)
        if overload and self._step < len(self.LADDER) - 1:
            self._step += 1
        elif hot and self._step < 1:
            self._step = 1
        elif cool and self._step > 0:
            self._step -= 1
        return ControlAction(
            mode=self.LADDER[self._step],
            checkers=self.checkers,
            info={"step": self._step, "hot": hot,
                  "overload": overload, "cool": cool},
        )


class ED2PBudgetPolicy:
    """Hold checker energy overhead under a budget via the DVFS ladder.

    Tracks cumulative main-core and checker energy with the calibrated
    :mod:`repro.power` model and compares the running overhead fraction
    (checker / main) against ``budget``.  Over budget, it walks the
    operating-point ladder *down*: first the paper's A510 DVFS sweep
    (2.0 -> 1.4 GHz — slower checkers burn less energy per replayed
    instruction at lower voltage), then opportunistic coverage, then
    off.  Under ``budget * low_margin`` it walks back up.  The margin
    is the hysteresis band; overshoot is reported per epoch so the
    stats tree can expose the worst excursion.
    """

    def __init__(self, budget: float = 0.40, low_margin: float = 0.85,
                 pool: int = 4, core: str = "A510",
                 freqs_ghz: tuple[float, ...] = A510_SWEEP_GHZ) -> None:
        if budget <= 0.0:
            raise ValueError(f"budget must be positive, got {budget}")
        if not 0.0 < low_margin < 1.0:
            raise ValueError(
                f"low_margin must be in (0, 1), got {low_margin}")
        self.budget = budget
        self.low_margin = low_margin
        # The ladder, best coverage first: full at each DVFS point,
        # then opportunistic at the slowest point, then disabled.
        self.ladder: list[tuple[str, str]] = [
            ("full", f"{pool}x{core}@{f:g}") for f in freqs_ghz]
        self.ladder.append(("opportunistic", f"{pool}x{core}@{freqs_ghz[-1]:g}"))
        self.ladder.append(("disabled", "none"))
        self._step = 0
        self._main_nj = 0.0
        self._checker_nj = 0.0

    def on_epoch(self, obs: EpochObservation) -> ControlAction | None:
        main_nj, checker_nj = fleet_energy_nj(
            obs.busy_s, obs.checked_work_s, obs.checkers)
        self._main_nj += main_nj
        self._checker_nj += checker_nj
        overhead = (self._checker_nj / self._main_nj
                    if self._main_nj else 0.0)
        if overhead > self.budget and self._step < len(self.ladder) - 1:
            self._step += 1
        elif overhead < self.budget * self.low_margin and self._step > 0:
            self._step -= 1
        mode, checkers = self.ladder[self._step]
        return ControlAction(mode=mode, checkers=checkers, info={
            "step": self._step,
            "overhead": round(overhead, 6),
            "overshoot": round(max(0.0, overhead - self.budget), 6),
        })


#: Spec ``kind`` -> policy class; :mod:`repro.control.roles` registers
#: the scheduler-backed policy here on import.
POLICY_KINDS: dict[str, type] = {
    "static": StaticPolicy,
    "threshold": ThresholdPolicy,
    "ed2p_budget": ED2PBudgetPolicy,
}


def make_controller(spec: dict):
    """Build a dwell-wrapped controller from a plain-dict spec.

    ``spec`` carries ``kind`` (one of :data:`POLICY_KINDS`), an optional
    ``dwell`` epoch count, and the policy's keyword arguments.  Specs
    are JSON-safe by construction, which is what lets a controlled
    fleet cell fan out over worker processes.
    """
    from repro.control import roles  # registers "scheduler"  # noqa: F401
    from repro.control.loop import Controller

    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in POLICY_KINDS:
        raise ValueError(
            f"unknown controller kind {kind!r}; "
            f"known: {sorted(POLICY_KINDS)}")
    dwell = spec.pop("dwell", 1)
    freqs = spec.get("freqs_ghz")
    if freqs is not None:
        spec["freqs_ghz"] = tuple(freqs)
    return Controller(POLICY_KINDS[kind](**spec), dwell_epochs=dwell)
