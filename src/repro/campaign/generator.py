"""Random fault generators for campaigns.

The validation methodology (Section IV.B.1) uses a single-event-upset
model: each experiment injects one flip-bit fault with *Location*, *Time*
and *Behavior* drawn from uniform distributions.  The generator needs a
profile of the fault-injection window (how many instructions the region
between the two ``fi_activate_inst`` calls executes, per pipeline stage),
which campaigns obtain from a golden profiling run.

``VddScaledGenerator`` implements the paper's future-work extension:
per-component fault rates that grow as the supply voltage is lowered.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..core.fault import (
    Behavior,
    BehaviorKind,
    Fault,
    LocationKind,
    TimeMode,
)

# Bit width of the value corrupted at each location.
LOCATION_WIDTHS = {
    LocationKind.INT_REG: 64,
    LocationKind.FP_REG: 64,
    LocationKind.PC: 64,
    LocationKind.FETCH: 32,
    LocationKind.DECODE: 5,
    LocationKind.EXECUTE: 64,
    LocationKind.MEM: 64,
}

DEFAULT_LOCATIONS = (
    LocationKind.INT_REG, LocationKind.FP_REG, LocationKind.PC,
    LocationKind.FETCH, LocationKind.DECODE, LocationKind.EXECUTE,
    LocationKind.MEM,
)


@dataclass
class WindowProfile:
    """Instruction counts of the FI window, per pipeline stage (from a
    golden run's ``FaultInjector.windows`` record)."""

    committed: int
    ticks: int
    stage_counts: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_injector_window(cls, window: dict) -> "WindowProfile":
        return cls(committed=window["committed"], ticks=window["ticks"],
                   stage_counts=dict(window["stage_counts"]))

    def count_for(self, location: LocationKind) -> int:
        """Fault times are expressed in committed instructions of the
        thread for every location (a MEM/EXECUTE fault scheduled at
        instruction N strikes the first eligible transaction at or after
        N), so the sampling window is the committed count."""
        del location
        return max(1, self.committed)


class SEUGenerator:
    """Uniform single-event-upset (one bit flip, occ=1) generator."""

    def __init__(self, profile: WindowProfile, seed: int = 0,
                 locations=DEFAULT_LOCATIONS, thread_id: int = 0,
                 cpu: str = "system.cpu0") -> None:
        self.profile = profile
        self.rng = random.Random(seed)
        self.locations = tuple(locations)
        self.thread_id = thread_id
        self.cpu = cpu

    def generate(self, location: LocationKind | None = None,
                 time: int | None = None) -> Fault:
        """One uniform SEU; *location*/*time* can be pinned for
        location-stratified (Fig. 5) or time-stratified (Fig. 6)
        campaigns."""
        rng = self.rng
        if location is None:
            location = rng.choice(self.locations)
        if time is None:
            time = rng.randint(1, self.profile.count_for(location))
        width = LOCATION_WIDTHS[location]
        bit = rng.randrange(width)
        behavior = Behavior(kind=BehaviorKind.FLIP, bits=(bit,), occ=1)
        reg_index = 0
        operand_role = "src"
        operand_index = 0
        if location in (LocationKind.INT_REG, LocationKind.FP_REG):
            reg_index = rng.randrange(32)
        elif location is LocationKind.DECODE:
            operand_role = rng.choice(("src", "dst"))
            operand_index = rng.randrange(3)
        return Fault(location=location, time_mode=TimeMode.INSTRUCTIONS,
                     time=time, behavior=behavior,
                     thread_id=self.thread_id, cpu=self.cpu,
                     reg_index=reg_index, operand_role=operand_role,
                     operand_index=operand_index)

    def batch(self, count: int,
              location: LocationKind | None = None) -> list[Fault]:
        return [self.generate(location=location) for _ in range(count)]

    def fault_space_size(self) -> int:
        """|Location| x |time| x |bit| — the population N fed to the
        Leveugle sample-size formula."""
        total = 0
        for location in self.locations:
            slots = self.profile.count_for(location)
            width = LOCATION_WIDTHS[location]
            multiplier = 32 if location in (LocationKind.INT_REG,
                                            LocationKind.FP_REG) else 1
            total += slots * width * multiplier
        return total


class VddScaledGenerator(SEUGenerator):
    """Extension (paper Section VII future work): scale per-component
    SEU rates with supply voltage.

    A simple exponential model: the expected number of upsets in the FI
    window is ``base_rate * exp(alpha * (v_nominal - vdd))`` per
    component class; ``faults_for_run`` draws a Poisson count and
    generates that many faults (0 faults = a run with no injection).
    """

    def __init__(self, profile: WindowProfile, seed: int = 0,
                 vdd: float = 1.0, v_nominal: float = 1.0,
                 base_rate: float = 0.05, alpha: float = 12.0,
                 **kwargs) -> None:
        super().__init__(profile, seed=seed, **kwargs)
        if vdd <= 0:
            raise ValueError("vdd must be positive")
        self.vdd = vdd
        self.v_nominal = v_nominal
        self.base_rate = base_rate
        self.alpha = alpha

    @property
    def expected_upsets(self) -> float:
        return self.base_rate * math.exp(
            self.alpha * max(0.0, self.v_nominal - self.vdd))

    def faults_for_run(self) -> list[Fault]:
        count = self._poisson(self.expected_upsets)
        return [self.generate() for _ in range(count)]

    def _poisson(self, lam: float) -> int:
        # Knuth's method; lambda stays small in practice.
        limit = math.exp(-lam)
        count = 0
        product = self.rng.random()
        while product > limit:
            count += 1
            product *= self.rng.random()
        return count
