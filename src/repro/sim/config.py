"""Simulation configuration (the gem5 Python-config analogue).

A :class:`SimConfig` fully determines the simulated machine; it is
picklable and stored inside checkpoints so a restored simulation rebuilds
an identical platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..memory.hierarchy import HierarchyConfig

CPU_MODEL_NAMES = ("atomic", "timing", "inorder", "o3")
# How often (committed instructions) the run loop polls for FI model
# switching, scheduling, checkpoint requests and the instruction limit.
POLL_INTERVAL = 64
# The one core's name, as fault descriptions address it.
CORE_NAME = "system.cpu0"


@dataclass
class SimConfig:
    """Machine + run-policy configuration."""

    cpu_model: str = "atomic"
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    # Scheduler time slice, in committed instructions.
    quantum: int = 20_000
    # Campaign methodology of Section IV.B.1: once the injected fault has
    # committed (or can never fire again), switch from the detailed CPU
    # model to AtomicSimple for the rest of the run.
    switch_to_atomic_after_fi: bool = False
    # Decode-cache ablation knob.
    decode_cache: bool = True
    # Ablation of the Section III.C design choice: when True, the
    # core looks the running thread up in the PCB hash table on
    # EVERY instruction instead of refreshing a pointer at context
    # switches ("eliminate the overhead of checking the fault
    # injection status of the executing thread in the hash table on
    # each simulated clock tick").
    fi_hash_lookup_per_instruction: bool = False

    def __post_init__(self) -> None:
        if self.cpu_model not in CPU_MODEL_NAMES:
            raise ValueError(
                f"unknown cpu model '{self.cpu_model}', "
                f"expected one of {CPU_MODEL_NAMES}")
        if self.quantum < 1:
            raise ValueError("quantum must be positive")
