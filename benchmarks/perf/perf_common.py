"""Measurement helpers for the perf suite.

One *case* is ``<workload>/<model>``.  Per case the suite takes:

* ``REPEATS`` **unprofiled** timed runs over a fixed instruction budget
  — these give the true sim-rate (KIPS mean + stddev, the CI-gated
  number; scoped timers would distort it);
* one **profiled** run over a smaller budget — this gives the
  per-component host-time attribution shares and the bucket-coverage
  figure (the acceptance bar: buckets sum to >= 90% of wall time).

The two example workloads deliberately stress different subsystems: pi
is FP/ALU-bound, dct is memory/loop-bound.

A fresh load spends its first 60k instructions in boot code, so the
``<workload>/atomic-checkpoint`` cases restore each workload's boot
checkpoint instead and time the code every experiment runs after it:
the FI window and the drain.
"""

from __future__ import annotations

import time

from repro.compiler import compile_source
from repro.core import FaultInjector
from repro.sim import SimConfig, Simulator
from repro.sim.checkpoint import dumps_checkpoint, restore_checkpoint
from repro.telemetry.profiler import Profiler, sim_rates
from repro.workloads import build

MODELS = ("atomic", "timing", "inorder", "o3")
WORKLOADS = ("pi", "dct")
SCALE = "tiny"
# Determinism pins (see conftest.py): the RNG seed planted before every
# test and the fixed repeat count whose spread the suite reports.
PERF_SEED = 0x5EED
REPEATS = 3
# Fixed simulated-instruction budgets: every repeat of a case executes
# the identical instruction stream (asserted in test_perf.py).
TIMED_INSTRUCTIONS = 60_000
PROFILED_INSTRUCTIONS = 20_000
#: Budget of the ``atomic-checkpoint`` cases, counted from the boot
#: checkpoint.
CHECKPOINT_INSTRUCTIONS = 30_000
CHECKPOINT_MODEL = "atomic-checkpoint"

_ASM_CACHE: dict[str, str] = {}
_CHECKPOINTS: dict[str, bytes] = {}


def workload_asm(name: str) -> str:
    if name not in _ASM_CACHE:
        _ASM_CACHE[name] = compile_source(build(name, SCALE).source)
    return _ASM_CACHE[name]


def boot_checkpoint(workload: str) -> bytes:
    """The workload's checkpoint at ``fi_read_init_all`` (cached)."""
    if workload not in _CHECKPOINTS:
        sim = _fresh_sim(workload, "atomic")
        sim.on_checkpoint = lambda s: _CHECKPOINTS.__setitem__(
            workload, dumps_checkpoint(s))
        sim.run(until_checkpoint=True)
    return _CHECKPOINTS[workload]


def _fresh_sim(workload: str, model: str) -> Simulator:
    if model == CHECKPOINT_MODEL:
        return restore_checkpoint(boot_checkpoint(workload), faults=[])
    sim = Simulator(SimConfig(cpu_model=model),
                    injector=FaultInjector())
    sim.load(workload_asm(workload), workload)
    return sim


def _budget(model: str, fresh: int) -> int:
    return CHECKPOINT_INSTRUCTIONS if model == CHECKPOINT_MODEL else fresh


def timed_run(workload: str, model: str) -> tuple[float, int, int]:
    """One unprofiled run; returns (wall, instructions, ticks), both
    counted from where the run started."""
    sim = _fresh_sim(workload, model)
    instructions, ticks = sim.instructions, sim.tick
    budget = _budget(model, TIMED_INSTRUCTIONS)
    start = time.perf_counter()
    result = sim.run(max_instructions=instructions + budget)
    wall = time.perf_counter() - start
    return wall, result.instructions - instructions, result.ticks - ticks


def profiled_run(workload: str, model: str) -> dict:
    """One profiled run; returns attribution shares + coverage."""
    sim = _fresh_sim(workload, model)
    instructions = sim.instructions
    profiler = Profiler().install(sim)
    result = sim.run(max_instructions=instructions
                     + _budget(model, PROFILED_INSTRUCTIONS))
    wall = profiler.wall_seconds
    attribution = {
        bucket: (seconds / wall if wall > 0 else 0.0)
        for bucket, seconds in sorted(profiler.attribution().items())}
    coverage = profiler.coverage()
    profiler.uninstall()
    return {"instructions": result.instructions - instructions,
            "wall_seconds": wall,
            "attribution": attribution,
            "coverage": coverage}


def measure_case(workload: str, model: str, repeats: int) -> dict:
    """The full BENCH_perf.json record for one case."""
    timed_run(workload, model)  # warm allocator / caches
    walls: list[float] = []
    instructions = ticks = None
    for _ in range(repeats):
        wall, ran_instructions, ran_ticks = timed_run(workload, model)
        if instructions is None:
            instructions, ticks = ran_instructions, ran_ticks
        else:
            # Pinned seeds + fixed budgets => identical work per repeat;
            # anything else means the measurement itself is broken.
            assert (instructions, ticks) == (ran_instructions,
                                             ran_ticks), \
                f"{workload}/{model}: nondeterministic run " \
                f"({instructions},{ticks}) != " \
                f"({ran_instructions},{ran_ticks})"
        walls.append(wall)
    from bench_schema import mean_stdev
    wall_mean, wall_stdev = mean_stdev(walls)
    kips_values = [instructions / wall / 1e3 for wall in walls]
    kips_mean, kips_stdev = mean_stdev(kips_values)
    rates = sim_rates(instructions, ticks, wall_mean)
    profile = profiled_run(workload, model)
    return {
        "instructions": instructions,
        "ticks": ticks,
        "wall_seconds_runs": walls,
        "wall_seconds_mean": wall_mean,
        "wall_seconds_stdev": wall_stdev,
        "kips_runs": kips_values,
        "kips_mean": kips_mean,
        "kips_stdev": kips_stdev,
        "ticks_per_second": rates["ticks_per_second"],
        "host_seconds_per_instruction":
            rates["host_seconds_per_instruction"],
        "attribution": profile["attribution"],
        "coverage": profile["coverage"],
    }
