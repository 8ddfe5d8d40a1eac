"""Ablation benches for the design choices called out in DESIGN.md.

1. **Decode cache** — memoised word->Decoded mapping.  Disabling it
   re-decodes every fetched word.  Both arms run on the slow path, so
   the ratio does not also count the cold-path block runner.
2. **Detailed-until-commit** (Section IV.B.1) — campaigns start in the
   O3 model and drop to AtomicSimple once the injected fault has
   committed; the ablation keeps O3 for the whole run.  Outcomes must be
   identical; only time differs.  Both arms start at the boot rung.
3. **Checkpoint fast-forward granularity** — covered by Fig. 8; here we
   additionally check that a restored run is bit-identical to a straight
   run (no accuracy cost for the speedup).
4. **PCB pointer** (Section III.C) against a hash lookup per
   instruction, both on the slow path.
5. **Cold-path block runner** — the atomic model running poll-bounded
   blocks of per-word closures while no FI hook can fire, against the
   five-phase ``Core.serve_instruction`` for every instruction.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import gc
import statistics
import time

import pytest

from repro.campaign import SEUGenerator
from repro.compiler import compile_source
from repro.sim import SimConfig, Simulator
from repro.workloads import build

from conftest import SCALE, publish, runner_for, runs_setting

RUNS = runs_setting(8)
# The PCB ablation's effect (~7%) is inside the spread of back-to-back
# whole runs on a shared host, so the two arms run the same program in
# lockstep, alternating chunks of this many instructions (each arm goes
# first in every other chunk), and the check is on the median per-chunk
# slowdown.
PCB_CHUNK = 10_000


@contextlib.contextmanager
def slow_path():
    """Pin runs to the slow path: the block test always fails, so every
    instruction goes through ``Core.serve_instruction``, as when an FI
    hook is hot."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "_cold", lambda self: False)
        yield


def _run_once(asm: str, decode_cache: bool = True) -> float:
    sim = Simulator(SimConfig(decode_cache=decode_cache))
    sim.load(asm, "bench")
    start = time.perf_counter()
    result = sim.run(max_instructions=50_000_000)
    assert result.status == "completed"
    return time.perf_counter() - start


def test_ablation_decode_cache(benchmark):
    asm = compile_source(build("pi", SCALE).source)

    def measure():
        with slow_path():
            _run_once(asm, True)
            with_cache = min(_run_once(asm, True) for _ in range(3))
            without_cache = min(_run_once(asm, False) for _ in range(3))
        return with_cache, without_cache

    with_cache, without_cache = benchmark.pedantic(measure, rounds=1,
                                                   iterations=1)
    slowdown = without_cache / with_cache
    assert slowdown > 1.0, \
        "decoding every word must not be faster than the decode cache"
    publish("ablation_decode_cache",
            "Ablation — decode cache:\n\n"
            f"with cache:    {with_cache:.3f}s\n"
            f"without cache: {without_cache:.3f}s\n"
            f"slowdown when disabled: {slowdown:.2f}x")


def _boot_rung_only(runner):
    """*runner* with its checkpoint ladder cut to the boot rung, as
    Fig. 8 does for its checkpoint column: no experiment starts past
    boot, harvests a rung or exits early."""
    cut = copy.copy(runner)
    cut.golden = dataclasses.replace(runner.golden,
                                     rungs=runner.golden.rungs[:1])
    return cut


def test_ablation_o3_until_commit(benchmark):
    """Campaigns in O3-until-commit mode vs full-O3: same outcomes,
    less time (the paper's methodology exists for exactly this).  Both
    arms start every experiment at the boot checkpoint, so the ratio
    measures the model switch alone, not the two arms' ladders."""
    switching = _boot_rung_only(runner_for("pi", detailed_model="o3"))
    from repro.campaign import CampaignRunner
    full_o3 = _boot_rung_only(CampaignRunner(
        build("pi", SCALE), config=SimConfig(cpu_model="o3"),
        detailed_model=None))
    # Architecturally-timed locations only: FETCH/DECODE faults strike
    # the *speculative* stream, which legitimately depends on predictor
    # warm-up state and thus may hit different (possibly wrong-path)
    # instructions under different microarchitectural histories — the
    # squash-masking behaviour the paper calls out.
    from repro.core import LocationKind
    generator = SEUGenerator(
        switching.golden.profile, seed=999,
        locations=(LocationKind.INT_REG, LocationKind.FP_REG,
                   LocationKind.PC, LocationKind.EXECUTE,
                   LocationKind.MEM))
    faults = generator.batch(RUNS)

    def measure():
        t0 = time.perf_counter()
        switched = switching.run_campaign(faults)
        switched_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        full = full_o3.run_campaign(faults)
        full_time = time.perf_counter() - t0
        return switched, switched_time, full, full_time

    switched, switched_time, full, full_time = benchmark.pedantic(
        measure, rounds=1, iterations=1)

    agree = sum(1 for a, b in zip(switched, full)
                if a.outcome == b.outcome)
    assert agree >= len(faults) - 1, \
        f"model switching changed outcomes: {agree}/{len(faults)} agree"
    publish("ablation_o3_until_commit",
            "Ablation — O3-until-commit vs full-O3 campaigns "
            f"({RUNS} experiments, pi):\n\n"
            f"O3 -> atomic after fault commit: {switched_time:.2f}s\n"
            f"full O3 for the whole run:       {full_time:.2f}s\n"
            f"speedup from switching: {full_time / switched_time:.2f}x\n"
            f"outcome agreement: {agree}/{len(faults)}")


def test_ablation_checkpoint_fidelity(benchmark):
    """Restoring from the campaign checkpoint is bit-identical to
    running straight through (Fig. 3's fast-forward has no accuracy
    cost)."""
    runner = runner_for("jacobi")

    def measure():
        straight = runner.golden.outputs
        from repro.sim.checkpoint import restore_checkpoint
        sim = restore_checkpoint(runner.golden.checkpoint, faults=[])
        sim.run(max_instructions=sim.instructions
                + runner.golden.instructions * 2)
        from repro.workloads import extract_outputs
        restored = extract_outputs(runner.spec, sim, sim.process(0))
        return straight, restored

    straight, restored = benchmark.pedantic(measure, rounds=1,
                                            iterations=1)
    assert restored == straight
    publish("ablation_checkpoint_fidelity",
            "Ablation — checkpoint fast-forward fidelity:\n\n"
            "outputs of a restored run == outputs of the straight "
            "golden run: True\n(bit-identical console and arrays)")


def test_ablation_pcb_tracking_vs_hash_lookup(benchmark):
    """Section III.C: 'Monitoring context switches allows GemFI to
    eliminate the overhead of checking the fault injection status of
    the executing thread in the hash table on each simulated clock
    tick.'  The ablation re-enables the per-instruction hash lookup."""
    from repro.core import FaultInjector

    asm = compile_source(build("pi", SCALE).source)

    def loaded(hash_lookup: bool) -> Simulator:
        sim = Simulator(
            SimConfig(fi_hash_lookup_per_instruction=hash_lookup),
            injector=FaultInjector())
        sim.load(asm, "bench")
        return sim

    def timed(sim: Simulator, until: int) -> tuple[float, str]:
        # As timeit does: no collection of the other arm's garbage
        # inside the timed chunk.
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            status = sim.run(max_instructions=until).status
            return time.perf_counter() - start, status
        finally:
            gc.enable()

    def measure():
        pointer, hashed = loaded(False), loaded(True)
        chunks = []
        status = "limit"
        with slow_path():
            while status == "limit":
                until = pointer.instructions + PCB_CHUNK
                if len(chunks) % 2:
                    hashed_s, _ = timed(hashed, until)
                    pointer_s, status = timed(pointer, until)
                else:
                    pointer_s, status = timed(pointer, until)
                    hashed_s, _ = timed(hashed, until)
                chunks.append((pointer_s, hashed_s))
        assert status == "completed"
        assert hashed.instructions == pointer.instructions
        return chunks

    chunks = benchmark.pedantic(measure, rounds=1, iterations=1)
    pointer = sum(p for p, _ in chunks)
    hashed = sum(h for _, h in chunks)
    slowdown = statistics.median(h / p for p, h in chunks)
    slower = sum(h > p for p, h in chunks)
    assert slowdown > 1.0, \
        "per-instruction hash lookups must cost more than the pointer"
    publish("ablation_pcb_tracking",
            "Ablation — PCB-pointer tracking vs per-instruction hash "
            "lookup (Section III.C), one pi run per arm in "
            f"{len(chunks)} interleaved chunks of {PCB_CHUNK} "
            "instructions:\n\n"
            f"context-switch-maintained pointer: {pointer:.3f}s\n"
            f"hash lookup every instruction:     {hashed:.3f}s\n"
            f"slowdown of the naive design: {slowdown:.2f}x (median "
            f"chunk; hash lookup slower in {slower}/{len(chunks)} "
            "chunks)")


def test_ablation_block_runner(benchmark):
    """A fault-free pi run with every instruction on the slow path
    against the cold-path block runner: same stats, less time."""
    asm = compile_source(build("pi", SCALE).source)

    def dump() -> str:
        sim = Simulator(SimConfig())
        sim.load(asm, "bench")
        sim.run(max_instructions=50_000_000)
        return sim.stats_dump()

    def measure():
        _run_once(asm)
        blocks = min(_run_once(asm) for _ in range(3))
        with slow_path():
            slow = min(_run_once(asm) for _ in range(3))
            slow_dump = dump()
        return blocks, slow, slow_dump

    blocks, slow, slow_dump = benchmark.pedantic(measure, rounds=1,
                                                 iterations=1)
    assert dump() == slow_dump, "the block runner changed the run"
    speedup = slow / blocks
    assert speedup > 1.0, \
        "the block runner must not be slower than the slow path"
    publish("ablation_block_runner",
            "Ablation — cold-path block runner (fault-free pi):\n\n"
            f"slow path, every instruction:  {slow:.3f}s\n"
            f"block runner while cold:       {blocks:.3f}s\n"
            f"speedup from the block runner: {speedup:.2f}x")
