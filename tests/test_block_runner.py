"""The atomic model's cold-path block runner against the slow path.

While no fault-injection hook can fire, ``Simulator.run`` hands the
atomic model whole poll-bounded blocks, which run each instruction
through a closure keyed by its word.  Every test here compares against
the same code with the block entry patched to commit nothing, so each
instruction takes the five-phase ``Core.serve_instruction`` instead.
"""

from __future__ import annotations

import contextlib
import copy
import json

import pytest

from repro.campaign import CampaignRunner, SEUGenerator
from repro.compiler import compile_source
from repro.core import FaultInjector
from repro.cpu import atomic
from repro.cpu.atomic import AtomicSimpleCPU
from repro.isa.traps import UnmappedAccess
from repro.memory.mainmem import MainMemory
from repro.sim import SimConfig, Simulator
from repro.telemetry.profiler import Profiler
from repro.workloads import WORKLOAD_NAMES, build

from conftest import MIXED_PROGRAM

SEU_BATCH = 12


@contextlib.contextmanager
def slow_path():
    """Patch the block entry to commit nothing: every instruction then
    falls back to ``Core.serve_instruction``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AtomicSimpleCPU, "run_block", lambda self, n: None)
        yield


@contextlib.contextmanager
def block_spy():
    """Record, for every block: how many instructions it committed,
    whether a propagation watch was pending, and what it raised."""
    seen = []
    original = AtomicSimpleCPU.run_block

    def run_block(self, n):
        core = self.core
        start = core.committed
        watching = core.injector is not None and core.injector.has_watches
        try:
            original(self, n)
        except Exception as exc:
            seen.append((core.committed - start, watching, exc))
            raise
        seen.append((core.committed - start, watching, None))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AtomicSimpleCPU, "run_block", run_block)
        yield seen


def record(result) -> str:
    payload = result.as_dict()
    payload.pop("wall_seconds")
    payload.pop("phases")
    return json.dumps(payload, sort_keys=True)


_PAIRS: dict[str, tuple[CampaignRunner, CampaignRunner]] = {}


def runner_pair(workload: str) -> tuple[CampaignRunner, CampaignRunner]:
    """(block runner, slow-path runner) for *workload* at tiny scale,
    each with its own golden run."""
    if workload not in _PAIRS:
        fast = CampaignRunner(build(workload, "tiny"))
        with slow_path():
            slow = CampaignRunner(build(workload, "tiny"))
        _PAIRS[workload] = fast, slow
    return _PAIRS[workload]


# -- parity on every workload ---------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_golden_run_and_seu_records_match_slow_path(workload):
    fast, slow = runner_pair(workload)
    assert fast.golden.stats_dump == slow.golden.stats_dump
    assert fast.golden.instructions == slow.golden.instructions
    faults = SEUGenerator(fast.golden.profile, seed=7).batch(SEU_BATCH)
    with block_spy() as blocks:
        results = fast.run_campaign(faults, seed=7)
    assert any(done for done, _, _ in blocks)
    with slow_path():
        reference = slow.run_campaign(faults, seed=7)
    assert [record(r) for r in results] == \
        [record(r) for r in reference]


def test_flight_divergence_and_propagation_match_slow_path():
    fast, slow = runner_pair("pi")
    fast, slow = copy.copy(fast), copy.copy(slow)
    for runner in (fast, slow):
        runner._flight_marks = {}
        runner.enable_flight(32)
    faults = SEUGenerator(fast.golden.profile, seed=7).batch(SEU_BATCH)
    results = [fast.run_experiment(f) for f in faults]
    with slow_path():
        reference = [slow.run_experiment(f) for f in faults]
    assert any(r.divergence is not None for r in results)
    for result, expected in zip(results, reference):
        assert result.divergence == expected.divergence
        assert result.propagation == expected.propagation


# -- every kind, with the edge cases the workloads never hit ---------------------

KINDS_ASM = """
main:
    la s0, buf
    ldi s1, 40
    ldi t0, -5
loop:
    addq t0, 7, t1
    subl t0, s1, t2
    mull t0, t1, t3
    mulq t3, t3, t4
    divq t4, s1, t5
    remq t4, t1, t6
    sra t0, 3, t7
    srl t0, 60, a0
    sll t1, 5, a1
    cmplt t0, t1, a2
    cmpule t0, t1, a3
    bic t4, 15, a4
    ornot t0, zero, a5
    eqv t0, t1, t8
    sextb t4, t9
    sextw t4, t10
    cmoveq a2, 9, t11
    cmovne a2, t0, t11
    cmovlt t0, t1, s5
    cmovge t0, 3, s5
    addq zero, 5, zero
    addq zero, zero, s4
    stq t4, 0(s0)
    ldi s2, 0x40000001
    addq s2, s1, s2
    stl s2, 8(s0)
    ldl s3, 8(s0)
    sll s2, 1, s2
    stl s2, 8(s0)
    ldl s3, 8(s0)
    stb t1, 12(s0)
    ldbu s4, 12(s0)
    lda a0, 8(zero)
    ldah a1, -3(t0)
    itoft t0, f1
    cvtqt f1, f2
    addt f2, f2, f3
    mult f3, f2, f4
    divt f4, f3, f5
    sqrtt f4, f6
    subt f5, f6, f7
    cmptlt f2, f3, f8
    cpysn f2, f3, f9
    cvttq f9, f10
    ftoit f10, a3
    stt f7, 16(s0)
    ldt f11, 16(s0)
    fcmoveq f8, f2, f12
    fcmovne f8, f3, f12
    addt f31, f2, f31
    fbeq f8, skip1
    addq t0, 1, t0
skip1:
    blbs t0, skip2
    addq t0, 2, t0
skip2:
    la v0, target
    jsr v0, (v0)
    addq t0, 100, t0
target:
    subq s1, 1, s1
    bgt s1, loop
    ldi v0, 0
    ldi a0, 0
    callsys
    .data
buf: .space 32
"""


def _kinds_run():
    sim = Simulator(SimConfig(), injector=FaultInjector())
    process = sim.load(KINDS_ASM, "kinds")
    # Raw storage of the zero registers must never be read.
    sim.core.arch.intregs.poke(31, 0xDEAD)
    sim.core.arch.fpregs.poke(31, 0xBEEF)
    assert sim.run(max_instructions=100_000).status == "completed"
    arch = sim.core.arch
    return (sim.tick, sim.instructions, arch.intregs.snapshot(),
            arch.fpregs.snapshot(),
            sim.memory.peek_bytes(process.symbols["buf"], 32),
            sim.stats_dump())


def test_every_kind_matches_slow_path():
    with block_spy() as blocks:
        state = _kinds_run()
    assert sum(done for done, _, _ in blocks) > 1000
    with slow_path():
        assert state == _kinds_run()


# -- traps inside a block --------------------------------------------------------

_PROLOGUE = """
main:
    la t2, buf
    ldi t0, 90
loop:
    addq t1, 3, t1
    stq t1, 8(t2)
    subq t0, 1, t0
    bne t0, loop
"""
_EPILOGUE = """
    ldi v0, 0
    ldi a0, 0
    callsys
bad:
    nop
    .data
buf: .space 64
"""

TRAPS = {
    "misaligned_load": "ldq t3, 4(t2)",
    "misaligned_store": "stl t1, 2(t2)",
    "unmapped_load": "ldq t3, 256(zero)",
    "unmapped_store": "stq t1, 256(zero)",
    "store_to_text": "la t4, main\n    stq t1, 0(t4)",
    "divide_by_zero": "divq t1, zero, t3",
    "jump_to_unmapped": "ldi t4, 256\n    jmp ra, (t4)",
    "illegal_word_by_branch": "br bad",
}


def _trap_run(body: str, illegal: bool):
    sim = Simulator(SimConfig(), injector=FaultInjector())
    process = sim.load(_PROLOGUE + "    " + body + _EPILOGUE, "trap")
    if illegal:
        # Opcode 0x02 is unassigned: the word fails to decode.
        addr = process.symbols["bad"]
        sim.memory.pages[addr >> 12][addr & 0xFFF:(addr & 0xFFF) + 4] = \
            (0x02 << 26).to_bytes(4, "little")
    sim.run(max_instructions=100_000)
    return sim, sim.process(0)


def _trap_state(sim, process) -> tuple:
    arch = sim.core.arch
    return (process.crash_reason, process.crash_pc, process.instructions,
            sim.tick, sim.instructions, arch.pc,
            arch.intregs.snapshot(), arch.fpregs.snapshot())


@pytest.mark.parametrize("name", sorted(TRAPS))
def test_trap_inside_block_matches_slow_path(name):
    illegal = name == "illegal_word_by_branch"
    with block_spy() as blocks:
        sim, process = _trap_run(TRAPS[name], illegal)
    trapped = [(done, exc) for done, _, exc in blocks if exc is not None]
    assert len(trapped) == 1 and trapped[0][0] > 0, \
        "the trap must fire inside a block, after some instructions"
    with slow_path():
        ref_sim, ref_process = _trap_run(TRAPS[name], illegal)
    assert process.crash_reason is not None
    assert _trap_state(sim, process) == _trap_state(ref_sim, ref_process)


def test_undecodable_word_is_never_stored():
    _trap_run(TRAPS["illegal_word_by_branch"], illegal=True)
    assert 0x02 << 26 not in atomic.CLOSURES


# -- propagation watches ----------------------------------------------------------

WATCH_ASM = """
main:
    ldi t0, 100
    ldi a0, 0
    fi_activate
    addq t1, 1, t1
    addq t1, 1, t1
loop:
    addq t1, 3, t1
    subq t0, 1, t0
    bne t0, loop
    addq s5, t1, t2
    bis zero, t2, a0
    fi_activate
    ldi v0, 5
    callsys
    ldi v0, 0
    ldi a0, 0
    callsys
"""


def _watch_run(register: int):
    fault = ("RegisterInjectedFault Inst:2 Flip:3 Threadid:0 "
             f"system.cpu0 occ:1 int {register}")
    sim = Simulator(SimConfig(), injector=FaultInjector.from_text(fault))
    sim.load(WATCH_ASM, "watch")
    assert sim.run(max_instructions=100_000).status == "completed"
    return sim


@pytest.mark.parametrize("register,propagated", [
    (14, True),    # s5: read after the loop
    (3, False),    # t2: overwritten after the loop
    (31, True),    # zero: read by the bis
])
def test_watch_resolving_after_a_block_matches_slow_path(register,
                                                          propagated):
    with block_spy() as blocks:
        sim = _watch_run(register)
    assert any(done and watching for done, watching, _ in blocks), \
        "a block must run while the watch is pending"
    with slow_path():
        ref = _watch_run(register)
    (rec,), (ref_rec,) = sim.injector.records, ref.injector.records
    assert rec.propagated is propagated
    assert (rec.propagated, rec.resolved_tick) == \
        (ref_rec.propagated, ref_rec.resolved_tick)
    assert not sim.injector.has_watches
    assert sim.stats_dump() == ref.stats_dump()
    assert sim.console_text() == ref.console_text()


# -- block conditions --------------------------------------------------------------


def _sim(**config) -> Simulator:
    sim = Simulator(SimConfig(**config), injector=FaultInjector())
    sim.load(compile_source(MIXED_PROGRAM), "mixed")
    return sim


def test_block_conditions():
    assert _sim()._cold()
    assert not _sim(cpu_model="o3")._cold()
    assert not _sim(cpu_model="timing")._cold()
    assert not _sim(decode_cache=False)._cold()
    assert not _sim(fi_hash_lookup_per_instruction=True)._cold()

    sim = _sim()
    injector, core = sim.injector, sim.core
    core.fi_thread = object()
    for flag in ("hot_fetch", "hot_decode", "hot_execute", "hot_mem",
                 "hot_regfile"):
        setattr(injector, flag, True)
        assert not sim._cold(), flag
        setattr(injector, flag, False)
    assert sim._cold()

    class Tracer:
        started = False

    injector.install_tracer(Tracer())
    assert not sim._cold()          # the FI thread would start it
    core.fi_thread = None
    assert sim._cold()              # on_trace returns at once
    injector.tracer.started = True
    assert not sim._cold()


@pytest.mark.parametrize("model", ["timing", "o3"])
def test_other_models_never_enter_blocks(model):
    with block_spy() as blocks:
        sim = _sim(cpu_model=model)
        assert sim.run().status == "completed"
    assert blocks == []


def test_ablations_stay_on_slow_path():
    for config in ({"decode_cache": False},
                   {"fi_hash_lookup_per_instruction": True}):
        with block_spy() as blocks:
            assert _sim(**config).run().status == "completed"
        assert blocks == [], config


def test_hash_lookup_ablation_is_a_per_instance_override():
    sim = _sim(fi_hash_lookup_per_instruction=True)
    assert "serve_instruction" in vars(sim.core)
    assert "serve_instruction" not in vars(_sim().core)
    profiler = Profiler().install(sim)
    profiler.uninstall()
    override = vars(sim.core)["serve_instruction"]
    assert not hasattr(override, "__profiled__")


# -- profiler ------------------------------------------------------------------------


def test_profiler_attributes_blocks():
    sim = _sim()
    profiler = Profiler().install(sim)
    assert sim.run().status == "completed"
    assert profiler.attribution().get("cpu.block", 0.0) > 0.0
    assert profiler.coverage() >= 0.90
    profiler.uninstall()
    assert "run_block" not in vars(sim.cpu)


# -- the region memo -------------------------------------------------------------------


def test_region_memo_forgets_unmapped_and_restored_regions():
    memory = MainMemory()
    memory.map_region("a", 0x1000, 0x1000)
    memory.write(0x1008, 8, 5)
    assert memory.fetch(0x1008) == 5
    snap = memory.snapshot()
    memory.unmap_region("a")
    with pytest.raises(UnmappedAccess):
        memory.read(0x1008, 8)
    with pytest.raises(UnmappedAccess):
        memory.fetch(0x1008)
    memory.restore(snap)
    assert memory.read(0x1008, 8) == 5
    assert memory.fetch(0x1008) == 5
    memory.restore({"pages": {}, "regions": []})
    with pytest.raises(UnmappedAccess):
        memory.read(0x1008, 8)
    with pytest.raises(UnmappedAccess):
        memory.fetch(0x1008)
    memory.map_region("b", 0x1000, 0x1000, writable=False)
    with pytest.raises(UnmappedAccess):
        memory.write(0x1008, 8, 1)
