"""Checkpoint ladder + reconvergence exit: outcome oracles.

Every experiment result must be byte-identical (minus host times and
the two ladder fields) to the same experiment started from the boot
checkpoint and run to completion.  The reference is the same runner
with its ladder cut to the boot rung — a data change, not a flag.  A
detailed-model runner harvests its ladder from its own experiments;
its cut copy has no slots left to harvest.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle

import pytest

from repro.campaign import CampaignRunner, Outcome, SEUGenerator
from repro.campaign import runner as runner_module
from repro.campaign.generator import WindowProfile
from repro.campaign.runner import RUNG_STRIDE_POLLS, _stride
from repro.core import FaultInjector
from repro.core import parse_fault_line as fault
from repro.core.fault import InjectionRecord
from repro.cpu.o3 import O3CPU
from repro.sim import SimConfig, Simulator
from repro.sim.checkpoint import (dumps_checkpoint, matches_rung,
                                  restore_checkpoint)
from repro.sim.config import POLL_INTERVAL
from repro.telemetry import ListSink, TraceBus
from repro.workloads import WORKLOAD_NAMES, build
from repro.workloads.quality import extract_outputs
from repro.workloads.spec import WorkloadSpec

#: result fields that legitimately differ between the two runners
HOST_FIELDS = ("wall_seconds", "phases", "replay_start", "early_exit")

_RUNNERS: dict[tuple, CampaignRunner] = {}
_RESULTS: dict[tuple, list] = {}


def runner_for(workload: str, model: str = "atomic",
               detailed: str | None = None,
               flight: int | None = None) -> CampaignRunner:
    key = (workload, model, detailed, flight)
    if key not in _RUNNERS:
        if flight:
            # Same golden run as the plain runner, recorder on.
            runner = copy.copy(runner_for(workload, model, detailed))
            runner._flight_marks = {}
            runner.enable_flight(flight)
        else:
            runner = CampaignRunner(build(workload, "tiny"),
                                    config=SimConfig(cpu_model=model),
                                    detailed_model=detailed)
        _RUNNERS[key] = runner
    return _RUNNERS[key]


def boot_only(runner: CampaignRunner) -> CampaignRunner:
    """The same runner with its ladder cut to the boot rung."""
    cut = copy.copy(runner)
    cut.golden = dataclasses.replace(runner.golden,
                                     rungs=runner.golden.rungs[:1])
    return cut


def record(result) -> str:
    payload = result.as_dict()
    for key in HOST_FIELDS:
        payload.pop(key)
    return json.dumps(payload, sort_keys=True)


def assert_oracle(runner: CampaignRunner, faults: list) -> list:
    results = runner.run_campaign(faults)
    if len(runner.golden.rungs) == 1:
        # Already boot-only: the cut copy would be the same runner.
        reference = results
    else:
        reference = boot_only(runner).run_campaign(faults)
    for result, expected in zip(results, reference):
        assert record(result) == record(expected), \
            result.fault.describe()
        assert expected.replay_start == 0
        assert expected.early_exit is None
    return results


# -- byte-identity over workloads x CPU models ---------------------------------

CASES = [(name, "atomic", None, None) for name in WORKLOAD_NAMES] + [
    (name, model, detailed, None)
    for name in ("dct", "jacobi")
    for model, detailed in (("timing", None), ("inorder", None),
                            ("o3", None), ("atomic", "o3"))
] + [("jacobi", "atomic", "inorder", None),
     ("dct", "atomic", None, 32), ("jacobi", "timing", None, 32),
     ("jacobi", "atomic", "o3", 32)]


def pinned_results(*case) -> list:
    """The oracle-checked results of one case at seed 7 (cached)."""
    if case not in _RESULTS:
        runner = runner_for(*case)
        faults = SEUGenerator(runner.golden.profile, seed=7).batch(6)
        _RESULTS[case] = assert_oracle(runner, faults)
    return _RESULTS[case]


@pytest.mark.parametrize("workload,model,detailed,flight", CASES)
def test_results_byte_identical_to_boot_rung(workload, model, detailed,
                                             flight):
    runner = runner_for(workload, model, detailed, flight)
    results = pinned_results(workload, model, detailed, flight)
    # Every window spans several strides, deblocking/tiny's ~2k
    # instructions included.
    assert len(runner.golden.rungs) > 1
    if detailed is not None and flight:
        # Harvested rungs have no flight mark: these runs start at boot.
        assert all(r.replay_start == 0 for r in results)
    else:
        assert any(r.replay_start > 0 for r in results)
    if detailed is not None:
        # Their ticks differ from the atomic golden run's.
        assert all(r.early_exit is None for r in results)
    if flight:
        assert any(r.divergence for r in results)


def _exits(case) -> int:
    exits = 0
    for result in pinned_results(*case):
        if result.early_exit is not None:
            exits += 1
            assert result.early_exit > result.replay_start
            assert result.outcome in (Outcome.NON_PROPAGATED,
                                      Outcome.STRICTLY_CORRECT)
    return exits


def test_ladder_starts_and_exits_across_workloads():
    """The oracle above is not vacuous: later rungs and early exits
    both happen on the pinned seeds."""
    assert sum(_exits((name, "atomic", None, None))
               for name in WORKLOAD_NAMES) > 0


@pytest.mark.parametrize("workload", ["dct", "jacobi"])
def test_o3_runs_exit_at_lossless_rungs(workload):
    """O3 as the base model rejoins its golden run: the rungs keep the
    in-flight pipeline and the exit compares it."""
    assert _exits((workload, "o3", None, None)) > 0


MT_SOURCE = """
OUT = iarray(2)

def worker(which):
    print_int(which)
    fi_activate_inst(0)
    total = 0
    for i in range(3000):
        total += i * (which + 1)
        if i % 500 == 0:
            print_char(65 + which)
    OUT[which] = total
    fi_activate_inst(0)
    return 0

def helper(which):
    total = 0
    for i in range(3000):
        total += i ^ which
        if i % 700 == 0:
            print_char(97 + which)
    OUT[which] = total
    return 0

def main():
    fi_read_init_all()
    t1 = spawn(worker, 0)
    t2 = spawn(helper, 1)
    while join(t1) == 0 or join(t2) == 0:
        sched_yield()
    print_int(OUT[0])
    exit(0)
"""


def test_multithreaded_program_byte_identical():
    """Rungs taken while printing threads are alive and the FI thread
    is switched in or out restore the shared console exactly."""
    spec = WorkloadSpec(name="mt", source=MT_SOURCE,
                        output_arrays=[("OUT", 2, "int")])
    runner = CampaignRunner(spec, config=SimConfig(quantum=1000))
    windows = {rung.window for rung in runner.golden.rungs[1:]}
    assert len(windows) > 1
    faults = SEUGenerator(runner.golden.profile, seed=5).batch(6)
    results = assert_oracle(runner, faults)
    assert any(r.replay_start > 0 for r in results)


# -- the golden run is unchanged by restore-through + rung capture ------------


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_golden_artifacts_match_an_unbroken_run(workload):
    runner = runner_for(workload)
    spec = build(workload, "tiny")
    injector = FaultInjector()
    sim = Simulator(SimConfig(), injector=injector)
    sim.load(runner.asm, spec.name)
    holder = {}
    sim.on_checkpoint = lambda s: holder.__setitem__(
        "blob", dumps_checkpoint(s))
    sim.run(until_checkpoint=True, max_instructions=50_000_000)
    sim.on_checkpoint = None
    result = sim.run(max_instructions=50_000_000)
    golden = runner.golden
    assert golden.checkpoint == holder["blob"]
    assert golden.instructions == result.instructions
    assert golden.ticks == result.ticks
    assert golden.profile == WindowProfile.from_injector_window(
        injector.windows[0])
    assert golden.console == sim.process(0).console_text()
    assert golden.outputs == extract_outputs(spec, sim, sim.process(0))
    assert golden.stats_dump == sim.stats_dump()


def test_harvest_slots_follow_the_climb_stride():
    """A detailed runner's empty slots sit where an atomic climb over
    the same run puts its rungs."""
    climbed = runner_for("dct").golden
    length = climbed.instructions - climbed.boot_instructions
    stride = _stride(length)
    assert [r.position for r in climbed.rungs] == \
        list(range(0, length, stride))
    slots = CampaignRunner(build("dct", "tiny"),
                           detailed_model="o3").golden.rungs
    assert [r.position for r in slots] == list(range(0, length, stride))
    assert all(r.state is None and r.thread_id is None for r in slots)


def test_full_ladder_doubles_its_stride(monkeypatch):
    monkeypatch.setattr(runner_module, "LADDER_RUNGS", 4)
    runner = CampaignRunner(build("dct", "tiny"))
    rungs = runner.golden.rungs
    assert 2 < len(rungs) <= 4
    assert rungs[0].position == 0 and rungs[0].state is None
    gaps = {b.position - a.position for a, b in zip(rungs, rungs[1:])}
    stride = RUNG_STRIDE_POLLS * POLL_INTERVAL
    assert len(gaps) == 1
    multiple, remainder = divmod(gaps.pop(), stride)
    assert remainder == 0
    assert multiple >= 2 and multiple & (multiple - 1) == 0
    assert_oracle(runner,
                  SEUGenerator(runner.golden.profile, seed=3).batch(3))


# -- rung choice ----------------------------------------------------------------


def _reg(time: int, thread: int = 0, mode: str = "Inst") -> str:
    return (f"RegisterInjectedFault {mode}:{time} Flip:3 "
            f"Threadid:{thread} system.cpu0 occ:1 int 9")


class TestRungChoice:
    @pytest.fixture(scope="class")
    def runner(self):
        return runner_for("dct")

    def test_fault_at_time_one_starts_at_boot(self, runner):
        assert runner._start_rung([fault(_reg(1))]).position == 0

    @pytest.mark.parametrize("delta,later", [(-1, False), (0, False),
                                             (1, True)])
    def test_fault_around_a_rungs_window_position(self, runner, delta,
                                                  later):
        rungs = runner.golden.rungs
        rung, before = rungs[3], rungs[2]
        faults = [fault(_reg(rung.window + delta))]
        chosen = runner._start_rung(faults)
        assert chosen is (rung if later else before)
        assert_oracle(runner, [faults])

    def test_fault_at_window_end(self, runner):
        end = runner.golden.profile.committed
        faults = [fault(_reg(end))]
        usable = [r for r in runner.golden.rungs[1:]
                  if r.thread_id is not None and r.window < end]
        assert runner._start_rung(faults) is usable[-1]
        assert_oracle(runner, [faults])

    def test_two_faults_start_before_the_earliest(self, runner):
        rungs = runner.golden.rungs
        faults = [fault(_reg(rungs[5].window + 10)),
                  fault(_reg(rungs[2].window + 10))]
        assert runner._start_rung(faults) is rungs[2]
        assert_oracle(runner, [faults])

    def test_tick_timed_fault_starts_at_boot(self, runner):
        faults = [fault(_reg(30_000, mode="Tick"))]
        assert runner._start_rung(faults).position == 0
        assert_oracle(runner, [faults])

    def test_other_thread_starts_at_boot(self, runner):
        faults = [fault(_reg(30_000, thread=1))]
        assert runner._start_rung(faults).position == 0
        assert_oracle(runner, [faults])


# -- exit refusals ---------------------------------------------------------------


class TestExitRule:
    @pytest.fixture(scope="class")
    def runner(self):
        return runner_for("dct")

    def _masked(self, runner, occ: str = "1"):
        time = runner.golden.rungs[4].window + 5
        return [fault(f"RegisterInjectedFault Inst:{time} Xor:0x0 "
                      f"Threadid:0 system.cpu0 occ:{occ} int 9")]

    def test_masked_fault_exits_at_the_next_rung(self, runner):
        result, = assert_oracle(runner, [self._masked(runner)])
        rungs = runner.golden.rungs
        assert result.replay_start == rungs[4].position
        assert result.early_exit == rungs[5].position
        assert result.outcome is Outcome.NON_PROPAGATED
        golden = runner.golden
        assert result.instructions == \
            golden.instructions - golden.boot_instructions
        assert result.ticks == golden.ticks
        assert result.console == golden.console

    def test_permanent_fault_never_exits(self, runner):
        result, = assert_oracle(runner,
                                [self._masked(runner, "permanent")])
        assert result.early_exit is None

    def test_fault_that_never_fired_never_exits(self, runner):
        end = runner.golden.profile.committed
        faults = [fault("MemoryInjectedFault "
                        f"Inst:{end + 10_000} Flip:1 Threadid:0 "
                        "system.cpu0 occ:1")]
        result, = assert_oracle(runner, [faults])
        assert not result.injected
        assert result.early_exit is None

    def test_pending_watch_refuses_an_equal_state(self, runner):
        rung = runner.golden.rungs[6]
        sim = restore_checkpoint(rung.state)
        injector = sim.injector
        assert not runner._rejoined(sim, rung, None)  # nothing fired
        injector.records.append(InjectionRecord(
            fault=fault(_reg(1)), tick=sim.tick, instruction_count=1,
            pc=0, asm=""))
        assert runner._rejoined(sim, rung, None)
        injector._watches[("int", 9)] = injector.records[0]
        injector.has_watches = True
        assert not runner._rejoined(sim, rung, None)

    def test_trace_bus_gets_one_reconverged_event(self, runner):
        sink = ListSink()
        runner.bus = TraceBus(sink)
        try:
            result = runner.run_experiment(self._masked(runner))
        finally:
            runner.bus = None
        events = sink.of_kind("reconverged")
        assert len(events) == 1
        assert events[0].data["instructions"] == result.early_exit
        assert sink.events[-1].kind == "experiment_end"


# -- lossless O3 rungs and the harvested detailed ladder -----------------------

STAGE_FAULTS = {
    "fetch": "FetchStageInjectedFault Inst:{t} Flip:5 Threadid:0 "
             "system.cpu0 occ:1",
    "decode": "DecodeStageInjectedFault Inst:{t} Flip:2 Threadid:0 "
              "system.cpu0 occ:1 src 0",
    "execute": "ExecutionStageInjectedFault Inst:{t} Flip:3 Threadid:0 "
               "system.cpu0 occ:1",
    "mem": "MemoryInjectedFault Inst:{t} Flip:1 Threadid:0 system.cpu0 "
           "occ:1",
    "int_reg": _reg("{t}"),
    "pc": "PCInjectedFault Inst:{t} Flip:2 Threadid:0 system.cpu0 occ:1",
}

O3_RUNNERS = [("o3", None), ("atomic", "o3")]


def o3_runner(model: str, detailed: str | None) -> CampaignRunner:
    """A jacobi runner on O3 whose ladder is complete: a detailed one
    has run a fault that never fires, which fills every slot."""
    runner = runner_for("jacobi", model, detailed)
    if any(r.state is None for r in runner.golden.rungs[1:]):
        end = runner.golden.profile.committed
        result = runner.run_experiment([fault(_reg(end + 10_000))])
        assert not result.injected
    assert all(r.state is not None for r in runner.golden.rungs[1:])
    return runner


def executed_head_rung(runner: CampaignRunner) -> tuple:
    """The first rung whose ROB head has executed and waits out its
    latency, and the instructions its FI thread has committed there."""
    for rung in runner.golden.rungs[1:]:
        sim = restore_checkpoint(rung.state)
        if rung.thread_id is not None and sim.cpu.executed_ahead:
            core = sim.core
            return rung, core.fi_thread.effective_committed(core.committed)
    raise AssertionError("no rung with an executed ROB head")


class TestO3RungChoice:
    """At a rung whose ROB head has executed, the execute and mem hooks
    have already fired for the next instruction, so a fault timed at it
    must start at an earlier rung; one timed after it may start here."""

    @pytest.mark.parametrize("model,detailed", O3_RUNNERS)
    @pytest.mark.parametrize("stage", list(STAGE_FAULTS))
    @pytest.mark.parametrize("ahead", [1, 2])
    def test_fault_after_an_executed_head(self, model, detailed, stage,
                                          ahead):
        runner = o3_runner(model, detailed)
        rung, committed = executed_head_rung(runner)
        faults = [fault(STAGE_FAULTS[stage].format(t=committed + ahead))]
        chosen = runner._start_rung(faults)
        if ahead == 1:
            assert chosen.position < rung.position
        else:
            assert chosen is rung
        assert_oracle(runner, [faults])


def test_exit_compares_the_in_flight_pipeline():
    """A state equal to an O3 rung in everything but the pipeline has
    not rejoined the golden run."""
    runner = o3_runner("o3", None)
    rung, _ = executed_head_rung(runner)
    sim = restore_checkpoint(rung.state)
    assert matches_rung(sim, rung.state)
    sim.cpu.rob.pop()
    assert not matches_rung(sim, rung.state)
    sim = restore_checkpoint(rung.state)
    sim.cpu.fetch_stall_until += 1
    assert not matches_rung(sim, rung.state)


def test_detailed_records_do_not_depend_on_order():
    """Two fresh detailed runners, one fault list in two orders: each
    fault's record is the same, wherever its run started."""
    faults = SEUGenerator(runner_for("jacobi", "atomic", "o3")
                          .golden.profile, seed=11).batch(16)
    order = list(range(len(faults)))
    shuffled = order[::2][::-1] + order[1::2]
    runs = []
    for indices in (order, shuffled):
        runner = CampaignRunner(build("jacobi", "tiny"),
                                detailed_model="o3")
        results = runner.run_campaign([faults[i] for i in indices])
        runs.append(dict(zip(indices, results)))
    forward, backward = runs
    assert all(record(forward[i]) == record(backward[i]) for i in order)
    assert any(forward[i].replay_start != backward[i].replay_start
               for i in order)


@pytest.mark.parametrize("model,detailed", O3_RUNNERS)
def test_restoring_an_o3_rung_leaves_it_intact(model, detailed):
    runner = o3_runner(model, detailed)
    rung, _ = executed_head_rung(runner)
    before = copy.deepcopy(rung)
    faults = [fault(_reg(rung.window + 5))]
    first, second = (runner.run_experiment(faults) for _ in range(2))
    assert first.replay_start == second.replay_start == rung.position
    assert record(first) == record(second)
    assert rung == before


def test_no_rung_is_harvested_after_an_injection(monkeypatch):
    """A detailed run stops harvesting at its first injection record,
    here a fetch-stage one on a wrong-path instruction, so no rung is
    taken after it or after the switch to atomic."""
    fired, squashed = [], set()
    on_fetch = FaultInjector.on_fetch
    note_squash = O3CPU._note_squash

    def spy_fetch(self, core, thread, pc, word):
        corrupted = on_fetch(self, core, thread, pc, word)
        if corrupted != word:
            fired.append((pc, corrupted, self.clock()))
        return corrupted

    def spy_squash(self, entries, reason):
        if reason == "mispredict":
            squashed.update((e.pc, e.decoded.word) for e in entries
                            if e.decoded is not None)
        note_squash(self, entries, reason)

    monkeypatch.setattr(FaultInjector, "on_fetch", spy_fetch)
    monkeypatch.setattr(O3CPU, "_note_squash", spy_squash)
    reference = boot_only(runner_for("jacobi", "atomic", "o3"))
    middle = reference.golden.profile.committed // 2
    for time in range(middle, middle + 700, 7):
        fired.clear()
        squashed.clear()
        faults = [fault(STAGE_FAULTS["fetch"].format(t=time))]
        reference.run_experiment(faults)
        pc, word, tick = fired[0]
        if (pc, word) in squashed:
            break
    else:
        raise AssertionError("no fetch fault struck a wrong-path word")
    runner = CampaignRunner(build("jacobi", "tiny"), detailed_model="o3")
    result = runner.run_experiment(faults)
    assert result.replay_start == 0 and result.injected
    assert fired[-1][2] == tick
    slots = runner.golden.rungs[1:]
    harvested = [r for r in slots if r.state is not None]
    assert harvested and len(harvested) < len(slots)
    assert all(r.state["tick"] < tick and r.state["cpu_model"] == "o3"
               for r in harvested)
    assert all(r.state is None for r in slots
               if r.position > harvested[-1].position)


def test_o3_golden_run_survives_a_pickle_round_trip():
    runner = runner_for("jacobi", "o3")
    golden = pickle.loads(pickle.dumps(runner.golden))
    loaded = CampaignRunner(runner.spec, config=runner.config,
                            golden=golden)
    faults = SEUGenerator(golden.profile, seed=7).batch(6)
    for result, expected in zip(loaded.run_campaign(faults),
                                pinned_results("jacobi", "o3", None,
                                               None)):
        assert record(result) == record(expected)
        assert (result.replay_start, result.early_exit) == \
            (expected.replay_start, expected.early_exit)
