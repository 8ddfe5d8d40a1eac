"""Checkpoint ladder + reconvergence exit: outcome oracles.

Every experiment result must be byte-identical (minus host times and
the two ladder fields) to the same experiment started from the boot
checkpoint and run to completion.  The reference is the same runner
with its ladder cut to the boot rung — a data change, not a flag.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from repro.campaign import CampaignRunner, Outcome, SEUGenerator
from repro.campaign import runner as runner_module
from repro.campaign.generator import WindowProfile
from repro.campaign.runner import RUNG_STRIDE_POLLS
from repro.core import FaultInjector
from repro.core import parse_fault_line as fault
from repro.core.fault import InjectionRecord
from repro.sim import SimConfig, Simulator
from repro.sim.checkpoint import dumps_checkpoint, restore_checkpoint
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
] + [("dct", "atomic", None, 32), ("jacobi", "timing", None, 32)]


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
    if model == "o3" or detailed is not None:
        # O3's snapshot drops in-flight state: boot rung only, no exit.
        assert len(runner.golden.rungs) == 1
        assert all(r.replay_start == 0 and r.early_exit is None
                   for r in results)
    else:
        # Every window spans several strides, deblocking/tiny's ~2k
        # instructions included.
        assert len(runner.golden.rungs) > 1
        assert any(r.replay_start > 0 for r in results)
    if flight:
        assert any(r.divergence for r in results)


def test_ladder_starts_and_exits_across_workloads():
    """The oracle above is not vacuous: later rungs and early exits
    both happen on the pinned seeds."""
    exits = 0
    for name in WORKLOAD_NAMES:
        for result in pinned_results(name, "atomic", None, None):
            if result.early_exit is not None:
                exits += 1
                assert result.early_exit > result.replay_start
                assert result.outcome in (Outcome.NON_PROPAGATED,
                                          Outcome.STRICTLY_CORRECT)
    assert exits > 0


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
