"""Liveness analysis & campaign pruning tests (repro.analysis)."""

import types

import pytest

from repro.analysis import (
    DefUseTracer,
    LIVE,
    LivenessAnalysis,
    MASKED_BIT_OUT_OF_RANGE,
    MASKED_DEAD_DESTINATION,
    MASKED_DEAD_REGISTER,
    MASKED_DEAD_RESULT,
    MASKED_DISCARDED_WRITE,
    MASKED_EQUAL_VALUE_SOURCE,
    MASKED_NEVER_TRIGGERS,
    MASKED_NO_OPERAND_FIELDS,
    MASKED_OVERWRITTEN_REGISTER,
    MASKED_OVERWRITTEN_RESULT,
    MASKED_OVERWRITTEN_STORE,
    MASKED_ZERO_REGISTER,
    SiteVerdict,
    TraceEvent,
)
from repro.campaign import (
    CampaignRunner,
    Outcome,
    SEUGenerator,
    by_location,
    summary,
)
from repro.compiler import compile_source
from repro.core import FaultInjector, render_fault_file
from repro.core.fault import (
    Behavior,
    BehaviorKind,
    Fault,
    LocationKind,
    TimeMode,
)
from repro.isa.encoding import encode_operate, encode_palcode
from repro.isa.instructions import KIND_ALU, KIND_LOAD, KIND_STORE
from repro.sim import SimConfig, Simulator
from repro.workloads import build


# -- helpers ----------------------------------------------------------------------

# Only used where the classifier never decodes the word.
NOP_WORD = 0x47FF041F
# addq r1, r2, r3 (operate format: ra=[25:21], rb=[20:16], rc=[4:0]).
ADDQ_1_2_3 = encode_operate(0x10, 1, 2, 0x20, 3)
CALLSYS_WORD = encode_palcode(0x00, 0x83)


def seu(location, time, bit, reg_index=0, operand_role="src",
        operand_index=0):
    return Fault(location=location, time_mode=TimeMode.INSTRUCTIONS,
                 time=time,
                 behavior=Behavior(kind=BehaviorKind.FLIP, bits=(bit,),
                                   occ=1),
                 reg_index=reg_index, operand_role=operand_role,
                 operand_index=operand_index)


def ev(widx, kind=KIND_ALU, reads=(), writes=(), values=None,
       word=NOP_WORD, mem_addr=None, mem_size=8, is_load=False,
       is_syscall=False):
    writes = tuple(writes)
    if values is None:
        values = tuple(0 for _ in writes)
    return TraceEvent(window_index=widx, pc=0x1000, word=word, kind=kind,
                      reads=tuple(reads), writes=writes,
                      mem_addr=mem_addr, mem_size=mem_size,
                      is_load=is_load, is_syscall=is_syscall,
                      write_values=tuple(values))


def analysis_of(events, initial=None, context_switches=0):
    tracer = DefUseTracer()
    tracer.events = list(events)
    tracer.started = True
    tracer.initial_regs = {} if initial is None else dict(initial)
    tracer.context_switches = context_switches
    return LivenessAnalysis(tracer)


# -- synthetic-trace classification -----------------------------------------------


class TestRegisterLiveness:
    def test_dead_register(self):
        analysis = analysis_of([ev(1, writes=[("int", 5)])])
        verdict = analysis.classify(
            seu(LocationKind.INT_REG, 1, 3, reg_index=5))
        assert verdict.masked
        assert verdict.reason == MASKED_DEAD_REGISTER
        assert verdict.injected

    def test_overwritten_register(self):
        analysis = analysis_of([ev(1, writes=[("int", 5)]),
                                ev(2, writes=[("int", 5)])])
        verdict = analysis.classify(
            seu(LocationKind.INT_REG, 1, 3, reg_index=5))
        assert verdict.reason == MASKED_OVERWRITTEN_REGISTER

    def test_read_before_overwrite_is_live(self):
        analysis = analysis_of([ev(1, writes=[("int", 5)]),
                                ev(2, reads=[("int", 5)],
                                   writes=[("int", 5)])])
        verdict = analysis.classify(
            seu(LocationKind.INT_REG, 1, 3, reg_index=5))
        assert verdict.live

    def test_zero_register_masked_with_propagation_prediction(self):
        read_after = analysis_of([ev(1, writes=[("int", 5)]),
                                  ev(2, reads=[("int", 31)])])
        verdict = read_after.classify(
            seu(LocationKind.INT_REG, 1, 0, reg_index=31))
        assert verdict.reason == MASKED_ZERO_REGISTER
        assert verdict.propagated
        never_read = analysis_of([ev(1, writes=[("int", 5)])])
        verdict = never_read.classify(
            seu(LocationKind.INT_REG, 1, 0, reg_index=31))
        assert verdict.reason == MASKED_ZERO_REGISTER
        assert not verdict.propagated

    def test_exit_barrier_keeps_exit_code_registers_live(self):
        # v0/a0 feed the final exit() syscall, which never commits.
        for reg in (0, 16):
            analysis = analysis_of([ev(1, writes=[("int", reg)])])
            verdict = analysis.classify(
                seu(LocationKind.INT_REG, 1, 2, reg_index=reg))
            assert verdict.live, f"r{reg} must stay live"
        # a1 is loaded by the dispatcher but discarded by exit.
        analysis = analysis_of([ev(1, writes=[("int", 17)])])
        verdict = analysis.classify(
            seu(LocationKind.INT_REG, 1, 2, reg_index=17))
        assert verdict.reason == MASKED_DEAD_REGISTER

    def test_never_triggers_beyond_window(self):
        analysis = analysis_of([ev(1, writes=[("int", 5)])])
        verdict = analysis.classify(
            seu(LocationKind.INT_REG, 3, 0, reg_index=5))
        assert verdict.reason == MASKED_NEVER_TRIGGERS
        assert not verdict.injected

    def test_bit_out_of_range(self):
        analysis = analysis_of([ev(1, writes=[("int", 5)]),
                                ev(2, reads=[("int", 5)])])
        verdict = analysis.classify(
            seu(LocationKind.INT_REG, 1, 64, reg_index=5))
        assert verdict.reason == MASKED_BIT_OUT_OF_RANGE

    def test_tainted_trace_refuses_to_prune(self):
        analysis = analysis_of([ev(1, writes=[("int", 5)])],
                               context_switches=1)
        verdict = analysis.classify(
            seu(LocationKind.INT_REG, 1, 3, reg_index=5))
        assert verdict.live

    def test_non_seu_shapes_stay_live(self):
        analysis = analysis_of([ev(1, writes=[("int", 5)])])
        fault = seu(LocationKind.INT_REG, 1, 3, reg_index=5)
        multi_bit = Fault(
            location=fault.location, time_mode=fault.time_mode,
            time=fault.time,
            behavior=Behavior(kind=BehaviorKind.FLIP, bits=(1, 2), occ=1),
            reg_index=5)
        assert analysis.classify(multi_bit).live
        # PC faults always redirect control flow: live.
        assert analysis.classify(seu(LocationKind.PC, 1, 3)).live


class TestExecuteAndMemLiveness:
    def test_execute_dead_result(self):
        analysis = analysis_of([ev(1, writes=[("int", 5)], values=(7,))])
        verdict = analysis.classify(seu(LocationKind.EXECUTE, 1, 0))
        assert verdict.reason == MASKED_DEAD_RESULT
        assert verdict.propagated

    def test_execute_overwritten_result(self):
        analysis = analysis_of([ev(1, writes=[("int", 5)]),
                                ev(2, writes=[("int", 5)])])
        verdict = analysis.classify(seu(LocationKind.EXECUTE, 1, 0))
        assert verdict.reason == MASKED_OVERWRITTEN_RESULT

    def test_execute_discarded_write(self):
        analysis = analysis_of([ev(1, writes=[("int", 31)])])
        verdict = analysis.classify(seu(LocationKind.EXECUTE, 1, 0))
        assert verdict.reason == MASKED_DISCARDED_WRITE

    def test_execute_address_corruption_is_live(self):
        # Effective-address flips on a load are never provably masked.
        analysis = analysis_of([ev(1, KIND_LOAD, writes=[("int", 5)],
                                   mem_addr=0x100, is_load=True)])
        verdict = analysis.classify(seu(LocationKind.EXECUTE, 1, 0))
        assert verdict.live

    def test_store_byte_overwritten_before_any_read(self):
        analysis = analysis_of([
            ev(1, KIND_STORE, mem_addr=0x200),
            ev(2, KIND_STORE, mem_addr=0x200)])
        verdict = analysis.classify(seu(LocationKind.MEM, 1, 0))
        assert verdict.reason == MASKED_OVERWRITTEN_STORE

    def test_intervening_load_keeps_store_live(self):
        analysis = analysis_of([
            ev(1, KIND_STORE, mem_addr=0x200),
            ev(2, KIND_LOAD, writes=[("int", 5)], mem_addr=0x200,
               is_load=True),
            ev(3, KIND_STORE, mem_addr=0x200)])
        verdict = analysis.classify(seu(LocationKind.MEM, 1, 0))
        assert verdict.live

    def test_syscall_is_a_memory_read_barrier(self):
        analysis = analysis_of([
            ev(1, KIND_STORE, mem_addr=0x200),
            ev(None, is_syscall=True),
            ev(2, KIND_STORE, mem_addr=0x200)])
        verdict = analysis.classify(seu(LocationKind.MEM, 1, 0))
        assert verdict.live

    def test_final_memory_stays_live(self):
        # Campaign outputs are extracted from final memory, so a store
        # that is never touched again is NOT dead.
        analysis = analysis_of([ev(1, KIND_STORE, mem_addr=0x200)])
        assert analysis.classify(seu(LocationKind.MEM, 1, 0)).live

    def test_store_bit_beyond_access_width(self):
        analysis = analysis_of([ev(1, KIND_STORE, mem_addr=0x200,
                                   mem_size=4)])
        verdict = analysis.classify(seu(LocationKind.MEM, 1, 40))
        assert verdict.reason == MASKED_BIT_OUT_OF_RANGE

    def test_load_value_into_dead_register(self):
        analysis = analysis_of([ev(1, KIND_LOAD, writes=[("int", 7)],
                                   mem_addr=0x100, is_load=True)])
        verdict = analysis.classify(seu(LocationKind.MEM, 1, 0))
        assert verdict.reason == MASKED_DEAD_RESULT
        assert verdict.propagated


class TestFetchDecodeLiveness:
    def test_decode_src_redirect_to_equal_valued_register(self):
        # addq r1, r2 -> r3 with r1 == r5: flipping bit 2 of the ra
        # selection redirects r1 -> r5 and reads the same value.
        events = [ev(1, word=ADDQ_1_2_3,
                     reads=[("int", 1), ("int", 2)],
                     writes=[("int", 3)], values=(49,)),
                  ev(2, reads=[("int", 3)], writes=[("int", 4)])]
        initial = {("int", 1): 42, ("int", 5): 42, ("int", 2): 7}
        analysis = analysis_of(events, initial=initial)
        verdict = analysis.classify(
            seu(LocationKind.DECODE, 1, 2, operand_role="src",
                operand_index=0))
        assert verdict.reason == MASKED_EQUAL_VALUE_SOURCE
        assert verdict.propagated
        # Different values: the redirect changes an operand -> live.
        analysis = analysis_of(events,
                               initial={("int", 1): 42, ("int", 5): 43,
                                        ("int", 2): 7})
        verdict = analysis.classify(
            seu(LocationKind.DECODE, 1, 2, operand_role="src",
                operand_index=0))
        assert verdict.live

    def test_equal_value_rule_disabled_without_values(self):
        # A trace recorded without register values must never use it.
        events = [ev(1, word=ADDQ_1_2_3, reads=[("int", 1), ("int", 2)],
                     writes=[("int", 3)], values=(49,)),
                  ev(2, reads=[("int", 3)])]
        tracer = DefUseTracer()
        tracer.events = events
        tracer.started = True
        tracer.initial_regs = None     # no initial snapshot
        analysis = LivenessAnalysis(tracer)
        verdict = analysis.classify(
            seu(LocationKind.DECODE, 1, 2, operand_role="src",
                operand_index=0))
        assert verdict.live

    def test_decode_dst_redirect_between_dead_registers(self):
        # addq r1, r2 -> r3, r3 never read again; bit 1 redirects the
        # write to r1, whose next access is a write.
        events = [ev(1, word=ADDQ_1_2_3,
                     reads=[("int", 1), ("int", 2)],
                     writes=[("int", 3)]),
                  ev(2, writes=[("int", 1)])]
        analysis = analysis_of(events)
        verdict = analysis.classify(
            seu(LocationKind.DECODE, 1, 1, operand_role="dst",
                operand_index=0))
        assert verdict.reason == MASKED_DEAD_DESTINATION
        assert verdict.propagated
        # If the stale value in r3 would be read, the site is live.
        live_events = [ev(1, word=ADDQ_1_2_3, writes=[("int", 3)]),
                       ev(2, reads=[("int", 3)]),
                       ev(3, writes=[("int", 1)])]
        analysis = analysis_of(live_events)
        assert analysis.classify(
            seu(LocationKind.DECODE, 1, 1, operand_role="dst",
                operand_index=0)).live

    def test_decode_fault_without_operand_fields(self):
        analysis = analysis_of([ev(1, word=CALLSYS_WORD)])
        verdict = analysis.classify(
            seu(LocationKind.DECODE, 1, 0, operand_role="src"))
        assert verdict.reason == MASKED_NO_OPERAND_FIELDS

    def test_fetch_flip_moving_source_field_to_equal_value(self):
        # ra occupies word bits [25:21]; flipping bit 23 turns r1
        # into r5 (1 ^ 4).
        events = [ev(1, word=ADDQ_1_2_3, writes=[("int", 3)]),
                  ev(2, reads=[("int", 3)])]
        analysis = analysis_of(events,
                               initial={("int", 1): 9, ("int", 5): 9,
                                        ("int", 2): 1})
        verdict = analysis.classify(seu(LocationKind.FETCH, 1, 23))
        assert verdict.reason == MASKED_EQUAL_VALUE_SOURCE
        assert verdict.propagated

    def test_fetch_flip_moving_dead_destination_field(self):
        # rc occupies word bits [4:0]; flipping bit 2 turns the r3
        # destination into r7.  Neither r3 nor r7 is read afterwards.
        events = [ev(1, word=ADDQ_1_2_3, writes=[("int", 3)])]
        analysis = analysis_of(events)
        verdict = analysis.classify(seu(LocationKind.FETCH, 1, 2))
        assert verdict.reason == MASKED_DEAD_DESTINATION
        # A later read of the redirected-to register keeps it live.
        live = analysis_of([ev(1, word=ADDQ_1_2_3, writes=[("int", 3)]),
                            ev(2, reads=[("int", 7)])])
        assert live.classify(seu(LocationKind.FETCH, 1, 2)).live


# -- predicted records -----------------------------------------------------------


class TestExpandPruned:
    """A pruned campaign still returns one record per sampled site."""

    def test_predicted_sites_synthesised_for_free(self, dct_runner,
                                                  monkeypatch):
        f1 = seu(LocationKind.INT_REG, 1, 3, reg_index=5)
        f2 = seu(LocationKind.INT_REG, 2, 3, reg_index=5)
        f3 = seu(LocationKind.PC, 3, 0)
        masked = seu(LocationKind.INT_REG, 4, 0, reg_index=6)
        silent = seu(LocationKind.INT_REG, 9, 0, reg_index=7)
        verdicts = {
            masked.describe(): SiteVerdict(
                True, MASKED_ZERO_REGISTER, propagated=True,
                injected=True),
            silent.describe(): SiteVerdict(
                True, MASKED_NEVER_TRIGGERS, propagated=False,
                injected=False)}
        stub = types.SimpleNamespace(classify=lambda fault: verdicts.get(
            fault.describe(), SiteVerdict(False, LIVE)))
        monkeypatch.setattr(dct_runner, "_liveness", stub)
        expanded = dct_runner.run_campaign([f1, f2, f3, masked, silent],
                                           prune=True)
        predicted = [r for r in expanded if r.predicted]
        assert len(predicted) == 2
        by_outcome = {r.outcome for r in predicted}
        # propagated -> strictly correct, silent -> non-propagated.
        assert by_outcome == {Outcome.STRICTLY_CORRECT,
                              Outcome.NON_PROPAGATED}
        assert all(r.instructions == 0 for r in predicted)


# -- tracer integration (real runs) -----------------------------------------------


TRACED_PROGRAM = """
A = iarray(4)

def main():
    fi_read_init_all()
    x = 3
    fi_activate_inst(0)
    y = x + 4
    A[0] = y
    A[1] = A[0] + x
    fi_activate_inst(0)
    print_int(A[1])
    print_char(10)
    exit(0)
"""


def traced_run(model="atomic"):
    tracer = DefUseTracer()
    injector = FaultInjector()
    sim = Simulator(SimConfig(cpu_model=model), injector=injector)
    sim.load(compile_source(TRACED_PROGRAM), "traced")
    injector.install_tracer(tracer)
    result = sim.run(max_instructions=2_000_000)
    assert result.status == "completed"
    return sim, injector, tracer


class TestTracerIntegration:
    def test_no_tracer_means_cold_flag(self):
        injector = FaultInjector()
        assert injector.trace_hot is False
        injector.install_tracer(DefUseTracer())
        assert injector.trace_hot is True

    def test_trace_covers_window_and_tail(self):
        _, injector, tracer = traced_run()
        assert tracer.started
        assert not tracer.tainted
        window = [e.window_index for e in tracer.events
                  if e.window_index is not None]
        assert window == list(range(1, len(window) + 1))
        assert len(window) == injector.windows[0]["committed"]
        # Registers/memory written in the window are consumed later, so
        # the trace must extend past the window close.
        assert tracer.events[-1].window_index is None

    def test_values_and_initial_snapshot_recorded(self):
        _, _, tracer = traced_run()
        assert tracer.initial_regs is not None
        assert len(tracer.initial_regs) == 64
        for event in tracer.events:
            assert len(event.write_values) == len(event.writes)

    def test_o3_trace_matches_atomic_in_the_window(self):
        # Commits are architectural and program-ordered in every model,
        # so the windowed def-use stream is model-independent.
        _, _, atomic = traced_run("atomic")
        _, _, o3 = traced_run("o3")
        key = lambda t: [(e.window_index, e.pc, e.word, e.reads,
                          e.writes, e.write_values)
                         for e in t.events if e.window_index is not None]
        assert key(o3) == key(atomic)

    def test_analysis_over_real_trace_is_usable(self):
        _, _, tracer = traced_run()
        analysis = LivenessAnalysis(tracer)
        assert analysis.window_length() > 0
        n = analysis.window_length()
        verdict = analysis.classify(
            seu(LocationKind.INT_REG, n + 2, 0, reg_index=5))
        assert verdict.reason == MASKED_NEVER_TRIGGERS


# -- end-to-end pruning on a paper workload ---------------------------------------


@pytest.fixture(scope="module")
def dct_runner():
    return CampaignRunner(build("dct", "tiny"))


@pytest.fixture(scope="module")
def seed0_pruned(dct_runner):
    """The first 200 SEUs of seed 0, run pruned."""
    faults = SEUGenerator(dct_runner.golden.profile, seed=0).batch(200)
    return faults, dct_runner.run_campaign(faults, seed=0, prune=True)


@pytest.fixture(scope="module")
def seed7_campaigns(dct_runner):
    """The first 16 SEUs of seed 7, run in full and pruned."""
    faults = SEUGenerator(dct_runner.golden.profile, seed=7).batch(16)
    full = dct_runner.run_campaign(faults, seed=7)
    pruned = dct_runner.run_campaign(faults, seed=7, prune=True)
    return faults, full, pruned


def _simulated_fields(record):
    entry = record.as_dict()
    del entry["wall_seconds"], entry["phases"]
    return entry


class TestCampaignPruning:
    def test_pruned_plan_saves_at_least_30_percent(self, seed0_pruned):
        _, records = seed0_pruned
        assert len(records) == 200
        saved = sum(1 for r in records if r.predicted)
        assert saved / len(records) >= 0.30

    def test_pruned_plan_covers_the_exact_fault_stream(self, dct_runner,
                                                       seed0_pruned):
        baseline = SEUGenerator(dct_runner.golden.profile,
                                seed=0).batch(200)
        _, records = seed0_pruned
        planned = [r.fault for r in records]
        key = lambda fs: sorted(f.describe() for f in fs)
        assert key(planned) == key(baseline)
        assert [f.describe() for f in planned] == \
            [f.describe() for f in baseline]

    def test_provably_masked_sites_are_actually_masked(self, dct_runner):
        """Acceptance check: inject at predicted-masked sites and
        confirm the prediction (golden-equal outputs, exact outcome)."""
        liveness = dct_runner.liveness()
        generator = SEUGenerator(dct_runner.golden.profile, seed=1)
        picked = {}
        for _ in range(3000):
            fault = generator.generate()
            verdict = liveness.classify(fault)
            if not verdict.masked:
                continue
            if len(picked.setdefault(verdict.reason, [])) < 2:
                picked[verdict.reason].append((fault, verdict))
            if sum(len(v) for v in picked.values()) >= 10:
                break
        assert picked, "expected some provably-masked sites"
        for reason, sites in picked.items():
            for fault, verdict in sites:
                predicted, = dct_runner.run_campaign([fault], prune=True)
                assert predicted.predicted, reason
                result = dct_runner.run_experiment(fault)
                expected = (Outcome.STRICTLY_CORRECT if verdict.propagated
                            else Outcome.NON_PROPAGATED)
                assert predicted.outcome == expected, reason
                assert result.outcome == expected, \
                    f"{reason}: {fault.describe()} -> {result.outcome}"
                assert result.injected == verdict.injected \
                    == predicted.injected, reason

    def test_pruned_estimator_equals_unpruned(self, seed7_campaigns):
        """Same seed => same fault stream => identical estimator."""
        _, full, pruned = seed7_campaigns
        assert any(r.predicted for r in pruned)
        assert len(pruned) == 16
        assert summary(pruned).counts == summary(full).counts
        full_loc = by_location(full)
        pruned_loc = by_location(pruned)
        assert set(full_loc) == set(pruned_loc)
        for location, dist in full_loc.items():
            assert pruned_loc[location].counts == dist.counts

    def test_pruned_run_keeps_order_and_simulated_records(
            self, seed7_campaigns):
        """One record per fault set, in order; a simulated record is
        the unpruned run's."""
        faults, full, pruned = seed7_campaigns
        assert [r.fault for r in pruned] == faults
        for fast, slow in zip(pruned, full):
            if not fast.predicted:
                assert _simulated_fields(fast) == _simulated_fields(slow)

    def test_predicted_records_name_workload_seed_and_fault_file(
            self, seed7_campaigns):
        _, full, pruned = seed7_campaigns
        predicted = [(fast, slow) for fast, slow in zip(pruned, full)
                     if fast.predicted]
        assert predicted
        for fast, slow in predicted:
            assert (fast.workload, fast.seed) == ("dct", 7)
            assert fast.fault_file == render_fault_file([fast.fault])
            assert (fast.workload, fast.seed, fast.fault_file) == \
                (slow.workload, slow.seed, slow.fault_file)
