"""Flight recorder, propagation graphs, pipeview and campaign reports.

The directed acceptance tests live here: a known SEU into a named
register at a known time must be pinned by the divergence scanner to
that register within one digest interval, and the propagation graph
must connect the fault site to the classified outcome.
"""

import json
import os

import pytest

from repro.analysis import DefUseTracer, build_propagation_graph
from repro.cli import main
from repro.core import FaultInjector, parse_fault_file
from repro.sim import SimConfig, Simulator
from repro.telemetry import (
    ListSink,
    TraceBus,
    collect_pipeline,
    latency_histogram,
    load_share,
    read_status,
    render_from_events,
    render_report,
)
from repro.telemetry.events import events_from_jsonl, events_to_jsonl
from repro.telemetry.flight import (
    DivergenceScanner,
    FlightRecorder,
    hamming,
    regfile_checksum,
    register_label,
)

# A deterministic FI-windowed loop with hand-placed registers:
# t0 (int r1) accumulates across the whole window, t1 (r2) counts.
LOOP_ASM = """
main:
    ldi a0, 0
    fi_activate
    ldi t0, 0
    ldi t1, 0
loop:
    addq t0, t1, t0
    addq t1, 1, t1
    cmplt t1, 40, t2
    bne t2, loop
    fi_activate
    mov t0, a0
    ldi v0, 5
    callsys
    ldi v0, 0
    ldi a0, 0
    callsys
"""
# Window positions: 1-2 ldi t0, 3-4 ldi t1, 5 first addq t0,t1,t0.
ACC_FAULT = ("RegisterInjectedFault Inst:5 Flip:3 Threadid:0 "
             "system.cpu0 occ:1 int 1")
LOOP_PC_FAULT = ("PCInjectedFault Inst:5 Flip:30 Threadid:0 "
                 "system.cpu0 occ:1")

# Same loop, but every iteration stores the accumulator: a corrupted
# t0 becomes a wrong store *value* at the very next transaction.
STORE_ASM = """
main:
    ldi a0, 0
    fi_activate
    ldi t0, 0
    ldi t1, 0
    la t3, buf
loop:
    addq t0, t1, t0
    stq t0, 0(t3)
    addq t1, 1, t1
    cmplt t1, 20, t2
    bne t2, loop
    fi_activate
    mov t0, a0
    ldi v0, 5
    callsys
    ldi v0, 0
    ldi a0, 0
    callsys
    .data
buf: .space 8
"""
# Window positions: 1-2 ldi t0, 3-4 ldi t1, 5-6 la t3, 7 addq, 8 stq,
# 9 addq t1, 10 cmplt, 11 bne; the second iteration stores at 13.
STORE_FAULT = ("RegisterInjectedFault Inst:7 Flip:4 Threadid:0 "
               "system.cpu0 occ:1 int 1")
ADDR_FAULT = ("RegisterInjectedFault Inst:9 Flip:3 Threadid:0 "
              "system.cpu0 occ:1 int 4")


def run_traced(asm: str, faults_text: str, tracer,
               model: str = "atomic"):
    """Assemble-load-run with a commit-hook tracer installed; returns
    (sim, result)."""
    injector = FaultInjector.from_text(faults_text)
    if tracer is not None:
        injector.install_tracer(tracer)
    sim = Simulator(SimConfig(cpu_model=model), injector=injector)
    sim.load(asm, "flight")
    result = sim.run(max_instructions=200_000)
    return sim, result


def golden_log(asm: str, interval: int):
    recorder = FlightRecorder(interval=interval)
    _, result = run_traced(asm, "", recorder)
    assert result.status == "completed"
    return recorder.log


# -- primitives ---------------------------------------------------------------


class TestFlightPrimitives:
    def test_checksum_is_order_sensitive(self):
        assert regfile_checksum((1, 2)) != regfile_checksum((2, 1))
        assert regfile_checksum((5, 7)) == regfile_checksum((5, 7))

    def test_hamming_distance(self):
        assert hamming(0, 0) == 0
        assert hamming(0b1011, 0b0010) == 2
        assert hamming(0, (1 << 64) - 1) == 64

    def test_register_labels_cover_both_files(self):
        assert register_label(1) == "int t0"
        assert register_label(31) == "int zero"
        assert register_label(34) == "fp f2"

    def test_recorder_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            FlightRecorder(interval=0)

    def test_recorder_captures_digests_and_stores(self):
        log = golden_log(STORE_ASM, interval=8)
        assert log.interval == 8
        assert log.instructions > 0
        assert len(log.intervals) == log.instructions // 8
        # One store per loop iteration.
        assert len(log.stores) == 20
        # Interval samples count committed instructions in order.
        counts = [sample.count for sample in log.intervals]
        assert counts == sorted(counts)
        assert all(count % 8 == 0 for count in counts)
        store = log.stores[0]
        assert store.size == 8
        assert store.addr % 8 == 0
        assert log.as_dict()["stores"] == 20


# -- directed divergence tests ------------------------------------------------


class TestDirectedDivergence:
    INTERVAL = 4

    def scan(self, asm, fault, interval=None, model="atomic"):
        interval = interval or self.INTERVAL
        log = golden_log(asm, interval)
        scanner = DivergenceScanner(log)
        sim, result = run_traced(asm, fault, scanner, model=model)
        return sim, result, scanner

    def test_register_seu_pinned_to_register_and_interval(self):
        """Acceptance: a bit-3 flip of int t0 at window instruction 5 is
        identified as *that* register within one digest interval of the
        injection."""
        sim, _, scanner = self.scan(LOOP_ASM, ACC_FAULT)
        record = sim.injector.records[0]
        divergence = scanner.divergence
        assert divergence is not None
        assert divergence.kind == "register"
        assert divergence.location == "int t0"
        # +-1 interval resolution around the injection commit.
        assert abs(divergence.count - record.instruction_count) \
            <= self.INTERVAL
        assert abs(divergence.tick - record.tick) <= 2 * self.INTERVAL
        # Exactly the flipped bit.
        assert divergence.hamming_distance == 1
        assert (divergence.faulty_value ^ divergence.golden_value) \
            == (1 << 3)
        assert divergence.interval is not None
        assert "int t0" in divergence.describe()

    def test_store_corruption_found_at_exact_transaction(self):
        sim, _, scanner = self.scan(STORE_ASM, STORE_FAULT,
                                    interval=64)
        record = sim.injector.records[0]
        divergence = scanner.divergence
        assert divergence is not None
        assert divergence.kind == "memory"
        assert divergence.location.startswith("mem 0x")
        # The store right after the corrupted addq: exact resolution
        # (window coordinates; ``count`` starts one before the window).
        assert divergence.window == record.instruction_count + 1
        assert divergence.hamming_distance == 1

    def test_store_address_corruption_is_control_divergence(self):
        """Corrupting the *address* register redirects the next store:
        the store log mismatches on addr, a control divergence."""
        sim, _, scanner = self.scan(STORE_ASM, ADDR_FAULT, interval=64)
        record = sim.injector.records[0]
        divergence = scanner.divergence
        assert divergence is not None
        assert divergence.kind == "control"
        assert "(golden 0x" in divergence.location
        assert divergence.window == record.instruction_count + 4

    def test_immediate_crash_leaves_scanner_quiet(self):
        """A PC fault that traps before the next store or boundary is
        invisible to the scanner — the campaign runner reports the trap
        itself as the divergence (see TestRunnerFlight)."""
        sim, _, scanner = self.scan(LOOP_ASM, LOOP_PC_FAULT)
        assert sim.process(0).state.value == "crashed"
        assert scanner.divergence is None

    def test_fault_free_run_never_diverges(self):
        _, result, scanner = self.scan(LOOP_ASM, "")
        assert result.status == "completed"
        assert scanner.divergence is None

    def test_scanner_is_observation_only(self):
        """The faulty run behaves identically with and without the
        scanner riding it (console and stats dumps byte-identical)."""
        log = golden_log(LOOP_ASM, self.INTERVAL)
        scanner = DivergenceScanner(log)
        watched, _ = run_traced(LOOP_ASM, ACC_FAULT, scanner)
        plain, _ = run_traced(LOOP_ASM, ACC_FAULT, None)
        assert watched.console_text() == plain.console_text()
        assert watched.stats_dump() == plain.stats_dump()

    def test_divergence_round_trips_through_json(self):
        _, _, scanner = self.scan(LOOP_ASM, ACC_FAULT)
        payload = json.loads(json.dumps(scanner.divergence.as_dict()))
        assert payload["kind"] == "register"
        assert payload["location"] == "int t0"


# -- propagation graphs -------------------------------------------------------


@pytest.fixture(scope="module")
def loop_trace():
    tracer = DefUseTracer()
    _, result = run_traced(LOOP_ASM, "", tracer)
    assert result.status == "completed"
    return tracer


class TestPropagationGraph:
    def fault(self, text):
        return parse_fault_file(text)[0]

    def test_register_seu_chain_reaches_outcome(self, loop_trace):
        graph = build_propagation_graph(
            loop_trace, self.fault(ACC_FAULT), outcome="sdc")
        kinds = [node["kind"] for node in graph.nodes]
        assert kinds[0] == "fault"
        assert "int t0" in graph.nodes[0]["label"]
        assert kinds[-1] == "outcome"
        assert graph.nodes[-1]["label"] == "sdc"
        # The accumulator feeds itself every iteration, then the print
        # syscall observes it: fault -> defs -> output -> outcome.
        assert "def" in kinds
        assert "output" in kinds
        # Terminal is reachable: it has at least one incoming edge, and
        # every edge endpoint is a real node.
        terminal = graph.nodes[-1]["id"]
        assert any(dst == terminal for _, dst in graph.edges)
        ids = {node["id"] for node in graph.nodes}
        assert all(src in ids and dst in ids
                   for src, dst in graph.edges)

    def test_root_connects_to_terminal_even_for_pc_faults(self,
                                                          loop_trace):
        graph = build_propagation_graph(
            loop_trace, self.fault(LOOP_PC_FAULT), outcome="crashed",
            crash_reason="UnmappedAddress")
        assert [node["kind"] for node in graph.nodes] \
            == ["fault", "outcome"]
        assert graph.edges == [(0, 1)]
        assert "crashed" in graph.nodes[1]["label"]
        assert "UnmappedAddress" in graph.nodes[1]["label"]

    def test_max_nodes_truncates(self, loop_trace):
        graph = build_propagation_graph(
            loop_trace, self.fault(ACC_FAULT), outcome="sdc",
            max_nodes=5)
        assert graph.truncated
        assert graph.node_count() <= 6   # 5 + the terminal
        assert "truncated" in graph.describe()

    def test_graph_serialises_to_json(self, loop_trace):
        graph = build_propagation_graph(
            loop_trace, self.fault(ACC_FAULT), outcome="sdc")
        payload = json.loads(json.dumps(graph.as_dict()))
        assert payload["truncated"] is False
        assert payload["nodes"][0]["kind"] == "fault"
        assert all(len(edge) == 2 for edge in payload["edges"])

    def test_describe_shows_incoming_edges(self, loop_trace):
        graph = build_propagation_graph(
            loop_trace, self.fault(ACC_FAULT), outcome="sdc")
        text = graph.describe()
        assert "#0 [fault]" in text
        assert "<- #0" in text
        assert "[outcome] sdc" in text


# -- campaign runner integration ----------------------------------------------


@pytest.fixture(scope="module")
def flight_runner():
    from repro.campaign import CampaignRunner
    from repro.workloads import build
    runner = CampaignRunner(build("pi", "tiny"))
    runner.enable_flight(16)
    return runner


class TestRunnerFlight:
    PC_FAULT = ("PCInjectedFault Inst:5 Xor:0x7ff8 Threadid:0 "
                "system.cpu0 occ:1")

    def test_enable_flight_builds_and_caches_the_log(self,
                                                     flight_runner):
        log = flight_runner.flight_log()
        assert log.interval == 16
        assert log.instructions > 0
        assert len(log.intervals) >= 1
        assert flight_runner.flight_log() is log

    def test_experiment_attaches_divergence_and_propagation(
            self, flight_runner):
        fault = parse_fault_file(self.PC_FAULT)[0]
        sink = ListSink()
        flight_runner.bus = TraceBus(sink)
        try:
            result = flight_runner.run_experiment(fault)
        finally:
            flight_runner.bus = None
        assert result.injected
        assert result.divergence is not None
        assert result.divergence["kind"] in ("register", "memory",
                                             "control")
        assert result.divergence["latency"] >= 0
        graph = result.propagation
        assert graph is not None
        assert graph["nodes"][0]["kind"] == "fault"
        assert graph["nodes"][-1]["kind"] == "outcome"
        assert result.outcome.value in graph["nodes"][-1]["label"]
        # Both artifacts ride the result dict and the trace bus.
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["divergence"] == result.divergence
        assert payload["propagation"] == graph
        flight = sink.of_kind("flight_divergence")
        assert len(flight) == 1
        assert flight[0].data["divergence"] == result.divergence

    def test_uninjected_experiment_has_no_artifacts(self,
                                                    flight_runner):
        fault = parse_fault_file(
            "RegisterInjectedFault Inst:99999999 Flip:3 Threadid:0 "
            "system.cpu0 occ:1 int 1")[0]
        result = flight_runner.run_experiment(fault)
        assert not result.injected
        assert result.propagation is None

    def test_flight_workers_publish_artifacts_to_share(
            self, flight_runner, tmp_path):
        from repro.campaign import SharedDirCampaign
        share = str(tmp_path)
        campaign = SharedDirCampaign(share, "pi", "tiny")
        faults = [parse_fault_file(self.PC_FAULT),
                  parse_fault_file(self.PC_FAULT.replace(
                      "Inst:5", "Inst:7"))]
        campaign.publish(flight_runner, faults, seed=21, flight=16)
        assert campaign.published()["flight"] == 16
        completed = campaign.worker_loop("ws0", flight_runner)
        assert completed == 2
        with open(tmp_path / "results" / "exp_0000.json") as handle:
            entry = json.load(handle)
        assert entry["divergence"] is not None
        assert entry["propagation"]["nodes"][-1]["kind"] == "outcome"
        with open(tmp_path / "manifests" / "exp_0000.json") as handle:
            manifest = json.load(handle)
        assert manifest["divergence"] == entry["divergence"]
        # The report over this share agrees with read_status.
        report = load_share(share)
        assert report.experiments == 2
        assert report.outcomes == read_status(share).outcomes
        assert report.latencies


# -- pipeview -----------------------------------------------------------------


PIPE_ASM = """
main:
    ldi t0, 0
    ldi t1, 0
loop:
    addq t0, t1, t0
    addq t1, 1, t1
    cmplt t1, 5, t2
    bne t2, loop
    mov t0, a0
    ldi v0, 5
    callsys
    ldi v0, 0
    ldi a0, 0
    callsys
"""


def run_pipe_capture(pipe_trace: bool = True):
    sink = ListSink()
    bus = TraceBus(sink, pipe_trace=pipe_trace)
    sim = Simulator(SimConfig(cpu_model="o3"),
                    injector=FaultInjector(), bus=bus)
    sim.load(PIPE_ASM, "pipe")
    result = sim.run(max_instructions=100_000)
    assert result.status == "completed"
    return sim, sink


class TestPipeview:
    @pytest.fixture(scope="class")
    def capture(self):
        return run_pipe_capture()

    def test_o3_emits_pipe_events_with_pipe_trace(self, capture):
        _, sink = capture
        assert sink.of_kind("pipe_inst")
        # The loop exit mispredicts at least once.
        assert sink.of_kind("pipe_squash")

    def test_pipe_events_off_by_default(self):
        _, sink = run_pipe_capture(pipe_trace=False)
        assert not sink.of_kind("pipe_inst")
        assert not sink.of_kind("pipe_squash")
        # The aggregate squash event still reports (rare-event path).
        assert sink.of_kind("cpu_squash")

    def test_collect_folds_by_fetch_seq(self, capture):
        sim, sink = capture
        insts = collect_pipeline(sink.events)
        seqs = [inst.seq for inst in insts]
        assert seqs == sorted(seqs)
        committed = [inst for inst in insts if inst.committed]
        squashed = [inst for inst in insts if not inst.committed]
        assert len(committed) == len(sink.of_kind("pipe_inst"))
        assert squashed
        assert all(inst.squash_reason for inst in squashed)
        assert all(inst.fetch <= inst.end for inst in insts)

    def test_render_shows_lanes_and_squashes(self, capture):
        _, sink = capture
        text = render_from_events(sink.events)
        head = text.splitlines()[0]
        assert "instructions" in head and "squashed" in head
        assert "fdnc" in text          # a committed frontend->commit lane
        assert "x" in text
        assert "<- squashed (mispredict)" in text
        assert "addq t0, t1, t0" in text

    def test_render_is_pure_over_serialised_events(self, capture):
        """Acceptance: rendering consumes only captured events — a
        JSONL round trip renders byte-identically, no re-instrumentation
        at render time."""
        _, sink = capture
        text = render_from_events(sink.events)
        back = list(events_from_jsonl(events_to_jsonl(sink.events)))
        assert render_from_events(back) == text

    def test_commit_wins_over_squash_sweep(self):
        """The PC-fault path retires the head architecturally and then
        sweeps the window: the same seq sees pipe_inst + pipe_squash and
        must count as committed."""
        text = (
            '{"kind":"pipe_inst","tick":0,"seq":1,"pc":64,"fetch":1,'
            '"complete":3,"commit":4,"asm":"addq"}\n'
            '{"kind":"pipe_squash","tick":0,"seq":1,"pc":64,"fetch":1,'
            '"squash":4,"reason":"flush","asm":"addq"}\n'
            '{"kind":"pipe_squash","tick":0,"seq":2,"pc":68,"fetch":2,'
            '"squash":4,"reason":"flush","asm":"beq"}\n')
        insts = collect_pipeline(events_from_jsonl(text))
        assert insts[0].committed
        assert insts[0].squash is None
        assert not insts[1].committed
        assert insts[1].squash_reason == "flush"

    def test_empty_capture_renders_hint(self):
        assert "gemfi run --cpu o3 --trace FILE --pipe" \
            in render_from_events([])

    def test_cli_trace_pipe_then_pipeview(self, tmp_path, capsys):
        program = tmp_path / "pipe.s"
        program.write_text(PIPE_ASM)
        trace = tmp_path / "pipe.jsonl"
        assert main(["run", str(program), "--cpu", "o3",
                     "--trace", str(trace), "--pipe"]) == 0
        capsys.readouterr()
        assert main(["pipeview", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "<- squashed" in out
        assert "fdnc" in out


# -- campaign reports ---------------------------------------------------------


REPORT_FAULTS = (
    "RegisterInjectedFault Inst:5 Flip:3 Threadid:0 system.cpu0 "
    "occ:1 int 1",
    "RegisterInjectedFault Inst:6 Flip:60 Threadid:0 system.cpu0 "
    "occ:1 fp 2",
    "PCInjectedFault Inst:7 Xor:0x7ff8 Threadid:0 system.cpu0 occ:1",
    "FetchStageInjectedFault Inst:5 Flip:14 Threadid:0 system.cpu0 "
    "occ:1",
    "ExecutionStageInjectedFault Inst:50 Flip:0 Threadid:0 "
    "system.cpu0 occ:1",
)
REPORT_OUTCOMES = ("crashed", "non_propagated", "strictly_correct",
                   "correct", "sdc")


def seed_share(tmp_path, experiments: int = 50) -> str:
    """A deterministic synthetic 50-experiment share directory."""
    results = tmp_path / "results"
    os.makedirs(results, exist_ok=True)
    for index in range(experiments):
        entry = {
            "outcome": REPORT_OUTCOMES[index % 5],
            "fault_file": REPORT_FAULTS[(index * 3) % 5] + "\n",
            "time_fraction": (index % 10) / 10 + 0.04,
            "wall_seconds": 1.0,
            "injected": True,
        }
        if index % 2 == 0:
            entry["divergence"] = {
                "kind": "register" if index % 4 == 0 else "control",
                "latency": index * 5,
            }
        with open(results / f"exp_{index:04d}.json", "w",
                  encoding="utf-8") as handle:
            json.dump(entry, handle)
    # A mid-write junk file must be skipped, exactly like read_status.
    (results / "exp_9999.json").write_text("{not json")
    (results / "notes.txt").write_text("ignore me")
    return str(tmp_path)


class TestCampaignReport:
    def test_report_totals_match_read_status(self, tmp_path):
        share = seed_share(tmp_path)
        report = load_share(share)
        status = read_status(share)
        assert report.experiments == status.completed == 50
        assert report.outcomes == status.outcomes
        assert sum(report.outcomes.values()) == 50

    def test_rendering_is_byte_deterministic(self, tmp_path):
        share = seed_share(tmp_path)
        first_md = render_report(load_share(share))
        second_md = render_report(load_share(share))
        assert first_md == second_md
        assert render_report(load_share(share), fmt="html") \
            == render_report(load_share(share), fmt="html")

    def test_markdown_sections_and_counts(self, tmp_path):
        text = render_report(load_share(seed_share(tmp_path)))
        assert "# Campaign report:" in text
        assert "50 completed experiments." in text
        assert "## Outcome totals" in text
        assert "## Outcomes by fault location" in text
        assert "## Outcomes by injection timing" in text
        assert "## Divergence latency" in text
        assert "| TOTAL | 50 | 100.0% |" in text
        assert "| sdc | 10 | 20.0% |" in text
        # Every fault location row present.
        for label in ("int regfile", "fp regfile", "pc", "fetch",
                      "execute"):
            assert f"| {label} |" in text

    def test_html_rendering(self, tmp_path):
        text = render_report(load_share(seed_share(tmp_path)),
                             fmt="html")
        assert text.startswith("<!DOCTYPE html>")
        assert "<h2>Outcome totals</h2>" in text
        assert "<td>TOTAL</td><td>50</td>" in text
        assert "Divergence latency" in text

    def test_unknown_format_rejected(self, tmp_path):
        report = load_share(seed_share(tmp_path))
        with pytest.raises(ValueError):
            render_report(report, fmt="pdf")

    def test_latency_histogram_power_of_two_buckets(self):
        rows = latency_histogram([0, 1, 2, 3, 5, 9])
        assert rows == [("0", 1), ("1-1", 1), ("2-3", 2),
                        ("4-7", 1), ("8-15", 1)]
        assert latency_histogram([]) == []

    def test_missing_results_dir_is_empty_report(self, tmp_path):
        report = load_share(str(tmp_path))
        assert report.experiments == 0
        assert "0 completed experiments." \
            in render_report(report)

    def test_cli_report_stdout_and_file(self, tmp_path, capsys):
        share = seed_share(tmp_path / "campaign_a")
        assert main(["report", share]) == 0
        out = capsys.readouterr().out
        assert "# Campaign report: campaign_a" in out
        output = tmp_path / "report.html"
        assert main(["report", share, "--format", "html",
                     "-o", str(output)]) == 0
        assert output.read_text().startswith("<!DOCTYPE html>")
        # Two CLI renders of the same share are byte-identical.
        again = tmp_path / "report2.html"
        assert main(["report", share, "--format", "html",
                     "-o", str(again)]) == 0
        assert output.read_bytes() == again.read_bytes()

    def test_cli_campaign_share_dir_to_report(self, tmp_path, capsys):
        """The CI smoke pipeline: gemfi campaign --share-dir runs a
        NoW campaign with local workers, gemfi report renders it."""
        share = tmp_path / "share"
        assert main(["campaign", "-w", "pi", "--scale", "tiny",
                     "-n", "2", "--seed", "3", "--flight", "32",
                     "--share-dir", str(share), "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 results" in out
        status = read_status(str(share))
        assert status.completed == 2
        report_path = tmp_path / "smoke.html"
        assert main(["report", str(share), "--format", "html",
                     "-o", str(report_path)]) == 0
        html = report_path.read_text()
        assert "<td>TOTAL</td><td>2</td>" in html
        # The published flight interval reached the worker processes:
        # every result record carries the divergence field (null when
        # the run never left the golden path).
        results = sorted((share / "results").glob("exp_*.json"))
        assert len(results) == 2
        for path in results:
            assert "divergence" in json.loads(path.read_text())
        assert sorted((share / "manifests").glob("exp_*.json"))
