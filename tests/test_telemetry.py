"""repro.telemetry tests: metrics registry, trace bus, campaign
observability and the CLI surfaces built on them."""

import json
import os
import threading
import time

import pytest

from repro.cli import main
from repro.compiler import compile_source
from repro.core import FaultInjector, parse_fault_file
from repro.sim import SimConfig, Simulator
from repro.sim.checkpoint import dumps_checkpoint, restore_checkpoint
from repro.telemetry import (
    EVENT_KINDS,
    JsonlFileSink,
    ListSink,
    MetricsRegistry,
    RingBufferSink,
    TraceBus,
    TraceEvent,
    diff_stats,
    events_from_jsonl,
    events_to_jsonl,
    follow_jsonl,
    parse_stats,
    read_heartbeats,
    read_status,
    render_status,
    run_manifest,
    write_heartbeat,
)

from conftest import run_minic

WINDOWED = """
def main():
    fi_read_init_all()
    fi_activate_inst(0)
    s = 0
    for i in range(30):
        s += i
    fi_activate_inst(0)
    print_int(s)
    exit(0)
"""

REG_FAULT = ("RegisterInjectedFault Inst:5 Flip:3 Threadid:0 "
             "system.cpu0 occ:1 int 1")
PC_FAULT = "PCInjectedFault Inst:5 Xor:0x7ff8 Threadid:0 system.cpu0 occ:1"


def run_with_bus(source: str, faults_text: str = "",
                 model: str = "atomic", sink=None):
    """Compile-load-run with a trace bus attached; returns
    (sim, result, sink)."""
    sink = sink if sink is not None else ListSink()
    bus = TraceBus(sink)
    injector = FaultInjector.from_text(faults_text)
    sim = Simulator(SimConfig(cpu_model=model), injector=injector,
                    bus=bus)
    sim.load(compile_source(source), "test")
    result = sim.run(max_instructions=2_000_000)
    return sim, result, sink


# -- metrics registry ---------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        reg.counter("a.b").inc(4)
        assert reg.get("a.b") == 5

    def test_distribution_summary_lines(self):
        reg = MetricsRegistry()
        dist = reg.distribution("lat")
        for sample in (1, 2, 3, 4):
            dist.record(sample)
        flat = reg.as_flat_dict()
        assert flat["lat.count"] == 4
        assert flat["lat.min"] == 1.0
        assert flat["lat.max"] == 4.0
        assert flat["lat.mean"] == 2.5
        assert flat["lat.stdev"] == pytest.approx(1.2909944)

    def test_histogram_buckets_and_overflow(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", bounds=(10.0, 100.0))
        for sample in (5, 50, 500):
            hist.record(sample)
        flat = reg.as_flat_dict()
        assert flat["h.samples"] == 3
        assert flat["h.le_10.000000"] == 1
        assert flat["h.le_100.000000"] == 1
        assert flat["h.overflow"] == 1

    def test_formula_reads_other_stats(self):
        reg = MetricsRegistry()
        reg.counter("instructions").inc(30)
        reg.counter("ticks").inc(10)
        reg.formula("ipc", lambda r: r.get("instructions")
                    / r.get("ticks"))
        assert reg.get("ipc") == 3.0
        assert "ipc 3.000000" in reg.dump()

    def test_get_resolves_expanded_subline(self):
        reg = MetricsRegistry()
        reg.distribution("d").record(7)
        assert reg.get("d.mean") == 7.0

    def test_dump_sorted_and_insertion_order_independent(self):
        a = MetricsRegistry()
        a.counter("z").inc()
        a.counter("a").inc()
        b = MetricsRegistry()
        b.counter("a").inc()
        b.counter("z").inc()
        assert a.dump() == b.dump()
        assert a.dump().splitlines() == sorted(a.dump().splitlines())

    def test_scope_prefixes(self):
        reg = MetricsRegistry()
        cpu = reg.scope("system.cpu0")
        cpu.scope("bp").counter("lookups").inc()
        assert reg.get("system.cpu0.bp.lookups") == 1


# -- trace events and sinks ---------------------------------------------------


class TestTraceBus:
    def test_jsonl_round_trip(self):
        events = [TraceEvent("fault_injected", 7, {"pc": 64, "b": "x"}),
                  TraceEvent("trap", 9, {"reason": "bad"})]
        text = events_to_jsonl(events)
        back = list(events_from_jsonl(text))
        assert back == events

    def test_json_is_deterministic(self):
        one = TraceEvent("trap", 1, {"b": 2, "a": 1}).to_json()
        two = TraceEvent("trap", 1, {"a": 1, "b": 2}).to_json()
        assert one == two

    def test_emit_validates_kind(self):
        bus = TraceBus(ListSink())
        with pytest.raises(ValueError):
            bus.emit("no_such_kind")

    def test_emit_uses_clock_when_tick_missing(self):
        sink = ListSink()
        bus = TraceBus(sink, clock=lambda: 42)
        bus.emit("trap", reason="x")
        assert sink.events[0].tick == 42

    def test_fan_out_to_multiple_sinks(self):
        a, b = ListSink(), ListSink()
        bus = TraceBus(a, b)
        bus.emit("halt", tick=1)
        assert len(a.events) == len(b.events) == 1

    def test_ring_buffer_keeps_last_n(self):
        ring = RingBufferSink(capacity=3)
        bus = TraceBus(ring)
        for tick in range(10):
            bus.emit("syscall", tick=tick)
        assert [e.tick for e in ring.events] == [7, 8, 9]
        assert ring.dropped == 7

    def test_jsonl_file_sink_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlFileSink(str(path)) as sink:
            bus = TraceBus(sink)
            bus.emit("fault_armed", tick=0, fault="f")
            bus.emit("halt", tick=5)
        back = list(events_from_jsonl(path.read_text()))
        assert [e.kind for e in back] == ["fault_armed", "halt"]
        assert sink.count == 2


# -- simulator lifecycle instrumentation --------------------------------------


class TestSimulatorEvents:
    def test_fault_lifecycle_events(self):
        sim, result, sink = run_with_bus(WINDOWED, REG_FAULT)
        kinds = [e.kind for e in sink.events]
        assert "fi_window_open" in kinds
        assert "fi_window_close" in kinds
        assert "fault_injected" in kinds
        assert ("fault_propagated" in kinds) or ("fault_masked" in kinds)
        assert kinds[-1] == "process_exit"
        injected = sink.of_kind("fault_injected")[0]
        assert injected.data["fault"].startswith("RegisterInjectedFault")
        assert "pc" in injected.data

    def test_every_emitted_kind_is_in_vocabulary(self):
        _, _, sink = run_with_bus(WINDOWED, REG_FAULT)
        assert {e.kind for e in sink.events} <= EVENT_KINDS

    def test_syscall_events_present(self):
        _, _, sink = run_with_bus(WINDOWED)
        assert sink.of_kind("syscall")

    def test_ring_buffer_postmortem_after_crash(self):
        ring = RingBufferSink(capacity=4)
        sim, result, _ = run_with_bus(WINDOWED, PC_FAULT, sink=ring)
        process = sim.process(0)
        assert process.crash_reason is not None
        # The last events before the crash survive in the ring.
        kinds = [e.kind for e in ring.events]
        assert "trap" in kinds
        assert len(ring.events) <= 4

    def test_disabled_bus_dump_byte_identical(self):
        """Golden acceptance: attaching telemetry machinery (bus object,
        disabled) must not perturb the stats dump at all."""
        plain, _ = run_minic(WINDOWED)
        bus = TraceBus(ListSink())
        bus.enabled = False
        injector = FaultInjector()
        sim = Simulator(SimConfig(), injector=injector, bus=bus)
        sim.load(compile_source(WINDOWED), "test")
        sim.run(max_instructions=2_000_000)
        assert sim.stats_dump() == plain.stats_dump()

    def test_enabled_bus_dump_byte_identical_too(self):
        """Event emission is observation only — the dump of a traced run
        matches an untraced one byte for byte."""
        plain, _ = run_minic(WINDOWED)
        traced, _, _ = run_with_bus(WINDOWED)
        assert traced.stats_dump() == plain.stats_dump()

    def test_fi_stats_present_only_after_injection(self):
        faulty, _ = run_minic(WINDOWED, faults_text=REG_FAULT)
        clean, _ = run_minic(WINDOWED)
        assert "fi.injections.total" in faulty.stats_dump()
        assert "fi.injections.regfile" in faulty.stats_dump()
        assert "fi." not in clean.stats_dump()


# -- stats diff ---------------------------------------------------------------


class TestStatsDiff:
    def test_identical_dumps_zero_differences(self):
        a, _ = run_minic(WINDOWED)
        b, _ = run_minic(WINDOWED)
        assert diff_stats(a.stats_dump(), b.stats_dump()) == []

    def test_reports_changed_added_removed(self):
        a = "alpha 1\nbeta 2\n"
        b = "beta 3\ngamma 4\n"
        diffs = diff_stats(a, b)
        assert diffs == ["- alpha 1", "~ beta 2 -> 3", "+ gamma 4"]

    def test_parse_stats_round_trip(self):
        text = "a.b 1\nc.d 2.500000\n"
        assert parse_stats(text) == {"a.b": "1", "c.d": "2.500000"}


# -- campaign observability ---------------------------------------------------


class TestCampaignObservability:
    def test_run_manifest_contents(self):
        manifest = run_manifest(
            experiment="exp_0001", workload="dct", scale="tiny",
            fault_text=REG_FAULT + "\n", seed=3, worker="ws0",
            started=100.0, wall_seconds=1.5, outcome="masked",
            git_rev="abc123")
        assert manifest["experiment"] == "exp_0001"
        assert manifest["seed"] == 3
        assert manifest["fault_file"].startswith("RegisterInjectedFault")
        assert manifest["git"] == "abc123"

    def test_heartbeat_write_and_read(self, tmp_path):
        share = str(tmp_path)
        write_heartbeat(share, "ws0", 3, clock=lambda: 1000.0)
        beats = read_heartbeats(share)
        assert beats["ws0"]["completed"] == 3
        assert beats["ws0"]["time"] == 1000.0

    def test_heartbeat_refreshed_mid_write_by_another_thread(
            self, tmp_path, monkeypatch):
        """A worker's main thread and its heartbeat thread refresh the
        same beacon.  The beat thread writes while the main thread sits
        between its temp write and its rename; both writes must land
        (a temp name shared by the threads lost the main thread's temp
        file and raised FileNotFoundError)."""
        share = str(tmp_path)
        real_replace = os.replace
        interleaved = []

        def replace_after_a_beat(src, dst):
            if not interleaved:
                interleaved.append(src)
                beat = threading.Thread(target=write_heartbeat,
                                        args=(share, "ws0", 1))
                beat.start()
                beat.join(timeout=10)
                assert not beat.is_alive()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_after_a_beat)
        write_heartbeat(share, "ws0", 2)
        monkeypatch.undo()
        assert interleaved
        beat = read_heartbeats(share)["ws0"]
        assert beat["completed"] == 2
        assert [name for name in os.listdir(tmp_path / "heartbeats")
                if ".tmp." in name] == []

    def _make_share(self, tmp_path, now=1000.0):
        """Synthetic share: five fault files in todo/, four claims of
        live worker ws0 (one 2000 s old) and two results, so 1 todo,
        2 claimed and 2 completed."""
        for sub in ("todo", "results", "claims"):
            os.makedirs(tmp_path / sub)
        for index in range(5):
            (tmp_path / "todo" / f"exp_{index:04d}.txt").write_text("x")
        for index, claim_time in ((0, now - 50), (1, now - 40),
                                  (2, now - 2000), (3, now - 30)):
            name = f"exp_{index:04d}.txt"
            (tmp_path / "claims" / f"{name}.claim").write_text(
                json.dumps({"worker": "ws0", "pid": 1,
                            "time": claim_time}))
            if index in (0, 1):
                (tmp_path / "results" / f"exp_{index:04d}.json"
                 ).write_text(json.dumps(
                    {"outcome": "masked" if index == 0 else "sdc",
                     "wall_seconds": 1.0, "injected": True}))
        write_heartbeat(str(tmp_path), "ws0", 2, clock=lambda: now - 5)
        write_heartbeat(str(tmp_path), "ws1", 0,
                        clock=lambda: now - 500)

    def test_read_status_counts(self, tmp_path):
        now = 1000.0
        self._make_share(tmp_path, now)
        status = read_status(str(tmp_path), clock=lambda: now)
        assert status.todo == 1
        assert status.claimed == 2
        assert status.completed == 2
        assert status.stale == 0
        assert status.total == 5
        assert status.outcomes == {"masked": 1, "sdc": 1}
        assert status.live_workers == 1
        assert len(status.workers) == 2
        assert status.rate_per_second > 0
        assert status.eta_seconds is not None
        assert status.eta_seconds > 0

    def test_render_status_mentions_key_numbers(self, tmp_path):
        self._make_share(tmp_path)
        text = render_status(read_status(str(tmp_path),
                                         clock=lambda: 1000.0))
        assert "2/5 completed" in text
        assert "todo=1" in text
        assert "stale=0" in text
        assert "masked=1" in text

    def test_young_claim_of_a_dead_worker_counts_as_stale(self,
                                                          tmp_path):
        """Recovery takes a claim as soon as its claimant's heartbeat
        ages out, however young the claim, and the stale count
        agrees."""
        now = 1000.0
        os.makedirs(tmp_path / "claims")
        (tmp_path / "claims" / "exp_0000.txt.claim").write_text(
            json.dumps({"worker": "ws1", "pid": 1, "time": now - 130}))
        write_heartbeat(str(tmp_path), "ws1", 0,
                        clock=lambda: now - 130)
        status = read_status(str(tmp_path), clock=lambda: now)
        assert (status.claimed, status.stale) == (1, 1)

    def test_current_experiment_is_the_newest_held_claim(self,
                                                         tmp_path):
        """A worker runs the newest claim it holds without a result.  A
        restarted worker that reuses a dead one's name holds both its
        own claim and the dead one's until recovery takes that."""
        now = 1000.0
        os.makedirs(tmp_path / "claims")
        os.makedirs(tmp_path / "results")
        for name, worker, claimed_at in (
                ("exp_0000", "ws0", now - 300),   # finished
                ("exp_0001", "ws0", now - 200),   # the dead ws0's
                ("exp_0003", "ws0", now - 10),    # the new ws0's
                ("exp_0002", "ws1", now - 100)):
            (tmp_path / "claims" / f"{name}.txt.claim").write_text(
                json.dumps({"worker": worker, "pid": 1,
                            "time": claimed_at}))
        (tmp_path / "results" / "exp_0000.json").write_text(
            json.dumps({"outcome": "sdc"}))
        for worker in ("ws0", "ws1", "ws2"):
            write_heartbeat(str(tmp_path), worker, 0,
                            clock=lambda: now - 5)
        status = read_status(str(tmp_path), clock=lambda: now)
        running = {worker: beat["current_experiment"]
                   for worker, beat in status.workers.items()}
        assert running == {"ws0": "exp_0003", "ws1": "exp_0002",
                           "ws2": None}
        text = render_status(status)
        assert "ws0: live 5s ago done=0 running=exp_0003" in text
        assert "running=exp_0001" not in text

    def test_single_completed_result_reports_no_bogus_eta(self,
                                                          tmp_path):
        """One completed result spans zero time: the rate must stay 0
        and the ETA unknown (None), not inf or a crash."""
        now = 1000.0
        for sub in ("todo", "results", "claims"):
            os.makedirs(tmp_path / sub)
        (tmp_path / "todo" / "exp_0001.txt").write_text("x")
        (tmp_path / "claims" / "exp_0000.txt.claim").write_text(
            json.dumps({"worker": "ws0", "pid": 1, "time": now - 30}))
        (tmp_path / "results" / "exp_0000.json").write_text(
            json.dumps({"outcome": "sdc"}))
        status = read_status(str(tmp_path), clock=lambda: now)
        assert status.completed == 1
        assert status.rate_per_second == 0.0
        assert status.eta_seconds is None
        assert "eta" not in render_status(status)

    def test_results_sharing_one_mtime_report_no_infinite_rate(
            self, tmp_path):
        """Coarse filesystem timestamps can stamp a whole batch with a
        single mtime; the zero-width span must not extrapolate."""
        now = 1000.0
        for sub in ("todo", "results", "claims"):
            os.makedirs(tmp_path / sub)
        (tmp_path / "todo" / "exp_0009.txt").write_text("x")
        for index in range(3):
            name = f"exp_{index:04d}"
            (tmp_path / "claims" / f"{name}.txt.claim").write_text(
                json.dumps({"worker": "ws0", "pid": 1,
                            "time": now - 60}))
            path = tmp_path / "results" / f"{name}.json"
            path.write_text(json.dumps({"outcome": "masked"}))
            os.utime(path, (now - 60, now - 60))
        status = read_status(str(tmp_path), clock=lambda: now)
        assert status.completed == 3
        assert status.rate_per_second == 0.0
        assert status.eta_seconds is None
        assert status.elapsed_seconds == 60.0

    def test_zero_completed_first_frame_reports_no_rate_or_eta(
            self, tmp_path):
        """The very first status frame of a campaign — work published,
        nothing completed yet — must report rate 0 and ETA unknown,
        not divide by zero or extrapolate from an empty span."""
        now = 1000.0
        os.makedirs(tmp_path / "todo")
        for index in range(4):
            (tmp_path / "todo" / f"exp_{index:04d}.txt").write_text("x")
        status = read_status(str(tmp_path), clock=lambda: now)
        assert status.completed == 0
        assert status.total == 4
        assert status.rate_per_second == 0.0
        assert status.eta_seconds is None
        text = render_status(status)
        assert "0/4 completed" in text
        assert "eta" not in text

    def test_status_coverage_frame_is_opt_in(self, tmp_path):
        """read_status(coverage=True) attaches the heatmap-free
        coverage summary; the default frame (and its dict) stays
        byte-identical to the pre-coverage tool."""
        os.makedirs(tmp_path / "results")
        (tmp_path / "results" / "exp_0000.json").write_text(
            json.dumps({"outcome": "sdc", "fault_file": REG_FAULT,
                        "time_fraction": 0.5, "injected": True}))
        plain = read_status(str(tmp_path), clock=lambda: 1000.0)
        assert plain.coverage is None
        assert "coverage" not in plain.as_dict()
        status = read_status(str(tmp_path), clock=lambda: 1000.0,
                             coverage=True)
        assert status.coverage is not None
        assert status.coverage["accounted"]["experiments"] == 1
        assert "heatmaps" not in status.coverage
        assert "coverage" in status.as_dict()
        text = render_status(status)
        assert "coverage" in text
        assert "margin" in text

    def test_drained_queue_eta_zero_even_without_rate(self, tmp_path):
        for sub in ("results", "claims"):
            os.makedirs(tmp_path / sub)
        now = 1000.0
        (tmp_path / "claims" / "exp_0000.txt.claim").write_text(
            json.dumps({"worker": "ws0", "pid": 1, "time": now - 10}))
        (tmp_path / "results" / "exp_0000.json").write_text(
            json.dumps({"outcome": "sdc"}))
        status = read_status(str(tmp_path), clock=lambda: now)
        assert status.todo == 0 and status.claimed == 0
        assert status.eta_seconds == 0.0


# -- campaign runner integration ----------------------------------------------


class TestCampaignIntegration:
    @pytest.fixture(scope="class")
    def runner(self):
        from repro.campaign import CampaignRunner
        from repro.workloads import build
        return CampaignRunner(build("pi", "tiny"))

    def test_result_dict_is_self_describing(self, runner):
        from repro.campaign import SEUGenerator
        from repro.core import parse_fault_file
        generator = SEUGenerator(runner.golden.profile, seed=11)
        fault = generator.batch(1)[0]
        result = runner.run_experiment(fault, seed=11)
        payload = result.as_dict()
        assert payload["workload"] == "pi"
        assert payload["seed"] == 11
        # The recorded fault file re-parses to the same fault.
        again = parse_fault_file(payload["fault_file"])
        assert [f.describe() for f in again] == [fault.describe()]

    def test_experiment_events_on_runner_bus(self, runner):
        from repro.campaign import SEUGenerator
        sink = ListSink()
        runner.bus = TraceBus(sink)
        try:
            generator = SEUGenerator(runner.golden.profile, seed=12)
            runner.run_experiment(generator.batch(1)[0])
        finally:
            runner.bus = None
        kinds = [e.kind for e in sink.events]
        assert kinds[0] == "experiment_start"
        assert kinds[-1] == "experiment_end"
        assert "checkpoint_restore" in kinds
        end = sink.of_kind("experiment_end")[0]
        assert end.data["outcome"]
        assert end.data["wall_seconds"] > 0

    def test_worker_asks_git_for_the_revision_once(self, runner,
                                                   tmp_path,
                                                   monkeypatch):
        """Outside a git checkout ``git describe`` fails and the
        revision is None.  A process asks once: a forked job, whose
        coordinator asks before it forks, and then an in-process job
        record None in every manifest without asking again."""
        import subprocess

        from repro.campaign import SEUGenerator, SharedDirCampaign
        from repro.telemetry.campaign import git_describe
        asked = tmp_path / "asked"

        def outside_a_checkout(argv, **kwargs):
            with open(asked, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            return subprocess.CompletedProcess(argv, 128, "", "")

        git_describe.cache_clear()
        monkeypatch.setattr(subprocess, "run", outside_a_checkout)
        try:
            for workers in (2, 1):
                share = tmp_path / f"share{workers}"
                campaign = SharedDirCampaign(str(share), "pi", "tiny")
                generator = SEUGenerator(runner.golden.profile, seed=14)
                campaign.publish(runner, generator.batch(3), seed=14)
                campaign.run_local(workers=workers, runner=runner)
                manifests = sorted(os.listdir(share / "manifests"))
                assert len(manifests) == 3
                for name in manifests:
                    with open(share / "manifests" / name) as handle:
                        assert json.load(handle)["git"] is None
        finally:
            git_describe.cache_clear()
        assert asked.read_text().split() == [str(os.getpid())]

    def test_worker_loop_writes_heartbeats_and_manifests(
            self, runner, tmp_path):
        from repro.campaign import SEUGenerator, SharedDirCampaign
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=13)
        campaign.publish(runner, generator.batch(2), seed=13)
        completed = campaign.worker_loop("ws0", runner)
        assert completed == 2
        beats = read_heartbeats(str(tmp_path))
        assert beats["ws0"]["completed"] == 2
        manifests = sorted(os.listdir(tmp_path / "manifests"))
        assert manifests == ["exp_0000.json", "exp_0001.json"]
        with open(tmp_path / "manifests" / "exp_0000.json") as handle:
            manifest = json.load(handle)
        assert manifest["workload"] == "pi"
        assert manifest["seed"] == 13
        assert manifest["worker"] == "ws0"
        assert manifest["outcome"]
        assert manifest["fault_file"]
        # Results carry the published seed too.
        with open(tmp_path / "results" / "exp_0000.json") as handle:
            assert json.load(handle)["seed"] == 13
        # A drained campaign reads as fully complete: finished claims
        # (which stay in claims/) must not count as in flight.
        status = read_status(str(tmp_path))
        assert status.completed == 2
        assert status.claimed == 0
        assert status.todo == 0
        assert status.eta_seconds == 0.0


# -- CLI surfaces -------------------------------------------------------------


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(WINDOWED)
    return str(path)


class TestCliSurfaces:
    def test_trace_streams_jsonl(self, minic_file, capsys):
        assert main(["run", minic_file, "--fault", REG_FAULT,
                     "--trace", "-"]) == 0
        out = capsys.readouterr().out
        events = list(events_from_jsonl(out))
        kinds = [e.kind for e in events]
        assert kinds[0] == "fault_armed"
        assert "fault_injected" in kinds
        assert "process_exit" in kinds

    def test_trace_to_file_and_ring(self, minic_file, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        assert main(["run", minic_file, "--trace",
                     str(trace_path)]) == 0
        assert list(events_from_jsonl(trace_path.read_text()))
        capsys.readouterr()  # the run summary of the file-traced run
        assert main(["run", minic_file, "--trace", "-",
                     "--ring", "2"]) == 0
        ring_out = capsys.readouterr().out
        assert len(list(events_from_jsonl(ring_out))) <= 2

    def test_status_command(self, tmp_path, capsys):
        TestCampaignObservability()._make_share(tmp_path)
        assert main(["status", str(tmp_path)]) == 0
        assert "completed" in capsys.readouterr().out
        assert main(["status", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 5

    def test_stats_diff_command(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("x 1\ny 2\n")
        b.write_text("x 1\ny 2\n")
        assert main(["stats-diff", str(a), str(b)]) == 0
        assert "0 differences" in capsys.readouterr().out
        b.write_text("x 1\ny 3\n")
        assert main(["stats-diff", str(a), str(b)]) == 1
        assert "~ y 2 -> 3" in capsys.readouterr().out


# -- stats-diff tolerance -----------------------------------------------------


class TestStatsDiffTolerance:
    A = "sim.ticks 1000\nsystem.cpu0.committed 50\n"
    B = "sim.ticks 1010\nsystem.cpu0.committed 51\n"

    def test_strict_by_default(self):
        differences = diff_stats(self.A, self.B)
        assert len(differences) == 2

    def test_tolerance_forgives_only_timing_stats(self):
        differences = diff_stats(self.A, self.B, tolerance=0.05)
        assert differences == [
            "~ system.cpu0.committed 50 -> 51"]

    def test_tolerance_still_reports_large_timing_drift(self):
        differences = diff_stats("sim.ticks 1000\n", "sim.ticks 2000\n",
                                 tolerance=0.05)
        assert differences == ["~ sim.ticks 1000 -> 2000"]

    def test_non_numeric_timing_values_stay_strict(self):
        differences = diff_stats("boot.ticks abc\n", "boot.ticks abd\n",
                                 tolerance=0.5)
        assert differences == ["~ boot.ticks abc -> abd"]

    def test_cli_tolerance_flag(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("sim.ticks 1000\nsystem.cpu0.committed 50\n")
        b.write_text("sim.ticks 1001\nsystem.cpu0.committed 50\n")
        assert main(["stats-diff", str(a), str(b)]) == 1
        capsys.readouterr()
        assert main(["stats-diff", str(a), str(b),
                     "--tolerance", "0.01"]) == 0
        assert "0 differences" in capsys.readouterr().out


# -- live tailing: gemfi trace ------------------------------------------------


def _append_events_slowly(path: str, events, delay: float = 0.02):
    """Writer-thread body: append JSONL lines with a flush per line."""
    with open(path, "a", encoding="utf-8") as handle:
        for event in events:
            handle.write(event.to_json() + "\n")
            handle.flush()
            time.sleep(delay)


class TestFollowTrace:
    EVENTS = [
        TraceEvent("fault_armed", 0, {"fault": "f0"}),
        TraceEvent("fault_injected", 120, {"location": "int 1"}),
        TraceEvent("trap", 200, {"reason": "page_fault"}),
        TraceEvent("process_exit", 260, {"code": 0}),
    ]

    def test_follow_jsonl_sees_lines_from_live_writer(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text("")
        writer = threading.Thread(
            target=_append_events_slowly,
            args=(str(path), self.EVENTS))
        writer.start()
        try:
            got = list(follow_jsonl(str(path), poll=0.01,
                                    idle_timeout=0.5))
        finally:
            writer.join()
        assert got == self.EVENTS

    def test_follow_jsonl_buffers_partial_lines(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        line = self.EVENTS[0].to_json() + "\n"
        path.write_text("")
        writes = [line[:10], line[10:]]  # torn write mid-line

        def feed():
            with open(path, "a", encoding="utf-8") as handle:
                for part in writes:
                    handle.write(part)
                    handle.flush()
                    time.sleep(0.05)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            got = list(follow_jsonl(str(path), poll=0.01,
                                    idle_timeout=0.4))
        finally:
            writer.join()
        assert got == [self.EVENTS[0]]

    def test_cli_trace_follow(self, tmp_path, capsys):
        path = tmp_path / "cli.jsonl"
        path.write_text("")
        writer = threading.Thread(
            target=_append_events_slowly,
            args=(str(path), self.EVENTS))
        writer.start()
        try:
            code = main(["trace", str(path),
                         "--poll", "0.01", "--idle-timeout", "0.4"])
        finally:
            writer.join()
        assert code == 0
        out = capsys.readouterr().out
        tailed = list(events_from_jsonl(out))
        assert tailed == self.EVENTS

    def test_cli_trace_follow_requires_path(self, capsys):
        assert main(["trace"]) == 2
        assert "tail" in capsys.readouterr().err


class TestStatusWatch:
    def test_watch_zero_renders_once(self, tmp_path, capsys):
        TestCampaignObservability()._make_share(tmp_path)
        assert main(["status", str(tmp_path)]) == 0
        assert capsys.readouterr().out.count("experiments :") == 1


# -- trace-bus continuity across checkpoint restore ---------------------------


class TestBusContinuityAcrossRestore:
    """Events emitted after ``restore_checkpoint`` must land on the same
    bus/sink, with ticks that never run backwards (satellite 4)."""

    @pytest.mark.parametrize("model",
                             ["atomic", "timing", "inorder", "o3"])
    def test_restore_keeps_bus_and_monotonic_ticks(self, model):
        sink = ListSink()
        bus = TraceBus(sink)
        injector = FaultInjector.from_text(REG_FAULT)
        sim = Simulator(SimConfig(cpu_model=model), injector=injector,
                        bus=bus)
        sim.load(compile_source(WINDOWED), "test")
        holder = {}
        sim.on_checkpoint = lambda s: holder.__setitem__(
            "blob", dumps_checkpoint(s))
        sim.run(until_checkpoint=True, max_instructions=2_000_000)
        assert "blob" in holder
        pre_restore = len(sink.events)
        assert sink.of_kind("checkpoint_save")

        faults = parse_fault_file(REG_FAULT)
        restored = restore_checkpoint(holder["blob"], faults=faults,
                                      bus=bus)
        result = restored.run(max_instructions=2_000_000)
        assert result.status == "completed"
        assert restored.process(0).state.value == "exited"

        # Same sink kept receiving: restore marker plus the rest of the
        # run's lifecycle landed after the pre-restore events.
        kinds = [e.kind for e in sink.events]
        assert "checkpoint_restore" in kinds[pre_restore:]
        assert "process_exit" in kinds[pre_restore:]
        assert sink.of_kind("fault_injected")

        # Ticks never regress: the restored clock resumes from the
        # checkpointed tick, not from zero.
        ticks = [e.tick for e in sink.events]
        assert ticks == sorted(ticks)
        restore_event = sink.of_kind("checkpoint_restore")[0]
        assert restore_event.tick > 0


class TestServiceAwareStatus:
    """read_status on a service-run share (a service.json marker)
    surfaces the owning job and tenant; a plain NoW share stays
    byte-identical to the pre-service output."""

    def _plain_share(self, tmp_path):
        for sub in ("todo", "results", "claims"):
            os.makedirs(tmp_path / sub, exist_ok=True)
        (tmp_path / "results" / "exp_0000.json").write_text(
            json.dumps({"outcome": "masked"}))

    def test_plain_share_has_no_service_key(self, tmp_path):
        self._plain_share(tmp_path)
        status = read_status(str(tmp_path), clock=lambda: 1000.0)
        assert status.service is None
        assert "service" not in status.as_dict()
        assert "service" not in render_status(status)

    def test_service_marker_names_job_and_tenant(self, tmp_path):
        self._plain_share(tmp_path)
        (tmp_path / "service.json").write_text(json.dumps(
            {"job": "job-abc", "tenant": "alice"}))
        status = read_status(str(tmp_path), clock=lambda: 1000.0)
        assert status.service == {"job": "job-abc",
                                  "tenant": "alice"}
        assert status.as_dict()["service"]["job"] == "job-abc"
        text = render_status(status)
        assert "job=job-abc" in text
        assert "tenant=alice" in text

    def test_corrupt_service_marker_is_ignored(self, tmp_path):
        self._plain_share(tmp_path)
        (tmp_path / "service.json").write_text('{"job": trunc')
        status = read_status(str(tmp_path), clock=lambda: 1000.0)
        assert status.service is None
