"""Span tracing, timeline export, watchdog and dashboard tests."""

import json
import os
import time

import pytest

from repro.cli import main
from repro.campaign import CampaignRunner, SEUGenerator, SharedDirCampaign
from repro.compiler import compile_source
from repro.core.injector import FaultInjector
from repro.sim.checkpoint import dumps_checkpoint, restore_checkpoint
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulator
from repro.telemetry.campaign import (read_status, render_status,
                                      write_heartbeat)
from repro.telemetry.spans import (CAMPAIGN_PATH, JsonlSpanSink,
                                   ListSpanSink, TraceContext, Tracer,
                                   load_spans, span_log_path)
from repro.telemetry.timeline import (build_timeline, render_timeline,
                                      validate_trace)
from repro.telemetry.watchdog import (append_alerts, dashboard_view,
                                      evaluate_alerts, read_alerts,
                                      render_dashboard)
from repro.workloads import build

CPU_MODELS = ("atomic", "timing", "inorder", "o3")


@pytest.fixture(scope="module")
def runner():
    return CampaignRunner(build("pi", "tiny"))


def _drain_with_tracer(share_dir, runner, seed, worker="w0",
                       experiments=4):
    """Publish *experiments* and drain them with one traced worker."""
    campaign = SharedDirCampaign(share_dir, "pi", "tiny")
    generator = SEUGenerator(runner.golden.profile, seed=seed)
    campaign.publish(runner, generator.batch(experiments), seed=seed,
                     trace=True)
    tracer = Tracer(TraceContext(seed),
                    sink=JsonlSpanSink(span_log_path(share_dir, worker)),
                    worker=worker, base_path=CAMPAIGN_PATH)
    runner.enable_tracing(tracer)
    try:
        completed = campaign.worker_loop(worker, runner, tracer=tracer)
    finally:
        runner.tracer = None
        tracer.close()
    return campaign, completed


@pytest.fixture(scope="module")
def traced_share(tmp_path_factory, runner):
    share = str(tmp_path_factory.mktemp("traced-share"))
    _campaign, completed = _drain_with_tracer(share, runner, seed=21)
    assert completed == 4
    return share


class TestTraceContext:
    def test_ids_are_deterministic(self):
        a = TraceContext(42)
        b = TraceContext(42)
        assert a.trace_id == b.trace_id
        assert a.span_id("/campaign/exp_0001") == \
            b.span_id("/campaign/exp_0001")

    def test_seed_and_path_change_ids(self):
        a = TraceContext(42)
        b = TraceContext(43)
        assert a.trace_id != b.trace_id
        assert a.span_id("/campaign/exp_0001") != \
            a.span_id("/campaign/exp_0002")


class TestTracer:
    def test_nesting_and_two_record_protocol(self):
        sink = ListSpanSink()
        tracer = Tracer(TraceContext(7), sink=sink, worker="w0")
        outer = tracer.start("campaign")
        inner = tracer.start("exp_0000", tick=0)
        assert tracer.current is inner
        assert inner.parent_id == outer.span_id
        tracer.finish(inner, tick=50)
        tracer.finish(outer)
        kinds = [r["ev"] for r in sink.records]
        assert kinds == ["open", "open", "span", "span"]
        assert "t1" not in sink.records[0]
        closed = sink.records[2]
        assert closed["name"] == "exp_0000"
        assert closed["tick0"] == 0 and closed["tick1"] == 50

    def test_repeated_names_get_distinct_paths(self):
        tracer = Tracer(TraceContext(7))
        first = tracer.start("save")
        tracer.finish(first)
        second = tracer.start("save")
        tracer.finish(second)
        assert first.path != second.path
        assert first.span_id != second.span_id

    def test_base_path_parents_under_remote_campaign_span(self):
        context = TraceContext(9)
        coordinator = Tracer(context, worker="coordinator")
        root = coordinator.start("campaign")
        worker = Tracer(context, worker="w3", base_path=CAMPAIGN_PATH)
        span = worker.start("exp_0002")
        assert root.path == CAMPAIGN_PATH
        assert span.parent_id == root.span_id

    def test_retro_record_and_contextmanager(self):
        sink = ListSpanSink()
        tracer = Tracer(TraceContext(7), sink=sink)
        with tracer.span("checkpoint_save", tick=5) as span:
            assert tracer.current is span
        parent = tracer.start("exp")
        child = tracer.record("boot", 1.0, 1.5, tick0=0, tick1=0,
                              parent=parent, kind="phase")
        assert child.t1 - child.t0 == pytest.approx(0.5)
        assert child.parent_id == parent.span_id


class TestCheckpointSpanContinuity:
    @pytest.mark.parametrize("model", CPU_MODELS)
    def test_trace_context_survives_save_restore(self, model):
        spec = build("pi", "tiny")
        asm = compile_source(spec.source)
        context = TraceContext(11)
        sink = ListSpanSink()
        tracer = Tracer(context, sink=sink, worker="w0")
        sim = Simulator(SimConfig(cpu_model=model),
                        injector=FaultInjector())
        sim.load(asm, "pi")
        sim.tracer = tracer
        holder = {}
        sim.on_checkpoint = lambda s: holder.__setitem__(
            "blob", dumps_checkpoint(s))
        sim.run(until_checkpoint=True, max_instructions=50_000_000)
        assert "blob" in holder
        saves = [r for r in sink.records
                 if r["ev"] == "span" and r["name"] == "checkpoint_save"]
        assert len(saves) == 1
        assert saves[0]["trace"] == context.trace_id

        restored = restore_checkpoint(holder["blob"], tracer=tracer)
        assert restored.tracer is tracer
        restores = [r for r in sink.records if r["ev"] == "span"
                    and r["name"] == "checkpoint_restore"]
        assert len(restores) == 1
        assert restores[0]["trace"] == saves[0]["trace"]
        assert restores[0]["tick1"] == restored.tick
        result = restored.run(max_instructions=50_000_000)
        assert result.status == "completed"


class TestRunnerSpans:
    def test_phase_children_partition_wall_seconds(self, runner):
        sink = ListSpanSink()
        tracer = Tracer(TraceContext(3), sink=sink, worker="w0",
                        base_path=CAMPAIGN_PATH)
        runner.enable_tracing(tracer)
        try:
            generator = SEUGenerator(runner.golden.profile, seed=3)
            result = runner.run_experiment(generator.batch(1)[0])
        finally:
            runner.tracer = None
        spans = [r for r in sink.records if r["ev"] == "span"]
        experiments = [r for r in spans
                       if r["attrs"].get("kind") == "experiment"]
        assert len(experiments) == 1
        experiment = experiments[0]
        assert experiment["parent"] == \
            TraceContext(3).span_id(CAMPAIGN_PATH)
        assert experiment["attrs"]["outcome"] == result.outcome.value
        assert experiment["attrs"]["wall_seconds"] == \
            result.wall_seconds
        phases = [r for r in spans
                  if r["attrs"].get("kind") == "phase"]
        assert [p["name"] for p in phases] == \
            ["boot", "window", "injection", "drain"]
        for phase in phases:
            assert phase["parent"] == experiment["span"]
        total = sum(p["t1"] - p["t0"] for p in phases)
        assert total == pytest.approx(result.wall_seconds, abs=1e-6)
        # Edges are contiguous from the experiment's start.
        edge = experiment["t0"]
        for phase in phases:
            assert phase["t0"] == pytest.approx(edge, abs=1e-9)
            edge = phase["t1"]
        restores = [r for r in spans
                    if r["name"] == "checkpoint_restore"]
        assert len(restores) == 1
        assert restores[0]["parent"] == experiment["span"]


class TestSharedCampaignTracing:
    def test_worker_loop_appends_span_logs(self, traced_share):
        finished, opened = load_spans(traced_share)
        assert not opened
        context = TraceContext(21)
        experiments = [r for r in finished
                       if r["attrs"].get("kind") == "experiment"]
        assert sorted(r["name"] for r in experiments) == \
            [f"exp_{i:04d}" for i in range(4)]
        for record in experiments:
            assert record["trace"] == context.trace_id
            assert record["parent"] == context.span_id(CAMPAIGN_PATH)
            assert isinstance(record["tick0"], int)
            assert isinstance(record["tick1"], int)

    def test_published_trace_flag_round_trips(self, traced_share):
        campaign = SharedDirCampaign(traced_share, "pi", "tiny")
        assert campaign.published()["trace"] is True


class TestTimeline:
    def test_host_timeline_is_valid_and_partitions_exactly(
            self, traced_share):
        payload = build_timeline(traced_share, timebase="host")
        assert validate_trace(payload) > 0
        events = payload["traceEvents"]
        experiments = [e for e in events
                       if e.get("cat") == "experiment"]
        assert len(experiments) == 4
        for index, event in enumerate(events):
            if event.get("cat") != "experiment":
                continue
            wall = event["args"]["wall_seconds"]
            assert event["dur"] == int(round(wall * 1e6))
            children = events[index + 1:index + 5]
            assert [c["name"] for c in children] == \
                ["boot", "window", "injection", "drain"]
            assert sum(c["dur"] for c in children) == event["dur"]
            edge = event["ts"]
            for child in children:
                assert child["ts"] == edge
                edge += child["dur"]

    def test_injection_instants_mark_injected_runs(self, traced_share):
        payload = build_timeline(traced_share, timebase="host")
        events = payload["traceEvents"]
        injected = [e for e in events if e.get("cat") == "experiment"
                    and e["args"].get("injected")]
        instants = [e for e in events if e.get("cat") == "injection"]
        assert len(instants) == len(injected)
        for instant in instants:
            assert instant["ph"] == "i" and instant["s"] == "t"

    def test_ticks_timeline_identical_across_worker_interleavings(
            self, tmp_path, runner):
        seed = 33
        share_a = str(tmp_path / "a")
        _drain_with_tracer(share_a, runner, seed=seed)

        share_b = str(tmp_path / "b")
        campaign = SharedDirCampaign(share_b, "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=seed)
        campaign.publish(runner, generator.batch(4), seed=seed,
                         trace=True)
        tracers = {
            worker: Tracer(
                TraceContext(seed),
                sink=JsonlSpanSink(span_log_path(share_b, worker)),
                worker=worker, base_path=CAMPAIGN_PATH)
            for worker in ("w0", "w1")}
        try:
            for worker in ("w1", "w0", "w1", "w0"):
                runner.enable_tracing(tracers[worker])
                assert campaign.run_one(worker, runner,
                                        tracer=tracers[worker])
        finally:
            runner.tracer = None
            for tracer in tracers.values():
                tracer.close()

        text_a = render_timeline(share_a, timebase="ticks", slots=2)
        text_b = render_timeline(share_b, timebase="ticks", slots=2)
        assert text_a == text_b
        assert validate_trace(text_a) > 0
        # ... and the render itself is stable byte-for-byte.
        assert render_timeline(share_a, timebase="ticks",
                               slots=2) == text_a

    def test_validate_trace_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_trace(json.dumps({"traceEvents": "nope"}))
        with pytest.raises(ValueError):
            validate_trace(json.dumps(
                {"traceEvents": [{"ph": "X", "name": "x", "ts": 0,
                                  "dur": -5, "pid": 1, "tid": 0}]}))
        with pytest.raises(ValueError):
            build_timeline(".", timebase="bogus")


class TestZeroOverheadWhenDisabled:
    def test_untraced_share_layout_is_unchanged(self, tmp_path, runner):
        share = str(tmp_path)
        campaign = SharedDirCampaign(share, "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=5)
        campaign.publish(runner, generator.batch(2), seed=5)
        assert runner.tracer is None
        completed = campaign.worker_loop("w0", runner)
        assert completed == 2
        assert sorted(os.listdir(share)) == [
            "claims", "golden.pkl",
            "heartbeats", "manifests", "results", "todo",
            "workload.json"]
        workload = json.loads(
            (tmp_path / "workload.json").read_text())
        assert "trace" not in workload
        finished, opened = load_spans(share)
        assert finished == [] and opened == []
        assert read_alerts(share) == []

    def test_untraced_result_keys_unchanged(self, runner):
        generator = SEUGenerator(runner.golden.profile, seed=6)
        result = runner.run_experiment(generator.batch(1)[0])
        assert sorted(result.as_dict()) == [
            "crash_reason", "divergence", "early_exit", "fault",
            "fault_file", "injected", "injection_asm",
            "injection_detail", "injection_pc", "instructions",
            "outcome", "phases", "predicted", "propagated",
            "propagation", "replay_start", "seed", "ticks",
            "time_fraction", "wall_seconds", "workload"]


def _claim(tmp_path, experiment, worker, time):
    """A claim file of *worker* on *experiment*, claimed at *time*."""
    (tmp_path / "claims").mkdir(exist_ok=True)
    (tmp_path / "claims" / f"{experiment}.txt.claim").write_text(
        json.dumps({"worker": worker, "pid": 1, "time": time}))


class TestHeartbeatEnrichment:
    def test_heartbeat_carries_identity_and_experiment(self, tmp_path):
        """The beat carries the worker's identity; the experiment it
        runs is its claim without a result, which the status adds."""
        path = write_heartbeat(str(tmp_path), "w0", 3,
                               clock=lambda: 1000.0)
        beat = json.loads(open(path).read())
        assert beat["worker"] == "w0"
        assert beat["pid"] == os.getpid()
        assert beat["hostname"]
        assert beat["completed"] == 3
        assert "current_experiment" not in beat
        _claim(tmp_path, "exp_0007", "w0", 990.0)
        status = read_status(str(tmp_path), clock=lambda: 1000.0)
        assert status.workers["w0"]["current_experiment"] == "exp_0007"

    def test_status_annotates_and_renders_workers(self, tmp_path):
        clock = {"now": 1000.0}
        _claim(tmp_path, "exp_0001", "w0", 990.0)
        write_heartbeat(str(tmp_path), "w0", 2,
                        clock=lambda: clock["now"])
        write_heartbeat(str(tmp_path), "w1", 5,
                        clock=lambda: clock["now"] - 500.0)
        status = read_status(str(tmp_path),
                             clock=lambda: clock["now"])
        assert status.workers["w0"]["live"] is True
        assert status.workers["w1"]["live"] is False
        assert status.workers["w1"]["age"] == pytest.approx(500.0)
        assert status.live_workers == 1
        assert status.as_dict()["workers"]["w0"][
            "current_experiment"] == "exp_0001"
        text = render_status(status)
        assert "w0: live" in text
        assert "running=exp_0001" in text
        assert "w1: silent" in text


class TestHeartbeatLivenessRecovery:
    def test_live_worker_is_never_robbed(self, tmp_path, runner):
        clock = {"now": 1000.0}
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny",
                                     clock=lambda: clock["now"])
        generator = SEUGenerator(runner.golden.profile, seed=13)
        campaign.publish(runner, generator.batch(1))
        assert campaign.claim("w0") is not None
        # w0 is slow but alive: its claim ages past the stale limit
        # while its heartbeat stays fresh.
        clock["now"] += 601.0
        write_heartbeat(str(tmp_path), "w0", 0,
                        clock=lambda: clock["now"])
        assert campaign.claim("w1") is None
        entry = json.loads(
            (tmp_path / "claims" / "exp_0000.txt.claim").read_text())
        assert entry["worker"] == "w0"

    def test_dead_heartbeat_is_reclaimed_before_stale_limit(
            self, tmp_path, runner):
        clock = {"now": 1000.0}
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny",
                                     clock=lambda: clock["now"])
        generator = SEUGenerator(runner.golden.profile, seed=14)
        campaign.publish(runner, generator.batch(1))
        write_heartbeat(str(tmp_path), "w0", 0,
                        clock=lambda: clock["now"])
        assert campaign.claim("w0") is not None
        # 130s later the claim is far from stale (600s) but the
        # heartbeat has aged out (120s): reclaim immediately.
        clock["now"] += 130.0
        stolen = campaign.claim("w1")
        assert stolen is not None
        assert stolen == "exp_0000"


def _touch(path, mtime):
    os.utime(path, (mtime, mtime))


class TestWatchdogRules:
    def test_dead_worker_alert_names_held_experiment(self, tmp_path):
        share = str(tmp_path)
        (tmp_path / "claims").mkdir()
        (tmp_path / "claims" / "exp_0000.txt.claim").write_text(
            json.dumps({"worker": "w0", "pid": 1, "time": 1000.0}))
        write_heartbeat(share, "w0", 0, clock=lambda: 1000.0)
        _snap, alerts = evaluate_alerts(share, clock=lambda: 1200.0)
        dead = [a for a in alerts if a.rule == "dead-worker"]
        assert len(dead) == 1
        assert dead[0].severity == "critical"
        assert dead[0].worker == "w0"
        assert dead[0].experiment == "exp_0000"

    def test_dead_worker_alert_names_the_claim_not_the_beat(self,
                                                           tmp_path):
        """A beat carries no ``current_experiment``: the dead-worker
        alert and the frame's worker line name the claim the silent
        worker holds without a result, not one it finished."""
        share = str(tmp_path)
        _claim(tmp_path, "exp_0002", "w0", 900.0)
        _claim(tmp_path, "exp_0004", "w0", 950.0)
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "exp_0002.json").write_text(
            json.dumps({"outcome": "sdc"}))
        path = write_heartbeat(share, "w0", 1, clock=lambda: 960.0)
        assert "current_experiment" not in json.loads(open(path).read())
        text, alerts = render_dashboard(share, clock=lambda: 1200.0)
        assert [(a.rule, a.severity, a.experiment) for a in alerts] == \
            [("dead-worker", "critical", "exp_0004")]
        assert "  w0: silent 240s ago done=1 running=exp_0004" in text
        assert "while holding exp_0004" in text

    def test_fresh_heartbeat_raises_no_dead_worker(self, tmp_path):
        share = str(tmp_path)
        write_heartbeat(share, "w0", 0, clock=lambda: 1000.0)
        _snap, alerts = evaluate_alerts(share, clock=lambda: 1050.0)
        assert not [a for a in alerts if a.rule == "dead-worker"]

    @staticmethod
    def _claim_after_three_results(tmp_path):
        """Three 1-s results, then a worker claims ``exp_0009`` at
        t=1000 as every share worker does."""
        (tmp_path / "results").mkdir()
        for index in range(3):
            (tmp_path / "results" / f"exp_{index:04d}.json").write_text(
                json.dumps({"outcome": "masked", "wall_seconds": 1.0,
                            "instructions": 1000}))
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny",
                                     clock=lambda: 1000.0)
        (tmp_path / "todo" / "exp_0009.txt").write_text("x")
        assert campaign.claim("w0") == "exp_0009"

    def test_stalled_experiment_alert(self, tmp_path):
        share = str(tmp_path)
        self._claim_after_three_results(tmp_path)
        write_heartbeat(share, "w0", 3, clock=lambda: 1090.0)
        _snap, alerts = evaluate_alerts(share, clock=lambda: 1100.0)
        stalled = [a for a in alerts if a.rule == "stalled-experiment"]
        assert len(stalled) == 1
        assert stalled[0].experiment == "exp_0009"
        assert stalled[0].worker == "w0"
        # A dead worker's open span is reported as dead-worker instead.
        _snap, alerts = evaluate_alerts(share, clock=lambda: 1300.0)
        assert not [a for a in alerts
                    if a.rule == "stalled-experiment"]
        assert [a for a in alerts if a.rule == "dead-worker"]

    def test_stalled_experiment_alert_without_spans(self, tmp_path):
        """An untraced share has no span records: the claim alone
        raises the alert.  A traced worker's open span of the same
        experiment adds no second alert."""
        share = str(tmp_path)
        self._claim_after_three_results(tmp_path)
        write_heartbeat(share, "w0", 3, clock=lambda: 1090.0)
        assert not (tmp_path / "spans").exists()
        _snap, alerts = evaluate_alerts(share, clock=lambda: 1100.0)
        stalled = [a for a in alerts if a.rule == "stalled-experiment"]
        assert [(a.worker, a.experiment) for a in stalled] == \
            [("w0", "exp_0009")]
        assert stalled[0].message == \
            "exp_0009 held for 100s by w0 (p90 is 1.0s)"
        (tmp_path / "spans").mkdir()
        (tmp_path / "spans" / "w0.jsonl").write_text(json.dumps(
            {"ev": "open", "name": "exp_0009", "span": "s9",
             "parent": None, "trace": "t", "worker": "w0",
             "t0": 1000.0, "tick0": 0,
             "attrs": {"kind": "experiment",
                       "experiment": "exp_0009"}}) + "\n")
        _snap, alerts = evaluate_alerts(share, clock=lambda: 1100.0)
        assert [a.key for a in alerts if a.rule == "stalled-experiment"] \
            == [stalled[0].key]

    def test_throughput_collapse_alert(self, tmp_path):
        share = str(tmp_path)
        (tmp_path / "results").mkdir()
        (tmp_path / "todo").mkdir()
        (tmp_path / "todo" / "exp_0009.txt").write_text("x")
        for index in range(3):
            path = tmp_path / "results" / f"exp_{index:04d}.json"
            path.write_text(json.dumps(
                {"outcome": "masked", "wall_seconds": 1.0}))
            _touch(path, 1000.0 + index)
        _snap, alerts = evaluate_alerts(share, clock=lambda: 1100.0)
        collapsed = [a for a in alerts
                     if a.rule == "throughput-collapse"]
        assert len(collapsed) == 1
        # Right after a result, no alert.
        _snap, alerts = evaluate_alerts(share, clock=lambda: 1004.0)
        assert not [a for a in alerts
                    if a.rule == "throughput-collapse"]

    def test_outcome_drift_alert(self, tmp_path):
        share = str(tmp_path)
        (tmp_path / "results").mkdir()
        outcomes = ["masked"] * 15 + ["sdc"] * 20
        for index, outcome in enumerate(outcomes):
            path = tmp_path / "results" / f"exp_{index:04d}.json"
            path.write_text(json.dumps({"outcome": outcome}))
            _touch(path, 1000.0 + index)
        _snap, alerts = evaluate_alerts(share, clock=lambda: 1040.0)
        drift = [a for a in alerts if a.rule == "outcome-drift"]
        assert {a.experiment for a in drift} == {"masked", "sdc"}

    def test_append_alerts_dedups(self, tmp_path):
        share = str(tmp_path)
        write_heartbeat(share, "w0", 0, clock=lambda: 1000.0)
        _snap, alerts = evaluate_alerts(share, clock=lambda: 1500.0)
        assert alerts
        assert append_alerts(share, alerts)
        assert append_alerts(share, alerts) == []
        entries = read_alerts(share)
        assert len(entries) == len(alerts)
        assert all("rule" in entry for entry in entries)

    def test_dashboard_view_renders_workers_and_alerts(self, tmp_path):
        share = str(tmp_path)
        _claim(tmp_path, "exp_0003", "w0", 1000.0)
        write_heartbeat(share, "w0", 2, clock=lambda: 1000.0)
        snap, alerts = evaluate_alerts(share, clock=lambda: 1010.0)
        text = dashboard_view(snap, alerts)
        assert "w0" in text
        assert "exp_0003" in text
        assert "alerts" in text


class TestWatchdogIntegration:
    def test_dead_worker_alert_and_recovery_completes_campaign(
            self, tmp_path, runner):
        clock = {"now": 1000.0}
        share = str(tmp_path)
        campaign = SharedDirCampaign(share, "pi", "tiny",
                                     clock=lambda: clock["now"])
        generator = SEUGenerator(runner.golden.profile, seed=15)
        campaign.publish(runner, generator.batch(3), seed=15)
        # w0 claims exp_0000, heartbeats once ... and dies.
        claimed = campaign.claim("w0")
        assert claimed == "exp_0000"
        write_heartbeat(share, "w0", 0, clock=lambda: clock["now"])
        clock["now"] += 130.0
        _snap, alerts = evaluate_alerts(share,
                                        clock=lambda: clock["now"])
        dead = [a for a in alerts if a.rule == "dead-worker"]
        assert len(dead) == 1
        assert dead[0].worker == "w0"
        assert dead[0].experiment == "exp_0000"
        # The campaign still completes: w1 reclaims w0's experiment via
        # heartbeat-liveness recovery and drains the queue.
        completed = campaign.worker_loop("w1", runner)
        assert completed == 3
        assert len(campaign.collect()) == 3


class TestCli:
    def test_timeline_command_emits_valid_trace(self, traced_share,
                                                capsys, tmp_path):
        out_path = str(tmp_path / "trace.json")
        assert main(["timeline", traced_share, "-o", out_path]) == 0
        with open(out_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert validate_trace(text) > 0
        err = capsys.readouterr().err
        assert "perfetto" in err.lower()

    def test_timeline_command_stdout_ticks(self, traced_share, capsys):
        assert main(["timeline", traced_share, "--timebase", "ticks",
                     "--slots", "2"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["otherData"]["timebase"] == "ticks"

    def test_dashboard_once(self, traced_share, capsys):
        assert main(["dashboard", traced_share, "--once"]) == 0
        out = capsys.readouterr().out
        assert "alerts" in out
        assert "experiments" in out

    def test_dashboard_once_journals_alerts(self, tmp_path, capsys):
        share = str(tmp_path)
        write_heartbeat(share, "w0", 0,
                        clock=lambda: time.time() - 500.0)
        assert main(["dashboard", share, "--once"]) == 0
        assert read_alerts(share)
        capsys.readouterr()

    def test_dashboard_rehomes_screen(self, traced_share, capsys,
                                      monkeypatch):
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) == 2:
                raise KeyboardInterrupt  # Ctrl-C after two frames

        monkeypatch.setattr(time, "sleep", sleep)
        assert main(["dashboard", traced_share, "--no-alerts",
                     "--interval", "0.01"]) == 0
        out = capsys.readouterr().out
        # Each refresh repaints one screen instead of scroll-stacking.
        assert out.count("\x1b[H\x1b[2J") == 2
        assert out.count("experiments :") == 2
        assert sleeps == [0.01, 0.01]


class TestRootParent:
    def test_root_parent_rehomes_root_without_changing_ids(self):
        context = TraceContext(5)
        plain = Tracer(context)
        unrooted = plain.finish(plain.start("campaign"))
        rooted_tracer = Tracer(context, root_parent="feedface00000000")
        rooted = rooted_tracer.finish(rooted_tracer.start("campaign"))
        # Same path, same id — only the root's parent changes, so
        # worker id arithmetic is untouched.
        assert rooted.path == unrooted.path == "/campaign"
        assert rooted.span_id == unrooted.span_id
        assert unrooted.parent_id is None
        assert rooted.parent_id == "feedface00000000"

    def test_children_still_parent_to_their_own_root(self):
        tracer = Tracer(TraceContext(5), root_parent="feedface00000000")
        root = tracer.start("campaign")
        child = tracer.finish(tracer.start("exp_0000"))
        tracer.finish(root)
        assert child.parent_id == root.span_id

    def test_base_path_wins_over_root_parent(self):
        """A worker tracer anchored under /campaign keeps its computed
        parent; root_parent only applies to true roots."""
        context = TraceContext(5)
        tracer = Tracer(context, base_path=CAMPAIGN_PATH,
                        root_parent="feedface00000000")
        span = tracer.finish(tracer.start("exp_0000"))
        assert span.parent_id == context.span_id(CAMPAIGN_PATH)


class TestSpanTree:
    def test_render_is_deterministic(self, traced_share):
        from repro.telemetry import render_span_tree
        assert render_span_tree(traced_share) \
            == render_span_tree(traced_share)

    def test_phases_nest_under_their_experiment(self, traced_share):
        from repro.telemetry import render_span_tree
        lines = render_span_tree(traced_share).splitlines()
        exp_depths = [line for line in lines
                      if line.lstrip().startswith("exp_")]
        assert exp_depths
        # Orphaned experiment spans (no coordinator span on this
        # share) render as roots; their phase children indent one
        # level deeper.
        assert any(line.startswith("exp_") for line in exp_depths)
        index = next(i for i, line in enumerate(lines)
                     if line.startswith("exp_"))
        assert lines[index + 1].startswith("  ")

    def test_empty_share_renders_empty(self, tmp_path):
        from repro.telemetry import render_span_tree
        assert render_span_tree(str(tmp_path)) == ""


class TestZeroOverheadServicePlane:
    """PR 7's observability must cost nothing when it is off: plain
    campaign shares carry no request context, and the status/dashboard
    render paths stay byte-identical run over run."""

    def test_untraced_workload_has_no_request_context(self, tmp_path,
                                                      runner):
        share = str(tmp_path)
        campaign = SharedDirCampaign(share, "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=9)
        campaign.publish(runner, generator.batch(1), seed=9)
        workload = json.loads((tmp_path / "workload.json").read_text())
        assert "request" not in workload
        assert "trace" not in workload
        assert "request" not in campaign.published()

    def test_traced_publish_without_request_stays_unrooted(
            self, tmp_path, runner):
        share = str(tmp_path)
        campaign = SharedDirCampaign(share, "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=9)
        campaign.publish(runner, generator.batch(1), seed=9,
                         trace=True)
        workload = json.loads((tmp_path / "workload.json").read_text())
        assert workload["trace"] is True
        assert "request" not in workload

    def test_status_and_dashboard_render_byte_identically(
            self, tmp_path, runner):
        share = str(tmp_path)
        campaign = SharedDirCampaign(share, "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=9)
        campaign.publish(runner, generator.batch(2), seed=9)
        campaign.worker_loop("w0", runner)
        clock = lambda: 10_000.0  # noqa: E731 - frozen render clock
        first = render_status(read_status(share, clock=clock))
        second = render_status(read_status(share, clock=clock))
        assert first == second
        dash_a = render_dashboard(share, clock=clock)
        dash_b = render_dashboard(share, clock=clock)
        assert dash_a[0] == dash_b[0]
        # Rendering is read-only: no spans/, no logs/, nothing new.
        assert sorted(os.listdir(share)) == [
            "claims", "golden.pkl",
            "heartbeats", "manifests", "results", "todo",
            "workload.json"]


class TestOutcomeDriftWilson:
    """The outcome-drift rule compares Wilson score intervals; it looks
    only once both sides carry enough samples for them."""

    @staticmethod
    def _snap(outcomes):
        from repro.telemetry.campaign import CampaignStatus
        from repro.telemetry.watchdog import ShareSnapshot
        return ShareSnapshot(now=1000.0, status=CampaignStatus(),
                             outcome_sequence=list(outcomes))

    def test_overlapping_intervals_suppress_raw_threshold_drift(self):
        # 12/30 sdc baseline vs 14/20 recent: a raw drift of 30%, but
        # the 95% intervals overlap ([25%,58%] vs [48%,85%]) — not
        # statistically significant.
        from repro.telemetry.watchdog import rule_outcome_drift
        sequence = (["sdc"] * 12 + ["masked"] * 18 +
                    ["sdc"] * 14 + ["masked"] * 6)
        assert rule_outcome_drift(self._snap(sequence)) == []

    def test_disjoint_intervals_fire_and_cite_wilson(self):
        from repro.telemetry.watchdog import rule_outcome_drift
        sequence = ["masked"] * 30 + ["sdc"] * 20
        alerts = rule_outcome_drift(self._snap(sequence))
        assert {a.experiment for a in alerts} == {"masked", "sdc"}
        assert all("Wilson" in a.message and "disjoint" in a.message
                   for a in alerts)
