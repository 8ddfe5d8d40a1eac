"""The simulator self-profiler (repro.telemetry.profiler).

Covers the three pillars of the observability issue:

* scoped-timer **attribution**: self-time accounting, >= 90% bucket
  coverage of wall time on every CPU model, folded flame-graph output,
  re-wrapping across mid-run CPU model switches;
* the **zero-overhead-when-disabled guarantee**, asserted structurally:
  an uninstalled profiler leaves every class method byte-identical and
  unprofiled golden stats dumps byte-identical (Section IV.A);
* **campaign roll-ups**: boot/window/injection/drain phase attribution
  of per-experiment wall time, host-time columns in ``gemfi status`` /
  ``gemfi report``, campaign KIPS, and the BENCH regression gate.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.campaign.runner import _experiment_phases
from repro.core import FaultInjector
from repro.cpu.base import Core
from repro.isa.instructions import DecodeCache
from repro.sim import SimConfig, Simulator
from repro.telemetry import (
    Profiler,
    SamplingProfiler,
    read_status,
    render_status,
    sim_rates,
)
from repro.telemetry.campaign import percentile, simulated_instructions
from repro.telemetry.report import CampaignReport, add_result, load_share, \
    render_report

from conftest import MIXED_PROGRAM, run_asm
from repro.compiler import compile_source

MODELS = ("atomic", "timing", "inorder", "o3")


class FakeClock:
    """Deterministic clock: each read returns the next scripted time."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


class TestSelfTimeAccounting:
    def test_nested_scopes_partition_elapsed(self):
        # outer: 0 -> 10, inner: 2 -> 5  =>  outer self 7, inner self 3.
        profiler = Profiler(clock=FakeClock(0.0, 2.0, 5.0, 10.0))
        outer = profiler._enter("outer")
        inner = profiler._enter("inner")
        profiler._exit(inner)
        profiler._exit(outer)
        assert profiler.buckets["outer"] == pytest.approx(7.0)
        assert profiler.buckets["inner"] == pytest.approx(3.0)
        assert profiler.total_seconds == pytest.approx(10.0)
        assert profiler.coverage() == pytest.approx(1.0)
        assert profiler.calls == {"outer": 1, "inner": 1}

    def test_scope_context_manager_and_paths(self):
        profiler = Profiler(clock=FakeClock(0.0, 1.0, 3.0, 4.0))
        with profiler.scope("a"):
            with profiler.scope("b"):
                pass
        assert profiler.paths[("a",)] == pytest.approx(2.0)
        assert profiler.paths[("a", "b")] == pytest.approx(2.0)
        folded = profiler.folded()
        assert "a 2000000\n" in folded
        assert "a;b 2000000\n" in folded

    def test_render_table_sorts_by_self_time(self):
        profiler = Profiler(clock=FakeClock(0.0, 2.0, 5.0, 10.0))
        outer = profiler._enter("outer")
        inner = profiler._enter("inner")
        profiler._exit(inner)
        profiler._exit(outer)
        table = profiler.render_table()
        lines = table.splitlines()
        assert lines[1].startswith("outer")
        assert lines[2].startswith("inner")
        assert lines[-1].startswith("attributed")
        assert "100.0%" in lines[-1]

    def test_sim_rates(self):
        rates = sim_rates(2000, 4000, 2.0)
        assert rates["kips"] == pytest.approx(1.0)
        assert rates["ticks_per_second"] == pytest.approx(2000.0)
        assert rates["host_seconds_per_instruction"] == \
            pytest.approx(0.001)
        assert sim_rates(10, 10, 0.0)["kips"] == 0.0


class TestInstalledProfiler:
    @pytest.mark.parametrize("model", MODELS)
    def test_coverage_at_least_90_percent(self, mixed_asm, model):
        sim = Simulator(SimConfig(cpu_model=model),
                        injector=FaultInjector())
        sim.load(mixed_asm, "test")
        profiler = Profiler().install(sim)
        result = sim.run(max_instructions=200_000)
        assert result.status == "completed"
        assert profiler.wall_seconds > 0
        # Acceptance bar: buckets sum to >= 90% of measured wall time.
        assert profiler.coverage() >= 0.90
        assert profiler.buckets["cpu.step"] > 0
        assert profiler.buckets["cpu.execute"] > 0
        profiler.uninstall()

    def test_o3_has_per_stage_buckets(self, mixed_asm):
        sim = Simulator(SimConfig(cpu_model="o3"),
                        injector=FaultInjector())
        sim.load(mixed_asm, "test")
        profiler = Profiler().install(sim)
        sim.run(max_instructions=200_000)
        for bucket in ("cpu.rename", "cpu.issue", "cpu.commit",
                       "cpu.fetch", "cpu.decode", "mem.l1i"):
            assert profiler.buckets.get(bucket, 0) > 0, bucket
        profiler.uninstall()

    def test_atomic_has_no_o3_stages(self, mixed_asm):
        sim = Simulator(SimConfig(), injector=FaultInjector())
        sim.load(mixed_asm, "test")
        profiler = Profiler().install(sim)
        sim.run(max_instructions=200_000)
        assert "cpu.rename" not in profiler.buckets
        assert "cpu.issue" not in profiler.buckets
        profiler.uninstall()

    def test_injector_hooks_attributed(self, mixed_asm):
        sim = Simulator(SimConfig(), injector=FaultInjector())
        sim.load(mixed_asm, "test")
        profiler = Profiler().install(sim)
        sim.run(max_instructions=200_000)
        assert profiler.calls.get("kernel.syscall", 0) > 0
        profiler.uninstall()

    def test_model_switch_rewraps_new_cpu(self, mixed_asm):
        sim = Simulator(SimConfig(cpu_model="o3"),
                        injector=FaultInjector())
        sim.load(mixed_asm, "test")
        profiler = Profiler().install(sim)
        sim.run(max_instructions=1_000)
        sim.switch_model("atomic")
        assert profiler.calls.get("cpu.switch") == 1
        # The freshly-built atomic model carries a timed step wrapper.
        assert sim.cpu.model_name == "atomic"
        assert getattr(sim.cpu.__dict__.get("step"), "__profiled__",
                       None) == "cpu.step"
        profiler.uninstall()
        assert "step" not in sim.cpu.__dict__

    def test_double_install_rejected(self, mixed_asm):
        sim = Simulator(SimConfig(), injector=FaultInjector())
        sim.load(mixed_asm, "test")
        profiler = Profiler().install(sim)
        with pytest.raises(RuntimeError):
            profiler.install(sim)
        profiler.uninstall()


class TestZeroOverheadWhenDisabled:
    def test_uninstall_restores_class_methods(self, mixed_asm):
        sim = Simulator(SimConfig(cpu_model="o3"),
                        injector=FaultInjector())
        sim.load(mixed_asm, "test")
        profiler = Profiler().install(sim)
        assert isinstance(sim.core.__dict__.get("serve_instruction"),
                          object)
        sim.run(max_instructions=10_000)
        profiler.uninstall()
        # Nothing profiler-related survives on any instance: the bound
        # methods resolve to the original class attributes again.
        for obj, attr in (
                (sim.core, "serve_instruction"), (sim.core, "execute"),
                (sim.cpu, "step"), (sim.memory, "fetch"),
                (sim.hierarchy, "read"), (sim.system, "syscall"),
                (sim, "run"), (sim, "switch_model")):
            assert attr not in obj.__dict__, (obj, attr)
        assert getattr(sim.core.serve_instruction, "__func__") is \
            Core.serve_instruction
        assert isinstance(sim.core.decode_cache, DecodeCache)
        assert sim.profiler is None

    def test_unprofiled_run_identical_console_and_stats(self, mixed_asm):
        """A profiled run must not change simulation results, and an
        unprofiled run must dump byte-identically whether or not the
        profiler code exists in the process (Section IV.A)."""
        sim_a, _ = run_asm(mixed_asm)
        sim_b, _ = run_asm(mixed_asm)
        assert sim_a.stats_dump() == sim_b.stats_dump()
        assert "host." not in sim_a.stats_dump()

        sim_c = Simulator(SimConfig(), injector=FaultInjector())
        sim_c.load(mixed_asm, "test")
        profiler = Profiler().install(sim_c)
        sim_c.run(max_instructions=2_000_000)
        assert sim_c.console_text() == sim_a.console_text()
        profiled_dump = sim_c.stats_dump()
        assert any(line.startswith("host.kips")
                   for line in profiled_dump.splitlines())
        assert any(line.startswith("host.profile.cpu.step")
                   for line in profiled_dump.splitlines())
        # Architectural counters are unaffected by profiling.
        stripped = [line for line in profiled_dump.splitlines()
                    if not line.startswith("host.")]
        assert stripped == sim_a.stats_dump().splitlines()
        profiler.uninstall()


class TestSamplingProfiler:
    def test_samples_classify_repro_frames(self):
        sampler = SamplingProfiler(hz=50)
        frame = sys._getframe()
        sampler.sample(frame)
        sampler.sample(frame)
        assert sampler.samples == 2
        attribution = sampler.attribution()
        assert attribution
        assert sum(attribution.values()) == pytest.approx(1.0)
        folded = sampler.folded()
        assert folded.endswith(" 2\n")
        assert "test_profiler" in folded

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)

    def test_timer_round_trip_on_main_thread(self):
        sampler = SamplingProfiler(hz=1000)
        try:
            sampler.start()
        except ValueError:  # pragma: no cover - non-main-thread runner
            pytest.skip("no SIGPROF on this thread")
        deadline = 200_000
        total = 0.0
        for i in range(deadline):
            total += i * 0.5
        sampler.stop()
        assert total > 0
        # A busy loop at 1 kHz for ~10ms of CPU should collect *some*
        # samples on any host; zero just means a very fast machine, so
        # only the bookkeeping is asserted, not a minimum count.
        assert sampler.samples == sum(sampler.stacks.values())


class TestCampaignPhases:
    def test_phases_without_injection(self):
        phases = _experiment_phases(10.0, 10.5, 14.0,
                                    FaultInjector())
        assert phases["boot"] == pytest.approx(0.5)
        assert phases["window"] == pytest.approx(3.5)
        assert phases["injection"] == 0.0
        assert phases["drain"] == 0.0

    def test_phases_with_injection_sum_to_wall(self):
        injector = FaultInjector()
        injector.first_injection_host = 11.0
        injector.last_injection_host = 12.0
        phases = _experiment_phases(10.0, 10.5, 14.0, injector)
        assert phases["boot"] == pytest.approx(0.5)
        assert phases["window"] == pytest.approx(0.5)
        assert phases["injection"] == pytest.approx(1.0)
        assert phases["drain"] == pytest.approx(2.0)
        assert sum(phases.values()) == pytest.approx(4.0)

    def test_injector_stamps_and_reset(self):
        faults = ("RegisterInjectedFault Inst:5 Flip:2 Threadid:0 "
                  "system.cpu0 occ:1 int 3")
        sim, _ = run_asm(compile_source(MIXED_PROGRAM),
                         faults_text=faults,
                         max_instructions=200_000)
        injector = sim.injector
        if injector.records:
            assert injector.first_injection_host is not None
            assert injector.last_injection_host is not None
            assert injector.last_injection_host >= \
                injector.first_injection_host
        injector.reset()
        assert injector.first_injection_host is None
        assert injector.last_injection_host is None


class TestHostTimeRollups:
    def _share(self, tmp_path, walls=(0.5, 1.5, 1.0)):
        os.makedirs(tmp_path / "results")
        for index, wall in enumerate(walls):
            (tmp_path / "results" / f"exp_{index:04d}.json").write_text(
                json.dumps({
                    "outcome": "correct", "injected": True,
                    "wall_seconds": wall, "instructions": 10_000,
                    "phases": {"boot": 0.1, "window": 0.2,
                               "injection": 0.0,
                               "drain": wall - 0.3}}))
        return tmp_path

    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) is None
        assert percentile([3.0], 0.9) == 3.0
        values = [float(v) for v in range(1, 11)]
        assert percentile(values, 0.5) == 5.0
        assert percentile(values, 0.9) == 9.0

    def test_status_wall_rollup(self, tmp_path):
        self._share(tmp_path)
        status = read_status(str(tmp_path), clock=lambda: 0.0)
        assert status.completed == 3
        assert status.wall_total == pytest.approx(3.0)
        assert status.wall_mean == pytest.approx(1.0)
        assert status.wall_p50 == pytest.approx(1.0)
        assert status.wall_p90 == pytest.approx(1.5)
        assert status.slowest[0] == ("exp_0001", 1.5)
        # 30k instructions over 3 host-seconds = 10 KIPS.
        assert status.kips == pytest.approx(10.0)
        as_dict = status.as_dict()
        assert as_dict["wall_p90"] == pytest.approx(1.5)
        assert as_dict["kips"] == pytest.approx(10.0)

    def test_render_status_host_lines(self, tmp_path):
        self._share(tmp_path)
        text = render_status(read_status(str(tmp_path),
                                         clock=lambda: 0.0))
        assert "host time   :" in text
        assert "p90=1.500s" in text
        assert "sim rate    : 10.0 KIPS" in text
        assert "exp_0001=1.500s" in text

    def _ladder_share(self, tmp_path) -> list[dict]:
        """The host share with checkpoint-ladder fields: one run from
        boot, one resumed at 4k that exits early at 6k, one resumed at
        2k that runs to the end.  Returns the result records."""
        self._share(tmp_path)
        ladder = [(0, None), (4_000, 6_000), (2_000, None)]
        results = []
        for index, (start, exit_at) in enumerate(ladder):
            path = tmp_path / "results" / f"exp_{index:04d}.json"
            entry = json.loads(path.read_text())
            entry.update(replay_start=start, early_exit=exit_at)
            path.write_text(json.dumps(entry))
            results.append(entry)
        return results

    def test_status_and_report_roll_up_the_ladder(self, tmp_path):
        self._ladder_share(tmp_path)
        status = read_status(str(tmp_path), clock=lambda: 0.0)
        # skipped: 0 + (4000 + 10000 - 6000) + 2000
        assert (status.ladder_started, status.instructions_skipped,
                status.early_exits) == (2, 10_000, 1)
        assert status.as_dict()["early_exits"] == 1
        assert ("ladder      : 67% started past the boot checkpoint, "
                "3333 instructions skipped per experiment, 1 early "
                "exits") in render_status(status)
        text = render_report(load_share(str(tmp_path)))
        assert "| started past boot checkpoint | 66.7% |" in text
        assert "| instructions skipped (mean) | 3333 |" in text
        assert "| early exits | 1 |" in text

    def test_simulated_instructions_drop_what_the_ladder_skipped(self):
        # 4k replayed by the rung it resumed from, 4k after the exit.
        assert simulated_instructions(
            {"instructions": 10_000, "replay_start": 4_000,
             "early_exit": 6_000}) == 2_000
        assert simulated_instructions(
            {"instructions": 10_000, "replay_start": 2_000,
             "early_exit": None}) == 8_000
        assert simulated_instructions({"instructions": 10_000}) \
            == 10_000
        assert simulated_instructions({"outcome": "sdc"}) == 0

    def test_every_kips_rollup_counts_simulated_instructions(
            self, tmp_path):
        from repro.analysis.diff import CampaignSummary
        from repro.service import Dispatcher, JobQueue
        from repro.service.jobs import JobSpec
        results = self._ladder_share(tmp_path)
        # 10k + 2k + 8k simulated (not 30k) over 3 host-seconds.
        kips = 20_000 / 3.0 / 1e3
        status = read_status(str(tmp_path), clock=lambda: 0.0)
        assert status.kips == pytest.approx(kips)
        assert "sim rate    : 6.7 KIPS" in render_status(status)
        assert "| campaign KIPS | 6.7 |" in render_report(
            load_share(str(tmp_path)))
        host = CampaignSummary.from_share(str(tmp_path)).payload["host"]
        assert host["instructions"] == 20_000
        assert host["kips"] == pytest.approx(kips, rel=1e-6)
        queue = JobQueue(str(tmp_path / "queue.db"))
        job = queue.submit(JobSpec.from_dict({"workload": "pi"}),
                           tenant="t")
        Dispatcher(queue, str(tmp_path))._record_usage(job, results)
        usage = queue.usage()["t"]
        assert usage["instructions"] == 20_000
        assert usage["instructions"] / usage["wall_seconds"] / 1e3 \
            == pytest.approx(kips)

    def test_report_host_section(self):
        report = CampaignReport(name="camp")
        for index, wall in enumerate((0.5, 1.5, 1.0)):
            add_result(report, {
                "outcome": "correct", "wall_seconds": wall,
                "instructions": 10_000, "time_fraction": 0.5,
                "phases": {"boot": 0.1, "window": 0.2,
                           "injection": 0.0, "drain": wall - 0.3},
            }, name=f"exp_{index:04d}")
        text = render_report(report)
        assert "## Host time" in text
        assert "### Slowest experiments" in text
        assert "exp_0001" in text
        assert "### Wall time by campaign phase" in text
        assert "| boot |" in text
        # Deterministic render: same aggregates, same bytes.
        assert text == render_report(report)

    def test_report_without_wall_data_unchanged(self):
        report = CampaignReport(name="camp")
        add_result(report, {"outcome": "sdc", "time_fraction": 0.1})
        assert "## Host time" not in render_report(report)


class TestBenchGate:
    def _bench(self, kips_by_case):
        return {"schema": "gemfi-bench-v1", "bench": "perf",
                "scale": "tiny", "repeats": 3,
                "cases": {key: {"kips_mean": value, "kips_stdev": 1.0}
                          for key, value in kips_by_case.items()},
                "summary": {}}

    @pytest.fixture()
    def check(self):
        sys.path.insert(0, os.path.join(os.path.dirname(__file__),
                                        os.pardir, "benchmarks",
                                        "perf"))
        try:
            from check_regression import check
            yield check
        finally:
            sys.path.pop(0)

    def test_gate_passes_within_tolerance(self, check):
        _, regressions = check(self._bench({"pi/atomic": 100.0}),
                               self._bench({"pi/atomic": 80.0}),
                               tolerance=0.25)
        assert regressions == []

    def test_gate_fails_beyond_tolerance(self, check):
        _, regressions = check(self._bench({"pi/atomic": 100.0}),
                               self._bench({"pi/atomic": 70.0}),
                               tolerance=0.25)
        assert len(regressions) == 1
        assert "pi/atomic" in regressions[0]

    def test_gate_ignores_one_sided_cases(self, check):
        lines, regressions = check(
            self._bench({"pi/atomic": 100.0, "pi/o3": 50.0}),
            self._bench({"pi/atomic": 100.0}), tolerance=0.25)
        assert regressions == []
        assert any("only in baseline" in line for line in lines)

    def test_gate_fails_with_no_shared_cases(self, check):
        _, regressions = check(self._bench({"a/b": 1.0}),
                               self._bench({"c/d": 1.0}),
                               tolerance=0.25)
        assert regressions


class TestProfileCli:
    def test_profile_json(self, tmp_path, capsys):
        from repro.cli import main
        program = tmp_path / "app.mc"
        program.write_text(MIXED_PROGRAM)
        folded_path = tmp_path / "out.folded"
        code = main(["run", str(program), "--json",
                     "--folded", str(folded_path),
                     "--max-instructions", "50000"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coverage"] >= 0.90
        assert payload["kips"] > 0
        assert payload["attribution"]["cpu.step"] > 0
        folded = folded_path.read_text()
        assert folded.startswith("loop")

    def test_profile_table_for_workload(self, capsys):
        from repro.cli import main
        code = main(["run", "pi", "--cpu", "o3", "--profile",
                     "--max-instructions", "5000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "host-time attribution" in out
        assert "cpu.rename" in out
        assert "attributed" in out
