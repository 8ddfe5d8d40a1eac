"""Campaign tests: sampling, generation, running, classification."""

import math

import pytest

from repro.campaign import (
    CampaignRunner,
    LOCATION_WIDTHS,
    Outcome,
    SEUGenerator,
    VddScaledGenerator,
    by_fetch_field,
    by_location,
    by_time_bins,
    mean_confidence_interval,
    proportion_confidence_interval,
    render_location_table,
    render_time_table,
    sample_size,
    summary,
)
from repro.core import LocationKind, parse_fault_line
from repro.workloads import build


@pytest.fixture(scope="module")
def pi_runner():
    return CampaignRunner(build("pi", "tiny"))


@pytest.fixture(scope="module")
def profile(pi_runner):
    return pi_runner.golden.profile


class TestSampling:
    def test_infinite_population_99_1(self):
        # t=2.576, e=0.01, p=0.5 -> 16588 samples.
        n = sample_size(math.inf, confidence=0.99, error_margin=0.01)
        assert 16580 <= n <= 16600

    def test_finite_population_shrinks_n(self):
        n_inf = sample_size(math.inf, 0.99, 0.01)
        n_fin = sample_size(100_000, 0.99, 0.01)
        assert n_fin < n_inf

    def test_never_exceeds_population(self):
        assert sample_size(100, 0.99, 0.01) <= 100

    def test_paper_regime(self):
        # 2501-2504 experiments correspond to ~2.6% margin at 99%.
        n = sample_size(math.inf, confidence=0.99, error_margin=0.0258)
        assert 2400 <= n <= 2600

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sample_size(0)
        with pytest.raises(ValueError):
            sample_size(100, error_margin=0)
        with pytest.raises(ValueError):
            sample_size(100, p=1.5)

    def test_wilson_interval_contains_estimate(self):
        low, high = proportion_confidence_interval(30, 100)
        assert low < 0.30 < high
        assert 0.0 <= low and high <= 1.0

    def test_wilson_degenerate_cases(self):
        assert proportion_confidence_interval(0, 0) == (0.0, 1.0)
        low, high = proportion_confidence_interval(0, 50)
        assert low < 1e-12 and high < 0.15

    def test_mean_ci(self):
        mean, low, high = mean_confidence_interval([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert low < 2.0 < high


class TestGenerator:
    def test_seeded_generator_is_deterministic(self, profile):
        a = SEUGenerator(profile, seed=7).batch(20)
        b = SEUGenerator(profile, seed=7).batch(20)
        assert [f.describe() for f in a] == [f.describe() for f in b]

    def test_generated_faults_are_single_bit_flips(self, profile):
        for fault in SEUGenerator(profile, seed=1).batch(50):
            assert len(fault.behavior.bits) == 1
            assert fault.behavior.occ == 1
            bit = fault.behavior.bits[0]
            assert 0 <= bit < LOCATION_WIDTHS[fault.location]

    def test_times_within_window(self, profile):
        generator = SEUGenerator(profile, seed=2)
        for fault in generator.batch(100):
            assert 1 <= fault.time <= profile.count_for(fault.location)

    def test_pinned_location(self, profile):
        faults = SEUGenerator(profile, seed=3).batch(
            10, location=LocationKind.PC)
        assert all(f.location is LocationKind.PC for f in faults)

    def test_fault_space_size_positive(self, profile):
        assert SEUGenerator(profile, seed=0).fault_space_size() > 10_000

    def test_vdd_scaling_monotone(self, profile):
        low_v = VddScaledGenerator(profile, seed=0, vdd=0.7)
        high_v = VddScaledGenerator(profile, seed=0, vdd=1.0)
        assert low_v.expected_upsets > high_v.expected_upsets

    def test_vdd_nominal_rarely_faults(self, profile):
        generator = VddScaledGenerator(profile, seed=5, vdd=1.0,
                                       base_rate=0.05)
        counts = [len(generator.faults_for_run()) for _ in range(50)]
        assert sum(counts) < 15   # lambda=0.05 -> ~2.5 total expected

    def test_vdd_low_faults_often(self, profile):
        generator = VddScaledGenerator(profile, seed=5, vdd=0.7,
                                       base_rate=0.05, alpha=12.0)
        counts = [len(generator.faults_for_run()) for _ in range(20)]
        assert sum(counts) > 10


class TestRunnerAndClassification:
    def test_golden_artifacts(self, pi_runner):
        golden = pi_runner.golden
        assert golden.checkpoint is not None
        assert golden.profile.committed > 1000
        assert golden.outputs.console.startswith("pi ")
        assert golden.boot_instructions < golden.instructions

    def test_never_firing_fault_is_non_propagated(self, pi_runner):
        fault = parse_fault_line(
            "ExecutionStageInjectedFault Inst:999999999 Flip:0 "
            "Threadid:0 system.cpu0 occ:1")
        result = pi_runner.run_experiment(fault)
        assert result.outcome is Outcome.NON_PROPAGATED
        assert not result.injected

    def test_pc_fault_crashes(self, pi_runner):
        fault = parse_fault_line(
            "PCInjectedFault Inst:100 Flip:40 Threadid:0 "
            "system.cpu0 occ:1")
        result = pi_runner.run_experiment(fault)
        assert result.outcome is Outcome.CRASHED
        assert result.crash_reason or result.instructions > 0

    def test_dead_register_strictly_masked(self, pi_runner):
        fault = parse_fault_line(
            "RegisterInjectedFault Inst:100 Flip:60 Threadid:0 "
            "system.cpu0 occ:1 fp 29")
        result = pi_runner.run_experiment(fault)
        assert result.outcome in (Outcome.NON_PROPAGATED,
                                  Outcome.STRICTLY_CORRECT)

    def test_experiment_records_metadata(self, pi_runner):
        fault = parse_fault_line(
            "ExecutionStageInjectedFault Inst:50 Flip:0 Threadid:0 "
            "system.cpu0 occ:1")
        result = pi_runner.run_experiment(fault)
        assert result.injected
        assert result.injection_pc is not None
        assert 0.0 <= result.time_fraction <= 1.0
        assert result.as_dict()["outcome"] == result.outcome.value

    def test_campaign_over_mixed_faults(self, pi_runner):
        generator = SEUGenerator(pi_runner.golden.profile, seed=11)
        results = pi_runner.run_campaign(generator.batch(12))
        assert len(results) == 12
        dist = summary(results)
        assert dist.total == 12
        assert abs(sum(dist.fraction(o) for o in
                       (Outcome.CRASHED, Outcome.NON_PROPAGATED,
                        Outcome.STRICTLY_CORRECT, Outcome.CORRECT,
                        Outcome.SDC)) - 1.0) < 1e-9

    def test_runner_given_a_golden_run_compiles_nothing(
            self, pi_runner, monkeypatch):
        """A runner handed the golden run, as a share worker loads it
        from golden.pkl, runs checkpointed experiments without
        compiling, to the compiling runner's records."""
        faults = SEUGenerator(pi_runner.golden.profile,
                              seed=5).batch(6)
        expected = [r.as_dict() for r in pi_runner.run_campaign(faults)]

        def refuse(source):
            raise AssertionError("the program was compiled")

        monkeypatch.setattr("repro.campaign.runner.compile_source",
                            refuse)
        runner = CampaignRunner(build("pi", "tiny"),
                                golden=pi_runner.golden)
        records = [r.as_dict() for r in runner.run_campaign(faults)]
        for record in expected + records:
            del record["wall_seconds"], record["phases"]
        assert records == expected

    def test_detailed_o3_mode_runs(self):
        runner = CampaignRunner(build("pi", "tiny"),
                                detailed_model="o3")
        fault = parse_fault_line(
            "ExecutionStageInjectedFault Inst:50 Flip:0 Threadid:0 "
            "system.cpu0 occ:1")
        result = runner.run_experiment(fault)
        assert result.outcome in tuple(Outcome)

    def test_without_checkpoint_same_outcome(self):
        runner_checkpointed = CampaignRunner(build("pi", "tiny"))
        runner_fresh = CampaignRunner(build("pi", "tiny"),
                                      use_checkpoint=False)
        fault = parse_fault_line(
            "ExecutionStageInjectedFault Inst:50 All1 Threadid:0 "
            "system.cpu0 occ:1")
        first = runner_checkpointed.run_experiment(fault)
        second = runner_fresh.run_experiment(fault)
        assert first.outcome == second.outcome


class TestResultTables:
    def _results(self, pi_runner, n=15):
        generator = SEUGenerator(pi_runner.golden.profile, seed=21)
        return pi_runner.run_campaign(generator.batch(n))

    def test_by_location_partitions_everything(self, pi_runner):
        results = self._results(pi_runner)
        groups = by_location(results)
        assert sum(d.total for d in groups.values()) == len(results)

    def test_by_time_bins_partitions_everything(self, pi_runner):
        results = self._results(pi_runner)
        bins = by_time_bins(results, bins=5)
        assert sum(d.total for d in bins) == len(results)
        assert len(bins) == 5

    def test_fetch_field_analysis_uses_original_word(self, pi_runner):
        generator = SEUGenerator(pi_runner.golden.profile, seed=31)
        faults = generator.batch(10, location=LocationKind.FETCH)
        results = pi_runner.run_campaign(faults)
        groups = by_fetch_field(results)
        known_fields = {"opcode", "ra", "rb", "rc", "function",
                        "displacement", "literal", "lit_flag", "unused",
                        "pal_function", "not_injected"}
        assert set(groups) <= known_fields
        assert sum(d.total for d in groups.values()) == len(results)

    def test_render_tables_are_text(self, pi_runner):
        results = self._results(pi_runner)
        table = render_location_table(results, title="T")
        assert table.startswith("T\n")
        assert "ALL" in table
        table = render_time_table(results, bins=4)
        assert "t in [0.00,0.25)" in table
        assert "crashed" in table
