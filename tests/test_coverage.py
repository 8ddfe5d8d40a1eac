"""Fault-space coverage analytics tests (repro.analysis.coverage).

The acceptance invariants the module guarantees:

* accounted experiments always sum to the campaign's experiment count;
* covered-site counts never exceed the enumerated space size;
* the JSON payload is byte-deterministic for the same inputs;
* the enumerated space agrees exactly with
  ``SEUGenerator.fault_space_size()`` — on every CPU model.
"""

import json
import pickle
import types

import pytest

from repro.analysis.coverage import (
    ConvergenceTracker,
    FaultSpaceMap,
    coverage_from_share,
    coverage_report_tables,
    coverage_summary,
    heatmap_table,
    render_coverage_svg,
)
from repro.analysis.liveness import SiteVerdict
from repro.campaign import CampaignRunner, GoldenRun
from repro.campaign.generator import (
    DEFAULT_LOCATIONS,
    SEUGenerator,
    WindowProfile,
)
from repro.core import LocationKind
from repro.telemetry import render_markdown, render_text
from repro.workloads import build

PROFILE = WindowProfile(committed=100, ticks=5000)

OUTCOMES = ("sdc", "crashed", "correct", "non_propagated")


def synthetic_results(count=40, seed=7, committed=100,
                      predicted=False):
    """Deterministic share-style result dicts from a real generator;
    with *predicted*, every fifth one is a predicted record."""
    generator = SEUGenerator(WindowProfile(committed=committed,
                                           ticks=committed * 50),
                             seed=seed)
    results = []
    for index in range(count):
        fault = generator.generate()
        results.append({
            "fault_file": fault.describe(),
            "outcome": OUTCOMES[index % len(OUTCOMES)],
            "predicted": predicted and index % 5 == 0,
            "time_fraction": fault.time / committed,
            "injection_pc": 0x1000 + (index % 11) * 4,
        })
    return results


def populate(space, results):
    for entry in results:
        space.account(entry)
    return space


class TestSpaceEnumeration:
    def test_total_matches_generator(self):
        space = FaultSpaceMap(window=PROFILE)
        generator = SEUGenerator(PROFILE, seed=0)
        assert space.total_space_size() == generator.fault_space_size()

    def test_per_location_sums_to_total(self):
        space = FaultSpaceMap(window=PROFILE)
        per_location = space.space_per_location()
        assert len(per_location) == len(DEFAULT_LOCATIONS)
        assert sum(per_location.values()) == space.total_space_size()

    def test_bare_int_window(self):
        assert FaultSpaceMap(window=100).total_space_size() == \
            FaultSpaceMap(window=PROFILE).total_space_size()

    def test_unknown_window(self):
        space = FaultSpaceMap(window=None)
        assert space.total_space_size() is None
        assert space.space_per_location() is None
        # Accounting still works; covered counts are absolute.
        populate(space, synthetic_results(10))
        assert space.covered_sites() == 10
        payload = space.as_dict()
        assert payload["space"]["total"] is None
        assert payload["space"]["covered_fraction"] is None

    @pytest.mark.parametrize("cpu", ("atomic", "timing", "inorder",
                                     "o3"))
    def test_agreement_across_cpu_models(self, cpu):
        # The map must enumerate exactly the population the generator
        # samples, for the FI window each CPU model actually produces.
        from repro.campaign import CampaignRunner
        from repro.sim import SimConfig
        from repro.workloads import build
        runner = CampaignRunner(build("pi", "tiny"),
                                SimConfig(cpu_model=cpu))
        profile = runner.golden.profile
        space = FaultSpaceMap(window=profile)
        generator = SEUGenerator(profile, seed=0)
        assert space.total_space_size() == generator.fault_space_size()


class TestAccounting:
    def test_accounted_sums_to_experiment_count(self):
        results = synthetic_results(40, predicted=True)
        space = populate(FaultSpaceMap(window=PROFILE), results)
        assert space.accounted == len(results)
        assert space.executed + space.predicted == len(results)
        payload = space.as_dict()
        assert payload["accounted"]["experiments"] == len(results)
        assert payload["convergence"]["experiments"] == len(results)

    def test_covered_never_exceeds_space(self):
        space = populate(FaultSpaceMap(window=PROFILE),
                         synthetic_results(200))
        total = space.total_space_size()
        assert space.covered_sites() <= total
        payload = space.as_dict()
        assert payload["space"]["covered_sites"] <= total
        for row in payload["space"]["per_location"].values():
            assert row["covered"] <= row["size"]

    def test_repeat_site_not_double_counted(self):
        results = synthetic_results(1) * 5
        space = populate(FaultSpaceMap(window=PROFILE), results)
        assert space.accounted == 5
        assert space.covered_sites() == 1

    def test_unparseable_fault_still_counted(self):
        space = FaultSpaceMap(window=PROFILE)
        assert space.account({"outcome": "sdc",
                              "fault_file": "not a fault"}) is False
        assert space.accounted == 1
        assert space.covered_sites() == 0
        assert space.as_dict()["accounted"]["experiments"] == 1

    def test_register_dimension_only_for_regfiles(self):
        results = synthetic_results(120)
        space = populate(FaultSpaceMap(window=PROFILE), results)
        labels = [label for label, _ in space.heatmap("register")]
        assert labels  # regfile faults exist in 120 draws
        assert all(label.startswith("r") for label in labels)

    def test_experiment_result_objects_accepted(self):
        from repro.campaign.runner import ExperimentResult
        fault = SEUGenerator(PROFILE, seed=11).generate()
        result = ExperimentResult(
            fault=fault, outcome="sdc", injected=True, propagated=True,
            crash_reason=None, instructions=100, ticks=500,
            wall_seconds=0.1, console="",
            time_fraction=fault.time / PROFILE.committed)
        space = FaultSpaceMap(window=PROFILE)
        assert space.account(result) is True
        assert space.covered_sites() == 1


class TestConvergence:
    def test_empty_tracker(self):
        tracker = ConvergenceTracker()
        assert tracker.max_half_width() == 1.0
        assert tracker.margin_reached_at is None
        assert tracker.experiments == 0

    def test_half_width_shrinks_and_margin_latches(self):
        tracker = ConvergenceTracker(confidence=0.95, margin=0.2)
        widths = []
        for _ in range(120):
            tracker.add("sdc")
            widths.append(tracker.max_half_width())
        assert widths[-1] < widths[0]
        assert tracker.margin_reached_at is not None
        # The latch keeps the first crossing even as n grows.
        first = tracker.margin_reached_at
        tracker.add("sdc")
        assert tracker.margin_reached_at == first

    def test_history_downsampled(self):
        tracker = ConvergenceTracker()
        for _ in range(500):
            tracker.add("sdc")
        payload = tracker.as_dict(history_points=32)
        assert len(payload["history"]) == 32
        assert payload["history"][-1][0] == 500

    def test_rates_sum_to_one(self):
        tracker = ConvergenceTracker()
        for outcome in ("sdc", "sdc", "crashed", "correct"):
            tracker.add(outcome)
        rates = tracker.as_dict()["rates"]
        assert sum(row["rate"] for row in rates.values()) == \
            pytest.approx(1.0)
        for row in rates.values():
            assert row["ci_low"] <= row["rate"] <= row["ci_high"]


class TestDeterminism:
    def test_payload_byte_identical(self):
        results = synthetic_results(60, predicted=True)
        a = populate(FaultSpaceMap(window=PROFILE), results).as_dict()
        b = populate(FaultSpaceMap(window=PROFILE), results).as_dict()
        assert json.dumps(a, sort_keys=True) == \
            json.dumps(b, sort_keys=True)

    def test_renderers_deterministic(self):
        payload = populate(FaultSpaceMap(window=PROFILE),
                           synthetic_results(60)).as_dict()
        assert render_text(*coverage_report_tables(payload)) == \
            render_text(*coverage_report_tables(payload))
        for dimension in ("location", "bit", "time_decile",
                          "register", "pc_region"):
            assert render_coverage_svg(payload, dimension) == \
                render_coverage_svg(payload, dimension)


class TestRenderers:
    @pytest.fixture(scope="class")
    def payload(self):
        return populate(FaultSpaceMap(window=PROFILE),
                        synthetic_results(60, predicted=True)).as_dict()

    def test_tables_mention_every_dimension(self, payload):
        text = render_text(*coverage_report_tables(payload))
        for title in ("fault location", "bit position",
                      "injection-cycle decile",
                      "destination register", "PC region"):
            assert title in text

    def test_heatmap_table_has_wilson_cells(self, payload):
        text = render_text([], [heatmap_table(payload, "location")])
        assert "[" in text and "%" in text

    def test_markdown_has_sections(self, payload):
        prose, tables = coverage_report_tables(payload)
        text = render_markdown("Fault-space coverage: demo", prose,
                               [(None, [], tables)])
        assert text.startswith("# Fault-space coverage: demo")
        assert "Wilson intervals" in text
        assert "| location |" in text

    def test_svg_structure(self, payload):
        svg = render_coverage_svg(payload, "bit")
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>")
        assert "<title>" in svg          # CI tooltip hook
        assert "timestamp" not in svg

    def test_svg_empty_dimension(self):
        payload = FaultSpaceMap(window=PROFILE).as_dict()
        svg = render_coverage_svg(payload, "register")
        assert "no samples" in svg

    def test_summary_drops_bulk(self, payload):
        summary = coverage_summary(payload)
        assert "heatmaps" not in summary
        assert "history" not in summary["convergence"]
        assert summary["space"] == payload["space"]


def write_share(tmp_path, results, committed=None):
    (tmp_path / "results").mkdir(parents=True, exist_ok=True)
    for index, entry in enumerate(results):
        path = tmp_path / "results" / f"exp_{index:04d}.json"
        path.write_text(json.dumps(entry))
    if committed is not None:
        golden = types.SimpleNamespace(
            profile=WindowProfile(committed=committed,
                                  ticks=committed * 50))
        (tmp_path / "golden.pkl").write_bytes(pickle.dumps(golden))
    return str(tmp_path)


class TestShareLoading:
    def test_window_from_golden_pickle(self, tmp_path):
        share = write_share(tmp_path, synthetic_results(10),
                            committed=100)
        space = coverage_from_share(share)
        assert space.window == 100
        assert space.accounted == 10

    def test_window_inferred_from_fractions(self, tmp_path):
        share = write_share(tmp_path, synthetic_results(30,
                                                        committed=80))
        space = coverage_from_share(share)
        assert space.window == 80

    def test_share_json_byte_identical(self, tmp_path):
        results = synthetic_results(25, predicted=True)
        share_a = write_share(tmp_path / "a", results, committed=100)
        share_b = write_share(tmp_path / "b", results, committed=100)
        a = json.dumps(coverage_from_share(share_a).as_dict(),
                       sort_keys=True)
        b = json.dumps(coverage_from_share(share_b).as_dict(),
                       sort_keys=True)
        assert a == b

    def test_empty_share(self, tmp_path):
        space = coverage_from_share(str(tmp_path))
        assert space.accounted == 0
        payload = space.as_dict()
        assert payload["convergence"]["max_half_width"] == 1.0
        assert not payload["convergence"]["margin_reached"]


class MaskEverything:
    """Liveness stub: every candidate site is provably masked."""

    def classify(self, fault):
        return SiteVerdict(masked=True, reason="dead_register",
                           propagated=False, injected=True)


class TestGeneratorEdgeCases:
    """Satellite: sampling/generator edges the coverage map leans on."""

    def test_empty_fault_space_after_pruning(self):
        golden = GoldenRun(outputs=None, profile=PROFILE, checkpoint=None,
                           instructions=0, ticks=0, wall_seconds=0.0,
                           boot_instructions=0)
        runner = CampaignRunner(build("pi", "tiny"), golden=golden)
        runner._liveness = MaskEverything()
        faults = SEUGenerator(PROFILE, seed=3).batch(20)
        results = runner.run_campaign(faults, prune=True)
        assert [r for r in results if not r.predicted] == []
        assert len(results) == 20
        assert [r.fault for r in results] == faults
        # Coverage over the all-predicted campaign still reconciles.
        space = populate(FaultSpaceMap(window=PROFILE),
                         [r.as_dict() for r in results])
        assert space.accounted == 20
        assert space.predicted == 20
        assert space.executed == 0

    def test_single_site_campaign(self):
        profile = WindowProfile(committed=1, ticks=50)
        generator = SEUGenerator(profile, seed=1,
                                 locations=(LocationKind.DECODE,))
        space = FaultSpaceMap(window=profile)
        faults = generator.batch(10)
        assert all(fault.time == 1 for fault in faults)
        for fault in faults:
            space.account({"fault_file": fault.describe(),
                           "outcome": "correct",
                           "time_fraction": 1.0})
        # DECODE is 5 bits x 1 cycle: at most 5 distinct sites, and
        # pinning locations does not change the enumerated total.
        assert space.covered_sites() <= 5
        assert space.total_space_size() == \
            SEUGenerator(profile, seed=0).fault_space_size()

    def test_sampling_degenerate_inputs(self):
        from repro.campaign.sampling import (
            proportion_confidence_interval,
        )
        assert proportion_confidence_interval(0, 0) == (0.0, 1.0)
        assert proportion_confidence_interval(1, 0) == (0.0, 1.0)
