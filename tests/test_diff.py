"""Differential campaign analytics tests (repro.analysis.diff).

The acceptance invariants the module guarantees:

* a campaign compared against itself is byte-deterministic and yields
  an ``unchanged`` verdict for every outcome class;
* an injected outcome shift larger than the margin flips the verdict
  to ``regressed`` (or ``improved``, depending on direction);
* the Newcombe interval always contains the observed delta and is
  clamped to [-1, 1];
* ``proportions_differ`` agrees with the watchdog's historical
  disjoint-Wilson criterion.
"""

import json

import pytest

from repro.analysis.diff import (
    CampaignDiff,
    CampaignSummary,
    newcombe_interval,
    proportions_differ,
    diff_report_tables,
    render_diff_bars,
    render_diff_svg,
)
from repro.campaign.sampling import proportion_confidence_interval
from repro.telemetry import render_markdown, render_text
from test_coverage import synthetic_results, write_share


def mutated_results(results, outcome="sdc"):
    """The same campaign with every outcome flipped to *outcome*."""
    shifted = [dict(entry) for entry in results]
    for entry in shifted:
        entry["outcome"] = outcome
    return shifted


class TestIntervalMath:
    def test_identical_proportions_not_significant(self):
        significant, _, _ = proportions_differ(10, 40, 10, 40)
        assert not significant

    def test_extreme_shift_significant(self):
        significant, (low_a, high_a), (low_b, high_b) = \
            proportions_differ(5, 20, 18, 20, confidence=0.95)
        assert significant
        assert low_b > high_a  # disjoint, b above a

    def test_matches_watchdog_overlap_criterion(self):
        # Historically the watchdog computed two Wilson intervals and
        # alerted when they were disjoint; the shared helper must give
        # the same answer on the same inputs.
        cases = [(5, 20, 18, 20), (10, 40, 12, 40), (0, 30, 6, 30),
                 (3, 10, 3, 10), (1, 50, 20, 50)]
        for sa, na, sb, nb in cases:
            low_a, high_a = proportion_confidence_interval(sa, na)
            low_b, high_b = proportion_confidence_interval(sb, nb)
            overlap = low_b <= high_a and low_a <= high_b
            significant, _, _ = proportions_differ(sa, na, sb, nb)
            assert significant == (not overlap)

    def test_newcombe_contains_delta_and_clamps(self):
        delta, low, high = newcombe_interval(5, 20, 18, 20)
        assert low <= delta <= high
        assert delta == pytest.approx(0.65)
        delta, low, high = newcombe_interval(0, 10, 10, 10)
        assert -1.0 <= low and high <= 1.0
        assert delta == pytest.approx(1.0)

    def test_zero_trials_neutral(self):
        delta, low, high = newcombe_interval(0, 0, 0, 0)
        assert delta == 0.0
        assert low <= 0.0 <= high


class TestCampaignSummary:
    def test_from_share_byte_deterministic(self, tmp_path):
        share = write_share(tmp_path / "share", synthetic_results(30),
                            committed=100)
        first = CampaignSummary.from_share(share)
        second = CampaignSummary.from_share(share)
        assert first.canonical_bytes() == second.canonical_bytes()
        assert first.digest() == second.digest()

    def test_payload_shape(self, tmp_path):
        share = write_share(tmp_path / "share", synthetic_results(40),
                            committed=100)
        payload = CampaignSummary.from_share(share).payload
        assert payload["schema"] == "gemfi.campaign_summary.v2"
        assert payload["experiments"] == 40
        assert set(payload["outcomes"]) == {"sdc", "crashed",
                                            "correct",
                                            "non_propagated"}
        total_rate = sum(o["rate"] for o in
                        payload["outcomes"].values())
        assert total_rate == pytest.approx(1.0, abs=1e-5)
        assert payload["coverage"]["heatmaps"]

    def test_from_payload_roundtrip(self, tmp_path):
        share = write_share(tmp_path / "share", synthetic_results(20),
                            committed=100)
        summary = CampaignSummary.from_share(share)
        rebuilt = CampaignSummary.from_payload(
            json.loads(summary.canonical_bytes()))
        assert rebuilt.canonical_bytes() == summary.canonical_bytes()

    def test_from_payload_accepts_result_list(self):
        results = synthetic_results(12)
        summary = CampaignSummary.from_payload(results)
        assert summary.payload["experiments"] == 12

    def test_from_payload_rejects_junk(self):
        with pytest.raises(ValueError):
            CampaignSummary.from_payload({"not": "a summary"})


class TestCampaignDiff:
    @pytest.fixture(scope="class")
    def shares(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("diff-shares")
        results = synthetic_results(40)
        base = write_share(root / "base", results, committed=100)
        same = write_share(root / "same", list(results), committed=100)
        shifted = write_share(root / "shifted",
                              mutated_results(results),
                              committed=100)
        return base, same, shifted

    def test_self_compare_unchanged_and_deterministic(self, shares):
        base, same, _ = shares
        diff = CampaignDiff(CampaignSummary.from_share(base),
                            CampaignSummary.from_share(same))
        assert diff.verdict == "unchanged"
        assert not diff.regressed
        for row in diff.payload["outcomes"].values():
            assert row["verdict"] == "unchanged"
        again = CampaignDiff(CampaignSummary.from_share(base),
                             CampaignSummary.from_share(same))
        assert diff.canonical_bytes() == again.canonical_bytes()

    def test_injected_shift_regresses_and_gates(self, shares):
        base, _, shifted = shares
        diff = CampaignDiff(CampaignSummary.from_share(base),
                            CampaignSummary.from_share(shifted))
        assert diff.verdict == "regressed"
        assert diff.regressed
        sdc = diff.payload["outcomes"]["sdc"]
        assert sdc["verdict"] == "regressed"
        assert sdc["significant"]
        assert sdc["delta"] == pytest.approx(0.75)
        assert sdc["ci_low"] > 0  # interval excludes zero
        # Fewer crashes is an improvement, not a regression.
        assert diff.payload["outcomes"]["crashed"]["verdict"] == \
            "improved"

    def test_direction_improved_overall(self, shares):
        base, _, shifted = shares
        # Swap operands: all-sdc -> mixed is an improvement.
        diff = CampaignDiff(CampaignSummary.from_share(shifted),
                            CampaignSummary.from_share(base))
        assert diff.payload["outcomes"]["sdc"]["verdict"] == "improved"

    def test_margin_suppresses_small_shifts(self, shares):
        base, _, shifted = shares
        diff = CampaignDiff(CampaignSummary.from_share(base),
                            CampaignSummary.from_share(shifted),
                            margin=0.9)
        assert diff.verdict == "unchanged"

    def test_parameter_validation(self, shares):
        base, same, _ = shares
        summary = CampaignSummary.from_share(base)
        other = CampaignSummary.from_share(same)
        with pytest.raises(ValueError):
            CampaignDiff(summary, other, confidence=1.5)
        with pytest.raises(ValueError):
            CampaignDiff(summary, other, margin=1.0)

    def test_heatmap_deltas_present(self, shares):
        base, _, shifted = shares
        payload = CampaignDiff(
            CampaignSummary.from_share(base),
            CampaignSummary.from_share(shifted)).payload
        assert "location" in payload["heatmaps"]
        cells = payload["heatmaps"]["location"]["cells"]
        assert cells
        for cell in cells:
            for row in cell["outcomes"].values():
                assert row["ci_low"] <= row["delta"] <= row["ci_high"]


class TestRendering:
    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("diff-render")
        results = synthetic_results(40)
        base = write_share(root / "base", results, committed=100)
        head = write_share(root / "head", mutated_results(results),
                           committed=100)
        return CampaignDiff(CampaignSummary.from_share(base),
                            CampaignSummary.from_share(head)).payload

    def test_text(self, payload):
        text = render_text(*diff_report_tables(payload))
        assert "verdict: regressed" in text
        assert "Outcome deltas" in text
        assert "Newcombe" in text

    def test_markdown(self, payload):
        prose, tables = diff_report_tables(payload)
        text = render_markdown("Campaign diff", prose,
                               [(None, [], tables)])
        assert text.startswith("# Campaign diff")
        assert "| outcome |" in text

    def test_svg(self, payload):
        svg = render_diff_svg(payload, "location")
        assert svg.startswith("<svg")
        assert "<title>" in svg  # interval tooltips

    def test_bars(self, payload):
        svg = render_diff_bars(payload)
        assert svg.startswith("<svg")
        assert "sdc" in svg
