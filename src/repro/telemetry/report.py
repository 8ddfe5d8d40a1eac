"""gemfi report: campaign outcome reports from a share directory.

Aggregates the ``results/`` records of a :class:`~repro.campaign.now.
SharedDirCampaign` share into the shape of the paper's evaluation
figures — outcome totals, outcome distribution by fault location
(Fig. 5) and by injection timing (Fig. 6) — plus a divergence-latency
histogram built from the flight-recorder records the campaign runner
attaches to each result.

Rendering is **byte-deterministic**: the same share produces the same
Markdown/HTML byte-for-byte across runs (no timestamps, no absolute
paths, fully sorted iteration), so reports can be diffed, cached and
archived as CI artifacts.  Outcome totals are computed exactly the way
:func:`~repro.telemetry.campaign.read_status` counts them, so the two
views of a campaign always agree.
"""

from __future__ import annotations

import html as _html
import json
import os
from dataclasses import dataclass, field

from ..core.fault import LocationKind
from ..core.parser import FaultParseError, parse_fault_file
from .campaign import ladder_savings, simulated_instructions

# Keep in sync with repro.campaign.classify.OUTCOME_ORDER (imported
# lazily nowhere: the report only handles result *dicts*, and unknown
# outcome strings are appended after the canonical ones).
OUTCOME_ORDER = ("crashed", "non_propagated", "strictly_correct",
                 "correct", "sdc")

LOCATION_LABELS = {
    LocationKind.INT_REG: "int regfile",
    LocationKind.FP_REG: "fp regfile",
    LocationKind.PC: "pc",
    LocationKind.FETCH: "fetch",
    LocationKind.DECODE: "decode",
    LocationKind.EXECUTE: "execute",
    LocationKind.MEM: "mem",
}
LOCATION_ROWS = tuple(LOCATION_LABELS[k]
                      for k in sorted(LOCATION_LABELS,
                                      key=lambda k: k.value))

TIME_BINS = 10


@dataclass
class CampaignReport:
    """Aggregated view of one share directory's results."""

    name: str
    experiments: int = 0
    outcomes: dict[str, int] = field(default_factory=dict)
    # location label -> outcome -> count
    by_location: dict[str, dict[str, int]] = field(default_factory=dict)
    # decile index -> outcome -> count
    by_time: list[dict[str, int]] = field(
        default_factory=lambda: [{} for _ in range(TIME_BINS)])
    # flight-recorder injection-to-divergence latencies (ticks)
    latencies: list[int] = field(default_factory=list)
    divergence_kinds: dict[str, int] = field(default_factory=dict)
    # host-time roll-up: (wall_seconds, experiment name) per result,
    # total simulated instructions, and boot/window/injection/drain
    # phase sums (the repro.telemetry.profiler campaign attribution)
    walls: list[tuple[float, str]] = field(default_factory=list)
    instructions_total: int = 0
    phase_totals: dict[str, float] = field(default_factory=dict)
    # checkpoint-ladder roll-up (repro.telemetry.campaign.ladder_savings)
    ladder_started: int = 0
    instructions_skipped: int = 0
    early_exits: int = 0
    # Fault-space coverage payload (repro.analysis.coverage
    # FaultSpaceMap.as_dict()); None when the share carries no results.
    coverage: dict | None = None

    def outcome_columns(self) -> list[str]:
        extra = sorted(set(self.outcomes) - set(OUTCOME_ORDER))
        return [o for o in OUTCOME_ORDER if o in self.outcomes] + extra


def _fault_location(entry: dict) -> str:
    """Fault-location row label of one result record.  Prefers the
    self-describing ``fault_file`` provenance; ``fault`` (the described
    first fault) is the fallback for pre-telemetry result sets."""
    for key in ("fault_file", "fault"):
        text = entry.get(key)
        if not text:
            continue
        try:
            faults = parse_fault_file(text)
        except FaultParseError:
            continue
        if faults:
            return LOCATION_LABELS[faults[0].location]
    return "unknown"


def load_share(share_dir: str) -> CampaignReport:
    """Read every ``results/exp_*.json`` of *share_dir* into a report.

    Only the directory's basename enters the report (determinism: the
    same share mounted at two paths renders identically).
    """
    report = CampaignReport(
        name=os.path.basename(os.path.normpath(share_dir)))
    results_dir = os.path.join(share_dir, "results")
    names = sorted(os.listdir(results_dir)) \
        if os.path.isdir(results_dir) else []
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(results_dir, name), "r",
                      encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            continue  # mid-write, exactly like read_status
        add_result(report, entry, name=name[:-len(".json")])
    if report.experiments:
        # Lazy import keeps telemetry importable without the analysis
        # package loaded (and the analysis <-> campaign import order
        # intact).  Coverage payloads are byte-deterministic, so the
        # report stays diffable.
        from ..analysis.coverage import coverage_from_share
        report.coverage = coverage_from_share(share_dir).as_dict()
    return report


def add_result(report: CampaignReport, entry: dict,
               name: str = "") -> None:
    """Fold one result record into the aggregates."""
    report.experiments += 1
    outcome = entry.get("outcome", "unknown")
    report.outcomes[outcome] = report.outcomes.get(outcome, 0) + 1
    location = _fault_location(entry)
    row = report.by_location.setdefault(location, {})
    row[outcome] = row.get(outcome, 0) + 1
    fraction = entry.get("time_fraction")
    if isinstance(fraction, (int, float)):
        index = min(TIME_BINS - 1, max(0, int(fraction * TIME_BINS)))
        cell = report.by_time[index]
        cell[outcome] = cell.get(outcome, 0) + 1
    divergence = entry.get("divergence")
    if isinstance(divergence, dict):
        kind = divergence.get("kind", "unknown")
        report.divergence_kinds[kind] = \
            report.divergence_kinds.get(kind, 0) + 1
        latency = divergence.get("latency")
        if isinstance(latency, int) and latency >= 0:
            report.latencies.append(latency)
    wall = entry.get("wall_seconds")
    if isinstance(wall, (int, float)):
        report.walls.append((float(wall),
                             name or f"exp_{report.experiments:05d}"))
        report.instructions_total += simulated_instructions(entry)
    started, skipped, exited = ladder_savings(entry)
    report.ladder_started += started
    report.instructions_skipped += skipped
    report.early_exits += exited
    phases = entry.get("phases")
    if isinstance(phases, dict):
        for phase, seconds in phases.items():
            if isinstance(seconds, (int, float)):
                report.phase_totals[phase] = \
                    report.phase_totals.get(phase, 0.0) + float(seconds)


# -- the divergence-latency histogram ----------------------------------------


def latency_histogram(latencies: list[int]) -> list[tuple[str, int]]:
    """Power-of-two tick buckets: ("0", n), ("1-1", n), ("2-3", n)..."""
    if not latencies:
        return []
    buckets: dict[int, int] = {}
    for latency in latencies:
        index = 0 if latency == 0 else latency.bit_length()
        buckets[index] = buckets.get(index, 0) + 1
    rows = []
    for index in range(max(buckets) + 1):
        count = buckets.get(index, 0)
        label = "0" if index == 0 else \
            f"{1 << (index - 1)}-{(1 << index) - 1}"
        rows.append((label, count))
    return rows


def _bar(count: int, peak: int, width: int = 40) -> str:
    if peak <= 0:
        return ""
    return "#" * max(1 if count else 0,
                     round(count / peak * width))


# -- table assembly (shared by both formats) ---------------------------------


def _outcome_table(report: CampaignReport) -> tuple[list[str], list[list]]:
    header = ["outcome", "count", "fraction"]
    total = report.experiments or 1
    rows = [[outcome, report.outcomes[outcome],
             f"{report.outcomes[outcome] / total:.1%}"]
            for outcome in report.outcome_columns()]
    rows.append(["TOTAL", report.experiments, "100.0%"])
    return header, rows


def _grouped_table(report: CampaignReport, groups: list[tuple[str, dict]]
                   ) -> tuple[list[str], list[list]]:
    columns = report.outcome_columns()
    header = ["group", "n"] + columns
    rows = []
    for label, counts in groups:
        n = sum(counts.values())
        rows.append([label, n]
                    + [counts.get(outcome, 0) for outcome in columns])
    return header, rows


def _location_groups(report: CampaignReport) -> list[tuple[str, dict]]:
    labels = [label for label in LOCATION_ROWS
              if label in report.by_location]
    labels += sorted(set(report.by_location) - set(labels))
    return [(label, report.by_location[label]) for label in labels]


PHASE_ORDER = ("boot", "window", "injection", "drain")


def _host_table(report: CampaignReport
                ) -> tuple[list[str], list[list]] | None:
    """Host-time summary table; None when the results carry no
    wall_seconds (pre-telemetry result sets)."""
    if not report.walls:
        return None
    from .campaign import percentile
    values = [wall for wall, _ in report.walls]
    total = sum(values)
    rows = [
        ["wall total (s)", f"{total:.3f}"],
        ["wall mean (s)", f"{total / len(values):.4f}"],
        ["wall p50 (s)", f"{percentile(values, 0.5):.4f}"],
        ["wall p90 (s)", f"{percentile(values, 0.9):.4f}"],
    ]
    if total > 0 and report.instructions_total:
        kips = report.instructions_total / total / 1e3
        rows.append(["campaign KIPS", f"{kips:.1f}"])
    runs = report.experiments
    rows += [
        ["started past boot checkpoint",
         f"{report.ladder_started / runs:.1%}"],
        ["instructions skipped (mean)",
         f"{report.instructions_skipped / runs:.0f}"],
        ["early exits", str(report.early_exits)],
    ]
    return ["metric", "value"], rows


def _slowest_table(report: CampaignReport, top: int = 3
                   ) -> tuple[list[str], list[list]]:
    ordered = sorted(report.walls,
                     key=lambda item: (-item[0], item[1]))[:top]
    return (["experiment", "wall (s)"],
            [[name, f"{wall:.4f}"] for wall, name in ordered])


def _phase_table(report: CampaignReport
                 ) -> tuple[list[str], list[list]] | None:
    if not report.phase_totals:
        return None
    phases = [p for p in PHASE_ORDER if p in report.phase_totals]
    phases += sorted(set(report.phase_totals) - set(PHASE_ORDER))
    total = sum(report.phase_totals.values())
    scale = total if total > 0 else 1.0
    rows = [[phase, f"{report.phase_totals[phase]:.3f}",
             f"{report.phase_totals[phase] / scale:.1%}"]
            for phase in phases]
    return ["phase", "seconds", "share"], rows


def _time_groups(report: CampaignReport) -> list[tuple[str, dict]]:
    groups = []
    for index, counts in enumerate(report.by_time):
        if not counts:
            continue
        low = index / TIME_BINS
        high = (index + 1) / TIME_BINS
        groups.append((f"t in [{low:.1f},{high:.1f})", counts))
    return groups


# -- Markdown ----------------------------------------------------------------


def _md_table(header: list[str], rows: list[list]) -> str:
    lines = ["| " + " | ".join(str(cell) for cell in header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def render_markdown(report: CampaignReport,
                    baseline: dict | None = None) -> str:
    parts = [f"# Campaign report: {report.name}", "",
             f"{report.experiments} completed experiments.", "",
             "## Outcome totals", "",
             _md_table(*_outcome_table(report))]
    location = _location_groups(report)
    if location:
        parts += ["", "## Outcomes by fault location", "",
                  _md_table(*_grouped_table(report, location))]
    timing = _time_groups(report)
    if timing:
        parts += ["", "## Outcomes by injection timing "
                      "(fraction of the FI window)", "",
                  _md_table(*_grouped_table(report, timing))]
    histogram = latency_histogram(report.latencies)
    if histogram:
        peak = max(count for _, count in histogram)
        parts += ["", "## Divergence latency (ticks, flight recorder)",
                  "",
                  f"{len(report.latencies)} divergences "
                  + "("
                  + ", ".join(f"{kind}={count}" for kind, count
                              in sorted(report.divergence_kinds.items()))
                  + ")", "",
                  "```"]
        width = max(len(label) for label, _ in histogram)
        for label, count in histogram:
            parts.append(f"{label.rjust(width)} | "
                         f"{_bar(count, peak)} {count}")
        parts += ["```"]
    host = _host_table(report)
    if host:
        parts += ["", "## Host time", "", _md_table(*host),
                  "", "### Slowest experiments", "",
                  _md_table(*_slowest_table(report))]
        phases = _phase_table(report)
        if phases:
            parts += ["", "### Wall time by campaign phase", "",
                      _md_table(*phases)]
    if report.coverage is not None:
        from ..analysis.coverage import coverage_report_tables
        prose, tables = coverage_report_tables(report.coverage)
        parts += ["", "## Fault-space coverage", ""]
        parts += [line for line in prose]
        for title, header, rows in tables:
            parts += ["", f"### {title}", "", _md_table(header, rows)]
    if baseline is not None:
        from ..analysis.diff import diff_report_tables
        prose, tables = diff_report_tables(baseline)
        parts += ["", "## Vs baseline", ""]
        parts += [line for line in prose]
        for title, header, rows in tables:
            parts += ["", f"### {title}", "", _md_table(header, rows)]
    parts.append("")
    return "\n".join(parts)


# -- HTML --------------------------------------------------------------------

_HTML_HEAD = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>Campaign report: {name}</title>
<style>
body {{ font-family: monospace; margin: 2em; }}
table {{ border-collapse: collapse; margin: 1em 0; }}
th, td {{ border: 1px solid #999; padding: 0.3em 0.8em; text-align: right; }}
th:first-child, td:first-child {{ text-align: left; }}
pre {{ background: #f4f4f4; padding: 1em; }}
</style></head><body>
"""


def _html_table(header: list[str], rows: list[list]) -> str:
    lines = ["<table>", "<tr>"
             + "".join(f"<th>{_html.escape(str(c))}</th>" for c in header)
             + "</tr>"]
    for row in rows:
        lines.append("<tr>"
                     + "".join(f"<td>{_html.escape(str(c))}</td>"
                               for c in row)
                     + "</tr>")
    lines.append("</table>")
    return "\n".join(lines)


def render_html(report: CampaignReport,
                baseline: dict | None = None) -> str:
    name = _html.escape(report.name)
    parts = [_HTML_HEAD.format(name=name),
             f"<h1>Campaign report: {name}</h1>",
             f"<p>{report.experiments} completed experiments.</p>",
             "<h2>Outcome totals</h2>",
             _html_table(*_outcome_table(report))]
    location = _location_groups(report)
    if location:
        parts += ["<h2>Outcomes by fault location</h2>",
                  _html_table(*_grouped_table(report, location))]
    timing = _time_groups(report)
    if timing:
        parts += ["<h2>Outcomes by injection timing</h2>",
                  _html_table(*_grouped_table(report, timing))]
    histogram = latency_histogram(report.latencies)
    if histogram:
        peak = max(count for _, count in histogram)
        width = max(len(label) for label, _ in histogram)
        body = "\n".join(f"{label.rjust(width)} | "
                         f"{_bar(count, peak)} {count}"
                         for label, count in histogram)
        parts += ["<h2>Divergence latency (ticks)</h2>",
                  f"<pre>{_html.escape(body)}</pre>"]
    host = _host_table(report)
    if host:
        parts += ["<h2>Host time</h2>", _html_table(*host),
                  "<h3>Slowest experiments</h3>",
                  _html_table(*_slowest_table(report))]
        phases = _phase_table(report)
        if phases:
            parts += ["<h3>Wall time by campaign phase</h3>",
                      _html_table(*phases)]
    if report.coverage is not None:
        from ..analysis.coverage import coverage_report_tables
        prose, tables = coverage_report_tables(report.coverage)
        parts.append("<h2>Fault-space coverage</h2>")
        parts += [f"<p>{_html.escape(line)}</p>" for line in prose]
        for title, header, rows in tables:
            parts += [f"<h3>{_html.escape(title)}</h3>",
                      _html_table(header, rows)]
    if baseline is not None:
        from ..analysis.diff import diff_report_tables
        prose, tables = diff_report_tables(baseline)
        parts.append("<h2>Vs baseline</h2>")
        parts += [f"<p>{_html.escape(line)}</p>" for line in prose]
        for title, header, rows in tables:
            parts += [f"<h3>{_html.escape(title)}</h3>",
                      _html_table(header, rows)]
    parts.append("</body></html>\n")
    return "\n".join(parts)


def render_report(report: CampaignReport, fmt: str = "md",
                  baseline: dict | None = None) -> str:
    """Render *report*; *baseline* is an optional
    ``repro.analysis.diff`` CampaignDiff payload (this campaign as
    head) appended as a "Vs baseline" section."""
    if fmt == "md":
        return render_markdown(report, baseline=baseline)
    if fmt == "html":
        return render_html(report, baseline=baseline)
    raise ValueError(f"unknown report format '{fmt}'")
