"""gemfi report, and the renderers every campaign analysis shares.

Aggregates the ``results/`` records of a :class:`~repro.campaign.now.
SharedDirCampaign` share into the shape of the paper's evaluation
figures — outcome totals, outcome distribution by fault location
(Fig. 5) and by injection timing (Fig. 6) — plus a divergence-latency
histogram built from the flight-recorder records the campaign runner
attaches to each result.

Every analysis view is built as structure, not text: prose lines and
tables, each table ``(caption, header, rows)`` — a header of None marks
a preformatted block whose rows are text lines.  The report's own
sections (:func:`report_sections`), the coverage view
(:func:`~repro.analysis.coverage.coverage_report_tables`) and the diff
view (:func:`~repro.analysis.diff.diff_report_tables`) all take that
shape, and one Markdown, one HTML and one aligned-text renderer here
turn it into documents.

Rendering is **byte-deterministic**: the same share produces the same
bytes across runs (no timestamps, no absolute paths, fully sorted
iteration), so reports can be diffed, cached and archived as CI
artifacts.  Outcome totals are computed exactly the way
:func:`~repro.telemetry.campaign.read_status` counts them, so the two
views of a campaign always agree.
"""

from __future__ import annotations

import html as _html
import os
from dataclasses import dataclass, field

from .campaign import (
    LOCATION_LABELS,
    HostTime,
    ResultFile,
    first_fault,
    outcome_columns,
    read_results,
)

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
    host: HostTime = field(default_factory=HostTime)
    # Fault-space coverage payload (repro.analysis.coverage
    # FaultSpaceMap.as_dict()); None when the share carries no results.
    coverage: dict | None = None


def load_share(share_dir: str,
               results: list[ResultFile] | None = None
               ) -> CampaignReport:
    """Fold the results of *share_dir* (*results* when the caller
    already read them) into a report.

    Only the directory's basename enters the report (determinism: the
    same share mounted at two paths renders identically).
    """
    report = CampaignReport(
        name=os.path.basename(os.path.normpath(share_dir)))
    if results is None:
        results = read_results(share_dir)
    for result in results:
        add_result(report, result.record, name=result.name)
    if report.experiments:
        # Lazy import keeps telemetry importable without the analysis
        # package loaded (and the analysis <-> campaign import order
        # intact).  Coverage payloads are byte-deterministic, so the
        # report stays diffable.
        from ..analysis.coverage import coverage_from_share
        report.coverage = coverage_from_share(
            share_dir, results=results).as_dict()
    return report


def add_result(report: CampaignReport, entry: dict,
               name: str = "") -> None:
    """Fold one result record into the aggregates."""
    report.experiments += 1
    outcome = entry.get("outcome", "unknown")
    report.outcomes[outcome] = report.outcomes.get(outcome, 0) + 1
    fault = first_fault(entry)
    location = "unknown" if fault is None \
        else LOCATION_LABELS[fault.location]
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
    report.host.add(entry, name or f"exp_{report.experiments:05d}")


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


# -- the report's sections ---------------------------------------------------


def _grouped_table(report: CampaignReport, groups: list[tuple[str, dict]]
                   ) -> tuple:
    columns = outcome_columns(report.outcomes)
    rows = [[label, sum(counts.values())]
            + [counts.get(outcome, 0) for outcome in columns]
            for label, counts in groups]
    return None, ["group", "n"] + columns, rows


def report_sections(report: CampaignReport,
                    baseline: dict | None = None) -> list[tuple]:
    """The report as ``(heading, prose, tables)`` sections; *baseline*
    is an optional ``repro.analysis.diff`` CampaignDiff payload (this
    campaign as head), appended as a "Vs baseline" section."""
    total = report.experiments or 1
    totals = [[outcome, report.outcomes[outcome],
               f"{report.outcomes[outcome] / total:.1%}"]
              for outcome in outcome_columns(report.outcomes)]
    totals.append(["TOTAL", report.experiments, "100.0%"])
    sections = [("Outcome totals", [],
                 [(None, ["outcome", "count", "fraction"], totals)])]
    labels = [label for label in LOCATION_ROWS
              if label in report.by_location]
    labels += sorted(set(report.by_location) - set(labels))
    if labels:
        groups = [(label, report.by_location[label]) for label in labels]
        sections.append(("Outcomes by fault location", [],
                         [_grouped_table(report, groups)]))
    groups = [(f"t in [{index / TIME_BINS:.1f},"
               f"{(index + 1) / TIME_BINS:.1f})", counts)
              for index, counts in enumerate(report.by_time) if counts]
    if groups:
        sections.append(("Outcomes by injection timing (fraction of "
                         "the FI window)", [],
                         [_grouped_table(report, groups)]))
    histogram = latency_histogram(report.latencies)
    if histogram:
        peak = max(count for _, count in histogram)
        width = max(len(label) for label, _ in histogram)
        kinds = ", ".join(f"{kind}={count}" for kind, count
                          in sorted(report.divergence_kinds.items()))
        sections.append((
            "Divergence latency (ticks, flight recorder)",
            [f"{len(report.latencies)} divergences ({kinds})"],
            [(None, None, [f"{label.rjust(width)} | "
                           f"{_bar(count, peak)} {count}"
                           for label, count in histogram])]))
    host = report.host.report_tables()
    if host:
        sections.append(("Host time", [], host))
    if report.coverage is not None:
        from ..analysis.coverage import coverage_report_tables
        sections.append(("Fault-space coverage",
                         *coverage_report_tables(report.coverage)))
    if baseline is not None:
        from ..analysis.diff import diff_report_tables
        sections.append(("Vs baseline", *diff_report_tables(baseline)))
    return sections


def render_report(report: CampaignReport, fmt: str = "md",
                  baseline: dict | None = None) -> str:
    """Render *report* as Markdown (``md``) or HTML (``html``)."""
    renderers = {"md": render_markdown, "html": render_html}
    if fmt not in renderers:
        raise ValueError(f"unknown report format '{fmt}'")
    return renderers[fmt](
        f"Campaign report: {report.name}",
        [f"{report.experiments} completed experiments."],
        report_sections(report, baseline))


# -- the renderers -----------------------------------------------------------


def _md_table(header: list[str] | None, rows: list) -> str:
    if header is None:
        return "\n".join(["```", *rows, "```"])
    lines = ["| " + " | ".join(str(cell) for cell in header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def render_markdown(title: str, prose: list[str], sections) -> str:
    """A Markdown document: ``# title``, *prose* one paragraph per
    line, then each ``(heading, prose, tables)`` section — ``##
    heading`` (none when heading is None), its prose as one paragraph
    and its tables under ``###`` captions."""
    blocks = [f"# {title}", *prose]
    for heading, lines, tables in sections:
        if heading:
            blocks.append(f"## {heading}")
        if lines:
            blocks.append("\n".join(lines))
        for caption, header, rows in tables:
            if caption:
                blocks.append(f"### {caption}")
            blocks.append(_md_table(header, rows))
    return "\n\n".join(blocks) + "\n"


_HTML_HEAD = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{title}</title>
<style>
body {{ font-family: monospace; margin: 2em; }}
table {{ border-collapse: collapse; margin: 1em 0; }}
th, td {{ border: 1px solid #999; padding: 0.3em 0.8em; text-align: right; }}
th:first-child, td:first-child {{ text-align: left; }}
pre {{ background: #f4f4f4; padding: 1em; }}
</style></head><body>
"""


def _html_table(header: list[str] | None, rows: list) -> str:
    if header is None:
        return "<pre>" + _html.escape("\n".join(rows)) + "</pre>"
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


def render_html(title: str, prose: list[str], sections) -> str:
    """The HTML twin of :func:`render_markdown`: the same headings,
    one ``<p>`` per prose line and the same tables."""
    title = _html.escape(title)
    parts = [_HTML_HEAD.format(title=title), f"<h1>{title}</h1>"]
    parts += [f"<p>{_html.escape(line)}</p>" for line in prose]
    for heading, lines, tables in sections:
        if heading:
            parts.append(f"<h2>{_html.escape(heading)}</h2>")
        parts += [f"<p>{_html.escape(line)}</p>" for line in lines]
        for caption, header, rows in tables:
            if caption:
                parts.append(f"<h3>{_html.escape(caption)}</h3>")
            parts.append(_html_table(header, rows))
    parts.append("</body></html>\n")
    return "\n".join(parts)


def render_text(prose: list[str], tables) -> str:
    """Aligned plain text: the *prose* lines, then each table under a
    ``# caption`` line with every column padded to its widest cell."""
    blocks = ["\n".join(prose)] if prose else []
    for caption, header, rows in tables:
        lines = [header] + [[str(cell) for cell in row] for row in rows]
        widths = [max(len(line[i]) for line in lines)
                  for i in range(len(header))]
        blocks.append("\n".join(
            [f"# {caption}"]
            + ["  ".join(cell.ljust(width)
                         for cell, width in zip(line, widths))
               for line in lines]))
    return "\n\n".join(blocks).rstrip() + "\n"
