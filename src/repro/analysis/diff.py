"""Differential campaign analytics: summaries, diffs, regression gates.

GemFI's evaluation is comparative — protected vs unprotected binaries,
CPU models, fault models (PAPER.md Figs. 4-6) — and DAVOS ships
decision support over a persistent result database.  This module is
that layer for the reproduction:

* :class:`CampaignSummary` — a byte-deterministic digest of a finished
  campaign: spec fingerprint, outcome counts and rates,
  per-dimension coverage heatmap rollups (reusing
  :meth:`~repro.analysis.coverage.FaultSpaceMap.as_dict`), the
  divergence-latency histogram and a host-time/KIPS rollup.  Buildable
  from a share directory, a result list, or a serialised payload; the
  same inputs always produce the same bytes (sorted keys, rounded
  floats, no timestamps or absolute paths).
* :class:`CampaignDiff` — significance-tested deltas between two
  summaries: a Newcombe score interval on each outcome-rate difference
  (built from the two sides' Wilson intervals on their record
  counts), per-dimension delta heatmaps, the latency-histogram shift,
  and a per-class verdict (``regressed`` / ``improved`` /
  ``unchanged``) plus an overall gate verdict with a configurable
  rate margin — the outcome-distribution analogue of the CI KIPS gate.
* the **shared two-proportion significance helpers** the telemetry
  watchdog's ``outcome-drift`` rule delegates to, so the repo has
  exactly one implementation of "are these two proportions different".

Everything here is read-only over existing result streams and
byte-deterministic, so ``gemfi compare --json`` documents can be
diffed, cached, archived and gated on in CI.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from ..campaign.sampling import proportion_confidence_interval
from ..telemetry.campaign import (
    HostTime,
    canonical_json_bytes,
    digest_bytes,
    read_results,
)
from .coverage import (
    DIMENSION_TITLES,
    DIMENSIONS,
    FaultSpaceMap,
    _round,
    _window_from_share,
    _xml,
    outcome_columns,
)

#: outcomes where a rate *increase* is good news; everything else
#: (crashed, sdc, unknown outcome strings — conservative) regresses
#: when it goes up.
GOOD_OUTCOMES = frozenset({"correct", "strictly_correct",
                           "non_propagated"})

SUMMARY_SCHEMA = "gemfi.campaign_summary.v2"
DIFF_SCHEMA = "gemfi.campaign_diff.v2"


# -- shared two-proportion significance ---------------------------------------


def proportions_differ(successes_a: int, trials_a: int,
                       successes_b: int, trials_b: int,
                       confidence: float = 0.95
                       ) -> tuple[bool, tuple[float, float],
                                  tuple[float, float]]:
    """Disjoint-Wilson-intervals significance test on two
    proportions: ``(significant, (low_a, high_a), (low_b, high_b))``.

    This is the watchdog ``outcome-drift`` criterion — two Wilson
    score intervals at *confidence* that do not overlap — kept here so
    drift alerts and campaign diffs share one implementation.
    """
    low_a, high_a = proportion_confidence_interval(
        successes_a, trials_a, confidence=confidence)
    low_b, high_b = proportion_confidence_interval(
        successes_b, trials_b, confidence=confidence)
    significant = low_b > high_a or low_a > high_b
    return significant, (low_a, high_a), (low_b, high_b)


def newcombe_interval(success_base: int, total_base: int,
                      success_head: int, total_head: int,
                      confidence: float = 0.95
                      ) -> tuple[float, float, float]:
    """``(delta, low, high)`` for ``p_head - p_base`` by Newcombe's
    score method: the interval is assembled from the two sides' Wilson
    intervals on their counts.
    """
    p_base = success_base / total_base if total_base > 0 else 0.0
    p_head = success_head / total_head if total_head > 0 else 0.0
    low_base, high_base = proportion_confidence_interval(
        success_base, total_base, confidence=confidence)
    low_head, high_head = proportion_confidence_interval(
        success_head, total_head, confidence=confidence)
    delta = p_head - p_base
    low = delta - math.sqrt((p_head - low_head) ** 2
                            + (high_base - p_base) ** 2)
    high = delta + math.sqrt((high_head - p_head) ** 2
                             + (p_base - low_base) ** 2)
    return delta, max(-1.0, low), min(1.0, high)


# -- campaign summaries -------------------------------------------------------


def _normalise_entry(entry) -> dict:
    if isinstance(entry, dict):
        return entry
    as_dict = getattr(entry, "as_dict", None)
    if callable(as_dict):
        return as_dict()
    raise TypeError(f"not a result record: {type(entry).__name__}")


@dataclass
class CampaignSummary:
    """One campaign's byte-deterministic digest (see module doc)."""

    payload: dict

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_results(cls, results, name: str = "",
                     spec: dict | None = None, window=None,
                     confidence: float = 0.99) -> "CampaignSummary":
        """Summarise an in-memory result list (dicts or objects with
        ``as_dict``).  *window* is the FI window's committed count
        when known (sizes the enumerated fault space)."""
        from ..telemetry.report import latency_histogram
        space = FaultSpaceMap(window=window, confidence=confidence)
        counts: dict[str, int] = {}
        latencies: list[int] = []
        kinds: dict[str, int] = {}
        host = HostTime()
        for raw in results:
            entry = _normalise_entry(raw)
            space.account(entry)
            outcome = str(entry.get("outcome", "unknown"))
            counts[outcome] = counts.get(outcome, 0) + 1
            divergence = entry.get("divergence")
            if isinstance(divergence, dict):
                kind = str(divergence.get("kind", "unknown"))
                kinds[kind] = kinds.get(kind, 0) + 1
                latency = divergence.get("latency")
                if isinstance(latency, int) and latency >= 0:
                    latencies.append(latency)
            host.add(entry)
        outcomes = {outcome: {"count": count,
                              "rate": _round(count / space.accounted)}
                    for outcome, count in sorted(counts.items())}
        coverage = space.as_dict()
        host_time = None
        if host.walls:
            host_time = {"experiments": len(host.walls),
                         "wall_seconds": _round(host.wall_total),
                         "instructions": host.instructions}
            if host.kips:
                host_time["kips"] = _round(host.kips)
        payload = {
            "schema": SUMMARY_SCHEMA,
            "name": name,
            "spec": spec,
            "confidence": confidence,
            "experiments": space.accounted,
            "outcomes": outcomes,
            "coverage": {
                "space": coverage["space"],
                "heatmaps": coverage["heatmaps"],
            },
            "latency": {
                "divergences": len(latencies),
                "kinds": kinds,
                "histogram": [[label, count] for label, count
                              in latency_histogram(latencies)],
            },
            "host": host_time,
        }
        return cls(payload)

    @classmethod
    def from_share(cls, share_dir: str, name: str | None = None,
                   confidence: float = 0.99,
                   results=None) -> "CampaignSummary":
        """Summarise a campaign share directory (read-only; *results*
        when the caller already read them with
        :func:`~repro.telemetry.campaign.read_results`).  The spec
        fingerprint comes from the share's ``workload.json`` minus the
        service request context (which carries a per-submission
        request id — not part of the campaign)."""
        if name is None:
            name = os.path.basename(os.path.normpath(share_dir))
        spec = None
        path = os.path.join(share_dir, "workload.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
        except (OSError, ValueError):
            spec = None
        if isinstance(spec, dict):
            spec.pop("request", None)
        else:
            spec = None
        if results is None:
            results = read_results(share_dir)
        records = [result.record for result in results]
        return cls.from_results(records, name=name, spec=spec,
                                window=_window_from_share(share_dir,
                                                          records),
                                confidence=confidence)

    @classmethod
    def from_payload(cls, payload) -> "CampaignSummary":
        """Re-hydrate a summary from its JSON payload (a saved
        summary file, a ``gemfi compare --json`` operand, or the
        ``summary`` wrapper a service endpoint returns).  A bare result
        list is summarised on the spot.  A payload of any other schema
        (an older summary, a diff) is refused."""
        if isinstance(payload, list):
            return cls.from_results(payload)
        if not isinstance(payload, dict):
            raise ValueError("not a campaign summary payload")
        if "schema" not in payload and \
                isinstance(payload.get("summary"), dict):
            payload = payload["summary"]
        schema = payload.get("schema")
        if schema != SUMMARY_SCHEMA:
            raise ValueError(f"not a {SUMMARY_SCHEMA} payload (schema "
                             f"{schema!r}); summarise the share again")
        return cls(payload)

    # -- views ----------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.payload.get("name") or ""

    def canonical_bytes(self) -> bytes:
        return canonical_json_bytes(self.payload)

    def digest(self) -> str:
        """SHA-256 of the canonical payload bytes."""
        return digest_bytes(self.canonical_bytes())


# -- campaign diffs -----------------------------------------------------------


def _class_verdict(outcome: str, delta: float, low: float,
                   high: float, margin: float) -> str:
    significant = (low > 0.0 or high < 0.0) and abs(delta) > margin
    if not significant:
        return "unchanged"
    worse = delta < 0.0 if outcome in GOOD_OUTCOMES else delta > 0.0
    return "regressed" if worse else "improved"


class CampaignDiff:
    """Significance-tested comparison of two campaign summaries.

    The per-class verdict is ``regressed``/``improved`` only when the
    *confidence* Newcombe interval on the rate delta excludes zero
    **and** the delta exceeds *margin* (so a statistically-real but
    operationally-irrelevant shift stays ``unchanged``); the overall
    verdict is the worst per-class one.  :attr:`payload` is
    byte-deterministic for the same two summaries.
    """

    def __init__(self, base: CampaignSummary, head: CampaignSummary,
                 confidence: float = 0.95,
                 margin: float = 0.02) -> None:
        if not 0.5 < confidence < 1.0:
            raise ValueError("confidence must be in (0.5, 1.0)")
        if not 0.0 <= margin < 1.0:
            raise ValueError("margin must be in [0, 1)")
        self.base = base
        self.head = head
        self.confidence = confidence
        self.margin = margin
        self.payload = self._build()

    # -- assembly -------------------------------------------------------------

    def _side(self, summary: CampaignSummary) -> dict:
        payload = summary.payload
        return {"name": payload.get("name") or "",
                "spec": payload.get("spec"),
                "experiments": payload["experiments"]}

    def _outcome_rows(self) -> dict[str, dict]:
        base, head = self.base.payload, self.head.payload
        base_n, head_n = base["experiments"], head["experiments"]
        rows = {}
        names = set(base.get("outcomes", {})) \
            | set(head.get("outcomes", {}))
        for outcome in sorted(names):
            b = base["outcomes"].get(outcome, {})
            h = head["outcomes"].get(outcome, {})
            delta, low, high = newcombe_interval(
                b.get("count", 0), base_n, h.get("count", 0), head_n,
                confidence=self.confidence)
            verdict = _class_verdict(outcome, delta, low, high,
                                     self.margin)
            rows[outcome] = {
                "base_rate": _round(b.get("rate", 0.0)),
                "head_rate": _round(h.get("rate", 0.0)),
                "delta": _round(delta),
                "ci_low": _round(low),
                "ci_high": _round(high),
                "significant": low > 0.0 or high < 0.0,
                "verdict": verdict,
            }
        return rows

    def _heatmap_rows(self) -> dict[str, dict]:
        base = self.base.payload.get("coverage") or {}
        head = self.head.payload.get("coverage") or {}
        base_maps = base.get("heatmaps") or {}
        head_maps = head.get("heatmaps") or {}
        out = {}
        for dimension in DIMENSIONS:
            base_cells = {cell["label"]: cell for cell in
                          (base_maps.get(dimension) or {})
                          .get("cells", [])}
            head_cells = {cell["label"]: cell for cell in
                          (head_maps.get(dimension) or {})
                          .get("cells", [])}
            # Base cell order first (it is already canonically
            # sorted), then head-only labels — deterministic.
            labels = [label for label in base_cells
                      if label in head_cells]
            cells = []
            for label in labels:
                b_cell, h_cell = base_cells[label], head_cells[label]
                outcomes = {}
                names = set(b_cell["outcomes"]) \
                    | set(h_cell["outcomes"])
                for outcome in sorted(names):
                    b = b_cell["outcomes"].get(outcome, {})
                    h = h_cell["outcomes"].get(outcome, {})
                    delta, low, high = newcombe_interval(
                        b.get("count", 0), b_cell["n"],
                        h.get("count", 0), h_cell["n"],
                        confidence=self.confidence)
                    outcomes[outcome] = {
                        "base_rate": _round(b.get("rate", 0.0)),
                        "head_rate": _round(h.get("rate", 0.0)),
                        "delta": _round(delta),
                        "ci_low": _round(low),
                        "ci_high": _round(high),
                        "significant": low > 0.0 or high < 0.0,
                    }
                cells.append({"label": label, "outcomes": outcomes})
            out[dimension] = {
                "title": DIMENSION_TITLES[dimension],
                "cells": cells,
                "only_base": sorted(set(base_cells)
                                    - set(head_cells)),
                "only_head": sorted(set(head_cells)
                                    - set(base_cells)),
            }
        return out

    def _latency_rows(self) -> dict:
        base = self.base.payload.get("latency") or {}
        head = self.head.payload.get("latency") or {}
        base_hist = base.get("histogram") or []
        head_hist = head.get("histogram") or []
        rows = []
        for index in range(max(len(base_hist), len(head_hist))):
            base_row = base_hist[index] if index < len(base_hist) \
                else None
            head_row = head_hist[index] if index < len(head_hist) \
                else None
            label = (head_row or base_row)[0]
            b = base_row[1] if base_row else 0
            h = head_row[1] if head_row else 0
            rows.append([label, b, h, h - b])
        return {"base_divergences": base.get("divergences", 0),
                "head_divergences": head.get("divergences", 0),
                "rows": rows}

    def _host_rows(self) -> dict | None:
        base = self.base.payload.get("host")
        head = self.head.payload.get("host")
        if not base or not head:
            return None
        out = {"base_wall_seconds": base.get("wall_seconds"),
               "head_wall_seconds": head.get("wall_seconds")}
        if "kips" in base and "kips" in head:
            out["base_kips"] = base["kips"]
            out["head_kips"] = head["kips"]
            out["delta_kips"] = _round(head["kips"]
                                       - base["kips"])
        return out

    def _build(self) -> dict:
        outcomes = self._outcome_rows()
        verdicts = [row["verdict"] for row in outcomes.values()]
        if "regressed" in verdicts:
            overall = "regressed"
        elif "improved" in verdicts:
            overall = "improved"
        else:
            overall = "unchanged"
        base_spec = self.base.payload.get("spec")
        head_spec = self.head.payload.get("spec")
        return {
            "schema": DIFF_SCHEMA,
            "config": {"confidence": self.confidence,
                       "margin": self.margin},
            "base": self._side(self.base),
            "head": self._side(self.head),
            "spec_match": base_spec == head_spec,
            "outcomes": outcomes,
            "verdict": overall,
            "heatmaps": self._heatmap_rows(),
            "latency": self._latency_rows(),
            "host": self._host_rows(),
        }

    # -- views ----------------------------------------------------------------

    @property
    def verdict(self) -> str:
        return self.payload["verdict"]

    @property
    def regressed(self) -> bool:
        return self.verdict == "regressed"

    def canonical_bytes(self) -> bytes:
        return canonical_json_bytes(self.payload)


# -- rendering ----------------------------------------------------------------


def _pct(value: float) -> str:
    return f"{value * 100:.1f}%"


def _signed_pct(value: float) -> str:
    return f"{value * 100:+.1f}%"


def _verdict_line(payload: dict) -> str:
    config = payload["config"]
    verdicts = [row["verdict"]
                for row in payload["outcomes"].values()]
    return (f"verdict: {payload['verdict']} at "
            f"{config['confidence'] * 100:g}% confidence, margin "
            f"+-{config['margin'] * 100:g}% "
            f"({verdicts.count('regressed')} regressed, "
            f"{verdicts.count('improved')} improved, "
            f"{verdicts.count('unchanged')} unchanged)")


def _sides_line(payload: dict) -> str:
    base, head = payload["base"], payload["head"]
    line = (f"base {base['name'] or '?'} ({base['experiments']} "
            f"experiments) vs head {head['name'] or '?'} "
            f"({head['experiments']} experiments)")
    if not payload["spec_match"]:
        line += "; specs differ"
    return line


def diff_report_tables(payload: dict
                       ) -> tuple[list[str],
                                  list[tuple[str, list, list]]]:
    """The diff view as structure: (prose lines, [(caption, header,
    rows)]), rendered by the ``repro.telemetry.report`` renderers for
    ``gemfi compare`` and the report's "Vs baseline" section."""
    prose = [_sides_line(payload) + ".", _verdict_line(payload) + "."]
    tables: list[tuple[str, list, list]] = []
    rows = []
    confidence = payload["config"]["confidence"]
    outcomes = payload["outcomes"]
    for outcome in outcome_columns(outcomes):
        row = outcomes[outcome]
        rows.append([
            outcome, _pct(row["base_rate"]), _pct(row["head_rate"]),
            _signed_pct(row["delta"]),
            f"[{_signed_pct(row['ci_low'])}, "
            f"{_signed_pct(row['ci_high'])}]",
            row["verdict"]])
    tables.append((f"Outcome deltas ({confidence * 100:g}% Newcombe "
                   f"intervals)",
                   ["outcome", "base", "head", "delta", "interval",
                    "verdict"], rows))
    latency = payload.get("latency") or {}
    if latency.get("rows"):
        tables.append(
            ("Divergence-latency shift (ticks)",
             ["bucket", "base", "head", "delta"],
             [[label, b, h, f"{d:+d}"]
              for label, b, h, d in latency["rows"]]))
    host = payload.get("host")
    if host and "base_kips" in host:
        tables.append(
            ("Host time",
             ["metric", "base", "head"],
             [["wall total (s)", f"{host['base_wall_seconds']:.3f}",
               f"{host['head_wall_seconds']:.3f}"],
              ["campaign KIPS", f"{host['base_kips']:.1f}",
               f"{host['head_kips']:.1f}"]]))
    for dimension in DIMENSIONS:
        heatmap = payload["heatmaps"].get(dimension)
        if not heatmap or not heatmap["cells"]:
            continue
        cells = heatmap["cells"]
        names = outcome_columns(
            {o for cell in cells for o in cell["outcomes"]})
        rows = []
        for cell in cells:
            row = [cell["label"]]
            for outcome in names:
                entry = cell["outcomes"].get(outcome)
                row.append("-" if entry is None else
                           f"{_signed_pct(entry['delta'])} "
                           f"[{_signed_pct(entry['ci_low'])}, "
                           f"{_signed_pct(entry['ci_high'])}]")
            rows.append(row)
        title = f"Rate deltas by {heatmap['title']}"
        extra = []
        if heatmap["only_base"]:
            extra.append("base only: "
                         + ", ".join(heatmap["only_base"]))
        if heatmap["only_head"]:
            extra.append("head only: "
                         + ", ".join(heatmap["only_head"]))
        if extra:
            title += f" ({'; '.join(extra)})"
        tables.append((title, ["cell"] + names, rows))
    return prose, tables


# -- SVG ----------------------------------------------------------------------

_NEGATIVE_COLOR = (42, 111, 181)   # rate went down: blue
_POSITIVE_COLOR = (192, 57, 43)    # rate went up: red


def _diverging(delta: float) -> str:
    """White at zero, toward blue for negative deltas and red for
    positive ones — saturating at |delta| = 1."""
    anchor = _POSITIVE_COLOR if delta >= 0 else _NEGATIVE_COLOR
    mix = min(1.0, abs(delta))
    rgb = tuple(round(255 + (channel - 255) * mix)
                for channel in anchor)
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def render_diff_svg(payload: dict, dimension: str,
                    width: int = 720) -> str:
    """One dimension's delta heatmap as a self-contained SVG grid:
    one row per cell, one column per outcome, diverging fill
    (blue = rate down, red = rate up), a ``<title>`` tooltip with the
    Newcombe interval on every box.  Deterministic: same payload,
    same bytes."""
    heatmap = payload["heatmaps"][dimension]
    cells = heatmap["cells"]
    outcomes = outcome_columns(
        {o for cell in cells for o in cell["outcomes"]})
    gutter, box_h, header_h = 150, 18, 16
    columns = max(1, len(outcomes))
    box_w = max(24, (width - gutter - 10) // columns)
    height = header_h + max(1, len(cells)) * box_h + 8
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{width}" height="{height}" '
           f'font-family="monospace" font-size="10">',
           f'<rect width="{width}" height="{height}" '
           f'fill="#ffffff"/>',
           f'<text x="4" y="11" fill="#333" font-weight="bold">'
           f'&#916; {_xml(heatmap["title"])}</text>']
    for column, outcome in enumerate(outcomes):
        x = gutter + column * box_w
        out.append(f'<text x="{x + 2}" y="11" fill="#555">'
                   f'{_xml(outcome[:12])}</text>')
    if not cells:
        out.append(f'<text x="{gutter}" y="{header_h + 12}" '
                   f'fill="#999">no shared cells</text>')
    for row, cell in enumerate(cells):
        y = header_h + row * box_h
        out.append(f'<text x="4" y="{y + 13}" fill="#333">'
                   f'{_xml(str(cell["label"])[:20])}</text>')
        for column, outcome in enumerate(outcomes):
            x = gutter + column * box_w
            entry = cell["outcomes"].get(outcome)
            if entry is None:
                fill = "#f4f4f4"
                tip = f'{cell["label"]} {outcome}: no samples'
            else:
                fill = _diverging(entry["delta"])
                tip = (f'{cell["label"]} {outcome}: '
                       f'{_pct(entry["base_rate"])} -> '
                       f'{_pct(entry["head_rate"])} '
                       f'({_signed_pct(entry["delta"])}, '
                       f'[{_signed_pct(entry["ci_low"])},'
                       f'{_signed_pct(entry["ci_high"])}]'
                       + (", significant)" if entry["significant"]
                          else ")"))
            out.append(
                f'<rect x="{x}" y="{y + 1}" width="{box_w - 2}" '
                f'height="{box_h - 3}" fill="{fill}" '
                f'stroke="#dddddd"><title>{_xml(tip)}</title></rect>')
            if entry is not None:
                luma = 1.0 - 0.75 * min(1.0, abs(entry["delta"]))
                color = "#1c2733" if luma > 0.55 else "#ffffff"
                out.append(
                    f'<text x="{x + 3}" y="{y + 13}" '
                    f'fill="{color}">'
                    f'{_signed_pct(entry["delta"])}</text>')
    out.append("</svg>")
    return "".join(out)


def render_diff_bars(payload: dict, width: int = 720) -> str:
    """Side-by-side outcome bars: for each outcome class, the base
    and head rates as paired horizontal bars with the verdict badge —
    the console's at-a-glance view of a comparison."""
    from .coverage import OUTCOME_COLORS, _DEFAULT_COLOR
    outcomes = payload["outcomes"]
    names = outcome_columns(outcomes)
    gutter, bar_h, pair_h, header_h = 150, 9, 26, 16
    span = max(1, width - gutter - 120)
    height = header_h + max(1, len(names)) * pair_h + 8
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{width}" height="{height}" '
           f'font-family="monospace" font-size="10">',
           f'<rect width="{width}" height="{height}" '
           f'fill="#ffffff"/>',
           f'<text x="4" y="11" fill="#333" font-weight="bold">'
           f'outcome rates: base (grey) vs head (colour)</text>']
    for index, outcome in enumerate(names):
        row = outcomes[outcome]
        y = header_h + index * pair_h
        red, green, blue = OUTCOME_COLORS.get(outcome,
                                              _DEFAULT_COLOR)
        out.append(f'<text x="4" y="{y + 13}" fill="#333">'
                   f'{_xml(outcome[:18])}</text>')
        base_w = round(row["base_rate"] * span)
        head_w = round(row["head_rate"] * span)
        tip = (f'{outcome}: {_pct(row["base_rate"])} -> '
               f'{_pct(row["head_rate"])} '
               f'({_signed_pct(row["delta"])}) {row["verdict"]}')
        out.append(
            f'<rect x="{gutter}" y="{y + 2}" width="{max(1, base_w)}"'
            f' height="{bar_h}" fill="#aab4bd">'
            f'<title>{_xml(tip)}</title></rect>')
        out.append(
            f'<rect x="{gutter}" y="{y + 3 + bar_h}" '
            f'width="{max(1, head_w)}" height="{bar_h}" '
            f'fill="rgb({red},{green},{blue})">'
            f'<title>{_xml(tip)}</title></rect>')
        out.append(
            f'<text x="{gutter + max(base_w, head_w) + 6}" '
            f'y="{y + 15}" fill="#555">'
            f'{_signed_pct(row["delta"])} {row["verdict"]}</text>')
    out.append("</svg>")
    return "".join(out)
