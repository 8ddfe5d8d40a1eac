"""Fault-space coverage analytics over campaign result streams.

ZOFI frames fault-injection evaluation as *coverage analysis* over the
injection space; this module is that lens for the GemFI reproduction.
A :class:`FaultSpaceMap` enumerates the campaign's fault space from the
generator configuration — sites x cycle-windows x bit positions, the
exact population :meth:`~repro.campaign.generator.SEUGenerator.
fault_space_size` feeds to the Leveugle sample-size formula — and
accounts every experiment result into it:

* **space accounting** — how many distinct fault sites the campaign has
  actually visited, per location and overall, never exceeding the
  enumerated space (each record visits exactly its own site);
* **outcome heatmaps** — per-dimension outcome counts (fault location,
  bit position, injection-cycle decile, destination register, PC
  region), each cell carrying a Wilson score interval on its count of
  records;
* **convergence tracking** — running outcome-rate estimates with CI
  half-widths and a "margin reached at +-X%" indicator, the
  observability groundwork for sequential-stopping campaigns.

Everything here is **read-only** over existing result streams and
**byte-deterministic**: :meth:`FaultSpaceMap.as_dict` contains no
timestamps, host times or absolute paths, iterates in sorted order and
rounds every float, so ``gemfi coverage --json`` for the same share is
byte-identical across reruns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..campaign.generator import DEFAULT_LOCATIONS, LOCATION_WIDTHS
from ..campaign.sampling import proportion_confidence_interval
from ..core.fault import Fault, LocationKind
from ..telemetry.campaign import (
    LOCATION_LABELS,
    first_fault,
    outcome_columns,
    read_results,
)

#: white-to-colour ramp anchors for the SVG heatmaps, per outcome.
OUTCOME_COLORS = {
    "crashed": (192, 57, 43),
    "non_propagated": (127, 140, 141),
    "strictly_correct": (39, 174, 96),
    "correct": (46, 139, 87),
    "sdc": (142, 68, 173),
}
_DEFAULT_COLOR = (42, 111, 181)

DIMENSIONS = ("location", "bit", "time_decile", "register", "pc_region")

DIMENSION_TITLES = {
    "location": "fault location",
    "bit": "bit position",
    "time_decile": "injection-cycle decile",
    "register": "destination register",
    "pc_region": "PC region",
}


def _space_terms(locations=None):
    """(location, slots-per-time-unit multiplier, width) terms of the
    fault-space product, from the generator's tables so the two can
    never disagree."""
    locations = tuple(locations) if locations else DEFAULT_LOCATIONS
    terms = []
    for location in locations:
        width = LOCATION_WIDTHS[location]
        multiplier = 32 if location in (LocationKind.INT_REG,
                                        LocationKind.FP_REG) else 1
        terms.append((location, multiplier, width))
    return terms


def _round(value: float, digits: int = 6) -> float:
    return round(float(value), digits)


# -- per-cell accumulation ----------------------------------------------------


@dataclass
class CoverageCell:
    """Outcome counts of one heatmap cell."""

    n: int = 0
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, outcome: str) -> None:
        self.n += 1
        self.counts[outcome] = self.counts.get(outcome, 0) + 1

    def interval(self, outcome: str, confidence: float
                 ) -> tuple[float, float, float]:
        """(rate, ci_low, ci_high) of *outcome* in this cell."""
        count = self.counts.get(outcome, 0)
        low, high = proportion_confidence_interval(
            count, self.n, confidence=confidence)
        rate = count / self.n if self.n else 0.0
        return rate, low, high

    def as_dict(self, confidence: float) -> dict:
        outcomes = {}
        for outcome in outcome_columns(self.counts):
            rate, low, high = self.interval(outcome, confidence)
            outcomes[outcome] = {
                "count": self.counts[outcome], "rate": _round(rate),
                "ci_low": _round(low), "ci_high": _round(high),
            }
        return {"n": self.n, "outcomes": outcomes}


# -- convergence --------------------------------------------------------------


class ConvergenceTracker:
    """Running outcome-rate estimates with Wilson half-widths.

    Feed results in campaign order; after each one the tracker knows
    the rate of every outcome seen so far, the widest current CI
    half-width, and — once every half-width has shrunk to *margin* —
    the experiment index at which the campaign's target precision was
    reached (the "2501 experiments for 99% +-1%" criterion of the
    paper, observed live instead of sized up front)."""

    def __init__(self, confidence: float = 0.99,
                 margin: float = 0.01) -> None:
        self.confidence = confidence
        self.margin = margin
        self.tally = CoverageCell()
        self.margin_reached_at: int | None = None
        # (experiment index, max half-width) after every add.
        self.history: list[tuple[int, float]] = []

    @property
    def experiments(self) -> int:
        return self.tally.n

    def add(self, outcome: str) -> None:
        self.tally.add(outcome)
        half = self.max_half_width()
        self.history.append((self.tally.n, half))
        if self.margin_reached_at is None and half <= self.margin:
            self.margin_reached_at = self.tally.n

    def interval(self, outcome: str) -> tuple[float, float, float]:
        """(rate, ci_low, ci_high) of *outcome* right now."""
        return self.tally.interval(outcome, self.confidence)

    def half_width(self, outcome: str) -> float:
        rate, low, high = self.interval(outcome)
        del rate
        return (high - low) / 2.0

    def max_half_width(self) -> float:
        """The widest per-outcome half-width — the campaign has
        converged only when its least certain rate has."""
        if not self.tally.counts:
            return 1.0
        return max(self.half_width(outcome)
                   for outcome in self.tally.counts)

    def as_dict(self, history_points: int = 32) -> dict:
        rates = {}
        for outcome in outcome_columns(self.tally.counts):
            rate, low, high = self.interval(outcome)
            rates[outcome] = {
                "rate": _round(rate), "ci_low": _round(low),
                "ci_high": _round(high),
                "half_width": _round((high - low) / 2.0),
            }
        return {
            "experiments": self.experiments,
            "confidence": self.confidence,
            "margin": self.margin,
            "max_half_width": _round(self.max_half_width()),
            "margin_reached": self.margin_reached_at is not None,
            "margin_reached_at": self.margin_reached_at,
            "rates": rates,
            "history": [[n, _round(half)] for n, half
                        in _downsample(self.history, history_points)],
        }


def _downsample(points: list, limit: int) -> list:
    """At most *limit* points, always keeping the last one (the
    current state) — deterministic even stride, no interpolation."""
    if limit <= 0 or len(points) <= limit:
        return list(points)
    stride = (len(points) - 1) / (limit - 1)
    picked = [points[round(i * stride)] for i in range(limit - 1)]
    return picked + [points[-1]]


# -- the map ------------------------------------------------------------------


class FaultSpaceMap:
    """Enumerates a campaign's fault space and accounts results into it.

    *window* is the FI window's committed-instruction count (a
    :class:`~repro.campaign.generator.WindowProfile`, or the bare int,
    or None when unknown — a hand-built share with no golden profile);
    the enumerated total then exactly matches
    ``SEUGenerator.fault_space_size()`` for the same profile and
    *locations*.  :meth:`account` takes
    :class:`~repro.campaign.runner.ExperimentResult` objects or the
    result dicts workers write to the share, in campaign order.
    """

    def __init__(self, window=None, locations=None,
                 confidence: float = 0.99, margin: float = 0.01,
                 time_bins: int = 10, pc_regions: int = 8) -> None:
        if window is not None and not isinstance(window, int):
            window = int(getattr(window, "committed", window))
        self.window = window
        self._locations = tuple(locations) if locations else None
        self.confidence = confidence
        self.time_bins = max(1, time_bins)
        self.pc_regions = max(1, pc_regions)
        self.tracker = ConvergenceTracker(confidence=confidence,
                                          margin=margin)
        self.accounted = 0
        self.executed = 0
        self.predicted = 0
        self._sites: set[tuple] = set()
        self._sites_by_location: dict[str, set] = {}
        self._cells: dict[str, dict] = {dim: {} for dim in
                                        ("location", "bit",
                                         "time_decile", "register")}
        # (pc, outcome) samples; PC regions need the global extent, so
        # their cells are bucketed at render time.
        self._pc_samples: list[tuple[int, str]] = []

    # -- the enumerated space --------------------------------------------------

    def locations(self) -> tuple:
        if self._locations is not None:
            return self._locations
        return DEFAULT_LOCATIONS

    def space_per_location(self) -> dict[str, int] | None:
        """Enumerated site count per location, or None when the FI
        window length is unknown."""
        if self.window is None:
            return None
        slots = max(1, self.window)
        return {LOCATION_LABELS[location]: slots * multiplier * width
                for location, multiplier, width
                in _space_terms(self.locations())}

    def total_space_size(self) -> int | None:
        """|Location| x |time| x |bit| — must agree exactly with
        ``SEUGenerator.fault_space_size()``."""
        per_location = self.space_per_location()
        if per_location is None:
            return None
        return sum(per_location.values())

    # -- accounting ------------------------------------------------------------

    def account(self, result) -> bool:
        """Fold one experiment result into the map.  Returns False (and
        counts the experiment, so totals still reconcile) when the
        record carries no parseable fault."""
        entry = self._normalise(result)
        self.accounted += 1
        outcome = entry["outcome"]
        if entry["predicted"]:
            self.predicted += 1
        else:
            self.executed += 1
        self.tracker.add(outcome)
        fault = entry["fault"]
        if fault is None:
            return False
        location = fault.location
        label = LOCATION_LABELS.get(location, location.name.lower())
        bit = fault.behavior.bits[0] if fault.behavior.bits else None
        register = fault.reg_index if location in (
            LocationKind.INT_REG, LocationKind.FP_REG) else None
        # One result visits exactly its own site, keeping covered <=
        # space.
        site = (location.name, fault.time, bit, register or 0)
        self._sites.add(site)
        self._sites_by_location.setdefault(label, set()).add(site)
        self._cell("location", label).add(outcome)
        if bit is not None:
            self._cell("bit", bit).add(outcome)
        fraction = entry["time_fraction"]
        if fraction is not None:
            decile = min(self.time_bins - 1,
                         max(0, int(fraction * self.time_bins)))
            self._cell("time_decile", decile).add(outcome)
        if register is not None:
            self._cell("register", register).add(outcome)
        pc = entry["pc"]
        if pc is not None:
            self._pc_samples.append((pc, outcome))
        return True

    def account_all(self, results) -> int:
        count = 0
        for result in results:
            self.account(result)
            count += 1
        return count

    def _cell(self, dimension: str, key) -> CoverageCell:
        cells = self._cells[dimension]
        if key not in cells:
            cells[key] = CoverageCell()
        return cells[key]

    @staticmethod
    def _normalise(result) -> dict:
        if isinstance(result, dict):
            fault = first_fault(result)
            fraction = result.get("time_fraction")
            pc = result.get("injection_pc")
            return {
                "fault": fault,
                "outcome": result.get("outcome", "unknown"),
                "predicted": bool(result.get("predicted")),
                "time_fraction": float(fraction)
                if isinstance(fraction, (int, float)) else None,
                "pc": int(pc) if isinstance(pc, int) else None,
            }
        fault = result.fault
        outcome = getattr(result.outcome, "value", result.outcome)
        pc = getattr(result, "injection_pc", None)
        return {
            "fault": fault if isinstance(fault, Fault) else None,
            "outcome": outcome,
            "predicted": bool(getattr(result, "predicted", False)),
            "time_fraction": getattr(result, "time_fraction", None),
            "pc": int(pc) if isinstance(pc, int) else None,
        }

    # -- views -----------------------------------------------------------------

    def covered_sites(self) -> int:
        total = self.total_space_size()
        covered = len(self._sites)
        return covered if total is None else min(covered, total)

    def _cell_label(self, dimension: str, key) -> str:
        if dimension == "location":
            return str(key)
        if dimension == "bit":
            return f"bit {key}"
        if dimension == "register":
            return f"r{key}"
        if dimension == "time_decile":
            low = key / self.time_bins
            high = (key + 1) / self.time_bins
            return f"t in [{low:.1f},{high:.1f})"
        return str(key)

    def _pc_cells(self) -> list[tuple[str, CoverageCell]]:
        if not self._pc_samples:
            return []
        pcs = [pc for pc, _ in self._pc_samples]
        low, high = min(pcs), max(pcs)
        span = max(1, high - low + 1)
        size = max(1, -(-span // self.pc_regions))  # ceil division
        cells: dict[int, CoverageCell] = {}
        for pc, outcome in self._pc_samples:
            index = min(self.pc_regions - 1, (pc - low) // size)
            cells.setdefault(index, CoverageCell()).add(outcome)
        out = []
        for index in sorted(cells):
            lo = low + index * size
            hi = min(high, lo + size - 1)
            out.append((f"{lo:#x}-{hi:#x}", cells[index]))
        return out

    def heatmap(self, dimension: str) -> list[tuple[str, CoverageCell]]:
        """Sorted (label, cell) rows of one dimension's heatmap."""
        if dimension == "pc_region":
            return self._pc_cells()
        if dimension == "location":
            order = [LOCATION_LABELS[location]
                     for location in sorted(LOCATION_LABELS,
                                            key=lambda k: k.value)]
            cells = self._cells["location"]
            keys = [label for label in order if label in cells]
            keys += sorted(set(cells) - set(keys))
            return [(key, cells[key]) for key in keys]
        cells = self._cells[dimension]
        return [(self._cell_label(dimension, key), cells[key])
                for key in sorted(cells)]

    def as_dict(self) -> dict:
        total = self.total_space_size()
        covered = self.covered_sites()
        per_location = self.space_per_location()
        space_rows = {}
        for label in sorted(self._sites_by_location):
            sites = len(self._sites_by_location[label])
            row = {"covered": sites}
            if per_location and label in per_location:
                size = per_location[label]
                row["covered"] = min(sites, size)
                row["size"] = size
                row["fraction"] = _round(row["covered"] / size, 8)
            space_rows[label] = row
        heatmaps = {}
        for dimension in DIMENSIONS:
            heatmaps[dimension] = {
                "title": DIMENSION_TITLES[dimension],
                "cells": [dict(label=label,
                               **cell.as_dict(self.confidence))
                          for label, cell in self.heatmap(dimension)],
            }
        return {
            "config": {
                "confidence": self.confidence,
                "margin": self.tracker.margin,
                "time_bins": self.time_bins,
                "pc_regions": self.pc_regions,
                "window": self.window,
            },
            "space": {
                "total": total,
                "covered_sites": covered,
                "covered_fraction":
                    _round(covered / total, 8) if total else None,
                "per_location": space_rows,
            },
            "accounted": {
                "experiments": self.accounted,
                "executed": self.executed,
                "predicted": self.predicted,
            },
            "convergence": self.tracker.as_dict(),
            "heatmaps": heatmaps,
        }


# -- share loading ------------------------------------------------------------


def _window_from_share(share_dir: str, records: list[dict]
                       ) -> int | None:
    """The FI window's committed-instruction count: from the golden
    profile the coordinator publishes (``golden.pkl``), else inferred
    from the share's result *records* (``time_fraction = time /
    window`` inverts exactly for any result injected strictly inside
    the window), else None."""
    path = os.path.join(share_dir, "golden.pkl")
    if os.path.exists(path):
        import pickle
        try:
            with open(path, "rb") as handle:
                golden = pickle.load(handle)
            committed = int(golden.profile.committed)
            if committed > 0:
                return committed
        except Exception:  # noqa: BLE001 - any unreadable pickle
            pass
    candidates = []
    for entry in records:
        fraction = entry.get("time_fraction")
        if not isinstance(fraction, (int, float)) or not \
                0 < fraction < 1:
            continue
        fault = first_fault(entry)
        if fault is not None:
            candidates.append(round(fault.time / fraction))
    return max(candidates) if candidates else None


def coverage_from_share(share_dir: str, confidence: float = 0.99,
                        margin: float = 0.01, time_bins: int = 10,
                        pc_regions: int = 8,
                        results=None) -> FaultSpaceMap:
    """Build a :class:`FaultSpaceMap` from a share directory's results
    (*results* when the caller already read them with
    :func:`~repro.telemetry.campaign.read_results`).  Read-only:
    nothing on the share is written or touched."""
    if results is None:
        results = read_results(share_dir)
    records = [result.record for result in results]
    space = FaultSpaceMap(window=_window_from_share(share_dir, records),
                          confidence=confidence, margin=margin,
                          time_bins=time_bins, pc_regions=pc_regions)
    space.account_all(records)
    return space


def coverage_summary(payload: dict) -> dict:
    """The status-frame view of a coverage payload: everything except
    the (bulky) heatmaps and convergence history."""
    convergence = dict(payload["convergence"])
    convergence.pop("history", None)
    return {"space": payload["space"],
            "accounted": payload["accounted"],
            "convergence": convergence}


# -- rendering ----------------------------------------------------------------


def _fmt_pct(value: float) -> str:
    return f"{value * 100:.1f}%"


def _convergence_line(payload: dict) -> str:
    convergence = payload["convergence"]
    margin = convergence["margin"]
    confidence = convergence["confidence"]
    if convergence["margin_reached"]:
        return (f"margin +-{margin * 100:g}% at "
                f"{confidence * 100:g}% confidence: reached after "
                f"{convergence['margin_reached_at']} experiments")
    return (f"margin +-{margin * 100:g}% at {confidence * 100:g}% "
            f"confidence: not reached (max half-width "
            f"+-{_fmt_pct(convergence['max_half_width'])})")


def _space_line(payload: dict) -> str:
    space = payload["space"]
    accounted = payload["accounted"]
    covered = space["covered_sites"]
    if space["total"] is not None:
        head = (f"{covered}/{space['total']} fault sites visited "
                f"({space['covered_fraction'] * 100:.4g}%)")
    else:
        head = f"{covered} distinct fault sites visited " \
               f"(space size unknown)"
    return (f"{head}; {accounted['experiments']} experiments "
            f"({accounted['executed']} executed, "
            f"{accounted['predicted']} predicted)")


def heatmap_table(payload: dict, dimension: str) -> tuple:
    """One dimension's heatmap as a ``(caption, header, rows)`` table:
    rate and Wilson interval per outcome per cell."""
    heatmap = payload["heatmaps"][dimension]
    cells = heatmap["cells"]
    outcomes = outcome_columns(
        {o for cell in cells for o in cell["outcomes"]})
    rows = []
    for cell in cells:
        row = [cell["label"], cell["n"]]
        for outcome in outcomes:
            entry = cell["outcomes"].get(outcome)
            row.append("-" if entry is None else
                       f"{_fmt_pct(entry['rate'])} "
                       f"[{_fmt_pct(entry['ci_low'])}, "
                       f"{_fmt_pct(entry['ci_high'])}]")
        rows.append(row)
    return (f"Outcomes by {heatmap['title']}",
            ["cell", "n"] + outcomes, rows)


def coverage_report_tables(payload: dict
                           ) -> tuple[list[str],
                                      list[tuple[str, list, list]]]:
    """The coverage view as structure: (prose lines, [(caption,
    header, rows)...]), rendered by the ``repro.telemetry.report``
    renderers for ``gemfi coverage`` and the report's coverage
    section."""
    prose = [_space_line(payload) + ".", _convergence_line(payload)
             + "."]
    tables: list[tuple[str, list, list]] = []
    space_rows = payload["space"]["per_location"]
    if space_rows:
        rows = []
        for label in sorted(space_rows):
            row = space_rows[label]
            rows.append([
                label, row.get("size", "?"), row["covered"],
                f"{row['fraction'] * 100:.4g}%"
                if "fraction" in row else "?"])
        tables.append(("Space visited by location",
                       ["location", "space", "visited", "fraction"],
                       rows))
    rates = payload["convergence"]["rates"]
    if rates:
        confidence = payload["convergence"]["confidence"]
        rows = [[outcome, _fmt_pct(row["rate"]),
                 f"[{_fmt_pct(row['ci_low'])}, "
                 f"{_fmt_pct(row['ci_high'])}]",
                 f"+-{_fmt_pct(row['half_width'])}"]
                for outcome, row in
                ((o, rates[o]) for o in outcome_columns(rates))]
        tables.append((f"Outcome rates ({confidence * 100:g}% "
                       f"Wilson intervals)",
                       ["outcome", "rate", "interval", "half-width"],
                       rows))
    tables += [heatmap_table(payload, dimension)
               for dimension in DIMENSIONS
               if payload["heatmaps"][dimension]["cells"]]
    return prose, tables


# -- SVG heatmaps -------------------------------------------------------------


def _xml(text) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _ramp(outcome: str, rate: float) -> str:
    red, green, blue = OUTCOME_COLORS.get(outcome, _DEFAULT_COLOR)
    rate = min(1.0, max(0.0, rate))
    mix = tuple(round(255 + (channel - 255) * rate)
                for channel in (red, green, blue))
    return f"rgb({mix[0]},{mix[1]},{mix[2]})"


def render_coverage_svg(payload: dict, dimension: str,
                        width: int = 720) -> str:
    """One dimension's heatmap as a self-contained SVG grid: one row
    per cell, one column per outcome, fill intensity = outcome rate,
    a ``<title>`` tooltip with the Wilson interval on every box.
    Deterministic: same payload, same bytes."""
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
           f'{_xml(heatmap["title"])}</text>']
    for column, outcome in enumerate(outcomes):
        x = gutter + column * box_w
        out.append(f'<text x="{x + 2}" y="11" fill="#555">'
                   f'{_xml(outcome[:12])}</text>')
    if not cells:
        out.append(f'<text x="{gutter}" y="{header_h + 12}" '
                   f'fill="#999">no samples</text>')
    for row, cell in enumerate(cells):
        y = header_h + row * box_h
        out.append(f'<text x="4" y="{y + 13}" fill="#333">'
                   f'{_xml(str(cell["label"])[:20])}</text>')
        for column, outcome in enumerate(outcomes):
            x = gutter + column * box_w
            entry = cell["outcomes"].get(outcome)
            if entry is None:
                fill, tip = "#f4f4f4", (f'{cell["label"]} {outcome}: '
                                        f'no samples')
            else:
                fill = _ramp(outcome, entry["rate"])
                tip = (f'{cell["label"]} {outcome}: '
                       f'{_fmt_pct(entry["rate"])} '
                       f'[{_fmt_pct(entry["ci_low"])},'
                       f'{_fmt_pct(entry["ci_high"])}] '
                       f'n={cell["n"]}')
            out.append(
                f'<rect x="{x}" y="{y + 1}" width="{box_w - 2}" '
                f'height="{box_h - 3}" fill="{fill}" '
                f'stroke="#dddddd"><title>{_xml(tip)}</title></rect>')
            if entry is not None:
                luma = 1.0 - 0.75 * min(1.0, entry["rate"])
                color = "#1c2733" if luma > 0.55 else "#ffffff"
                out.append(
                    f'<text x="{x + 3}" y="{y + 13}" '
                    f'fill="{color}">'
                    f'{_fmt_pct(entry["rate"])}</text>')
    out.append("</svg>")
    return "".join(out)
