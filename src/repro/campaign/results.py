"""Aggregation of campaign results into the paper's tables and figures.

Fig. 5 is a per-location outcome breakdown, Fig. 6 a per-time-bin
breakdown, Table I a per-instruction-field breakdown of fetch-stage
faults.  This module turns lists of :class:`ExperimentResult` into those
distributions and renders them as aligned ASCII tables (the bench
harness prints them next to the paper's numbers).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from ..core.fault import LocationKind
from ..isa.instructions import field_of_fetch_bit
from ..telemetry.campaign import LOCATION_LABELS
from .classify import OUTCOME_ORDER, Outcome
from .runner import ExperimentResult


@dataclass
class Distribution:
    """Outcome counts for one group (a location, a time bin...)."""

    counts: Counter = field(default_factory=Counter)

    def add(self, outcome: Outcome) -> None:
        self.counts[outcome] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, outcome: Outcome) -> float:
        total = self.total
        return self.counts[outcome] / total if total else 0.0

    @property
    def acceptable_fraction(self) -> float:
        return sum(self.fraction(o) for o in OUTCOME_ORDER if o.acceptable)

    def as_dict(self) -> dict[str, float]:
        return {o.value: round(self.fraction(o), 4)
                for o in OUTCOME_ORDER}


def by_location(results: list[ExperimentResult]
                ) -> dict[LocationKind, Distribution]:
    """Fig. 5: outcome distribution per fault location (+ a summary)."""
    groups: dict[LocationKind, Distribution] = defaultdict(Distribution)
    for result in results:
        groups[result.fault.location].add(result.outcome)
    return dict(groups)


def summary(results: list[ExperimentResult]) -> Distribution:
    dist = Distribution()
    for result in results:
        dist.add(result.outcome)
    return dist


def by_time_bins(results: list[ExperimentResult], bins: int = 10
                 ) -> list[Distribution]:
    """Fig. 6: outcome distribution vs normalised injection time."""
    groups = [Distribution() for _ in range(bins)]
    for result in results:
        index = min(bins - 1, int(result.time_fraction * bins))
        groups[index].add(result.outcome)
    return groups


def by_fetch_field(results: list[ExperimentResult]
                   ) -> dict[str, Distribution]:
    """Table I analysis: classify each fetch-stage flip by the
    instruction field its bit landed in, from the injection record of
    the *original* (pre-corruption) word."""
    groups: dict[str, Distribution] = defaultdict(Distribution)
    for result in results:
        if result.fault.location is not LocationKind.FETCH:
            continue
        bits = result.fault.behavior.bits
        if not bits or not result.injected or \
                result.injection_before is None:
            groups["not_injected"].add(result.outcome)
            continue
        field_name = field_of_fetch_bit(result.injection_before,
                                        bits[0]).value
        groups[field_name].add(result.outcome)
    return dict(groups)


def render_table(rows: dict[str, Distribution],
                 title: str = "") -> str:
    """Aligned ASCII table: one row per group, one column per outcome."""
    headers = ["group", "n"] + [o.value for o in OUTCOME_ORDER] + \
        ["acceptable"]
    lines = []
    if title:
        lines.append(title)
    widths = [max(len(headers[0]),
                  *(len(str(k)) for k in rows)) if rows else len(
                      headers[0])]
    widths += [max(6, len(h)) for h in headers[1:]]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for key, dist in rows.items():
        cells = [str(key).ljust(widths[0]),
                 str(dist.total).ljust(widths[1])]
        for outcome, width in zip(OUTCOME_ORDER, widths[2:]):
            cells.append(f"{dist.fraction(outcome):6.1%}".ljust(width))
        cells.append(f"{dist.acceptable_fraction:6.1%}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def render_location_table(results: list[ExperimentResult],
                          title: str = "") -> str:
    rows = {LOCATION_LABELS[loc]: dist
            for loc, dist in sorted(by_location(results).items(),
                                    key=lambda kv: kv[0].value)}
    rows["ALL"] = summary(results)
    return render_table(rows, title=title)


def render_time_table(results: list[ExperimentResult], bins: int = 10,
                      title: str = "") -> str:
    groups = by_time_bins(results, bins)
    rows = {}
    for index, dist in enumerate(groups):
        low = index / bins
        high = (index + 1) / bins
        rows[f"t in [{low:.2f},{high:.2f})"] = dist
    return render_table(rows, title=title)
