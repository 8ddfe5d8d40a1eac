"""Declarative campaign watchdog: alert rules over a share snapshot.

FINJ-scale campaigns fail in undramatic ways — a workstation dies
holding a claim, one experiment wedges, throughput quietly collapses, or
the outcome mix drifts because a node is mis-injecting.  Each of those
has a signature in the files already on the share (heartbeats, claims,
results), so the watchdog needs no agent on the workers: it takes a
:func:`snapshot_share` and evaluates four declarative rules, whose
thresholds are the module constants below —

* **dead-worker** — a heartbeat that is no longer live
  (:func:`~repro.telemetry.campaign.beat_live`), critical for each
  claim its worker still holds without a result;
* **stalled-experiment** — an in-flight claim older than
  ``STALL_FACTOR`` × the p90 wall time of completed experiments;
* **throughput-collapse** — no new result for ``COLLAPSE_FACTOR`` ×
  the expected per-result interval while work remains;
* **outcome-drift** — the outcome mix of the most recent results
  significantly different from the campaign baseline (a node gone bad
  mid-campaign).

Alerts surface twice: the ``gemfi dashboard`` live view renders them as
an alert strip, and :func:`append_alerts` journals each *new* alert to
``share/alerts.jsonl`` (deduplicated on rule × worker × experiment) for
machine consumption.  Nothing here writes unless alerts exist, so a
healthy untraced campaign's share layout is untouched.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from .campaign import (
    CampaignStatus,
    read_results,
    read_status,
    render_status,
)

ALERTS_FILE = "alerts.jsonl"

#: stalled-experiment: a claim held longer than STALL_FACTOR x wall
#: p90, once MIN_COMPLETED experiments have finished (before that the
#: p90 is noise); throughput-collapse uses the same minimum.
STALL_FACTOR = 4.0
MIN_COMPLETED = 3
#: throughput-collapse: no result for COLLAPSE_FACTOR x the expected
#: per-result interval.
COLLAPSE_FACTOR = 4.0
#: outcome-drift: the last DRIFT_WINDOW results against the baseline of
#: every result before them, once that holds DRIFT_MIN_BASELINE.  Both
#: sides then hold at least 10 samples, enough for Wilson score
#: intervals at DRIFT_CONFIDENCE; the rule fires only when they are
#: disjoint, so early-campaign noise cannot fire it.
DRIFT_WINDOW = 20
DRIFT_MIN_BASELINE = 10
DRIFT_CONFIDENCE = 0.95

_SEVERITY_RANK = {"critical": 0, "warning": 1, "info": 2}


@dataclass
class Alert:
    """One rule firing, attributable to a worker and/or experiment."""

    rule: str
    severity: str
    message: str
    worker: str | None = None
    experiment: str | None = None
    time: float | None = None

    @property
    def key(self) -> tuple:
        """Dedup identity: the same condition re-observed on the next
        refresh must not re-journal."""
        return (self.rule, self.worker, self.experiment)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule, "severity": self.severity,
            "message": self.message, "worker": self.worker,
            "experiment": self.experiment, "time": self.time,
        }


@dataclass
class ShareSnapshot:
    """Everything the rules need, read from the share exactly once."""

    now: float
    status: CampaignStatus
    # outcomes of completed experiments in result-mtime order
    outcome_sequence: list[str] = field(default_factory=list)
    last_result_time: float | None = None


def snapshot_share(share_dir: str, clock=time.time) -> ShareSnapshot:
    now = clock()
    results = read_results(share_dir)
    status = read_status(share_dir, clock=clock, results=results)
    snap = ShareSnapshot(now=now, status=status)
    timed = sorted((result.mtime, result.name,
                    result.record.get("outcome", "unknown"))
                   for result in results)
    snap.outcome_sequence = [outcome for _, _, outcome in timed]
    if timed:
        snap.last_result_time = timed[-1][0]
    return snap


# -- rules --------------------------------------------------------------------


def _dead_workers(snap: ShareSnapshot) -> set[str]:
    return {worker for worker, beat in snap.status.workers.items()
            if not beat["live"]}


def rule_dead_worker(snap: ShareSnapshot) -> list[Alert]:
    alerts = []
    for worker in sorted(_dead_workers(snap)):
        beat = snap.status.workers[worker]
        age = snap.now - beat.get("time", 0.0)
        held = [experiment for experiment, claim
                in snap.status.in_flight.items()
                if claim.get("worker") == worker]
        if held:
            for experiment in sorted(held):
                alerts.append(Alert(
                    rule="dead-worker", severity="critical",
                    worker=worker, experiment=experiment,
                    time=snap.now,
                    message=f"worker {worker} silent for {age:.0f}s "
                            f"while holding {experiment}"))
        else:
            alerts.append(Alert(
                rule="dead-worker", severity="warning", worker=worker,
                time=snap.now,
                message=f"worker {worker} silent for {age:.0f}s "
                        f"(no held claims)"))
    return alerts


def rule_stalled_experiment(snap: ShareSnapshot) -> list[Alert]:
    """Claims held longer than ``STALL_FACTOR`` x the wall p90.  Every
    share worker writes its claims, so traced and untraced campaigns
    are watched alike."""
    status = snap.status
    if status.completed < MIN_COMPLETED or not status.wall_p90:
        return []
    limit = STALL_FACTOR * status.wall_p90
    dead = _dead_workers(snap)
    alerts = []
    for experiment, claim in sorted(status.in_flight.items()):
        age = snap.now - claim["time"]
        worker = claim.get("worker")
        if age <= limit:
            continue
        if worker in dead:
            continue  # the dead-worker alert already owns this one
        alerts.append(Alert(
            rule="stalled-experiment", severity="warning",
            worker=worker, experiment=experiment, time=snap.now,
            message=f"{experiment} held for {age:.0f}s by {worker} "
                    f"(p90 is {status.wall_p90:.1f}s)"))
    return alerts


def rule_throughput_collapse(snap: ShareSnapshot) -> list[Alert]:
    status = snap.status
    remaining = status.todo + status.claimed
    if not remaining or status.completed < MIN_COMPLETED \
            or snap.last_result_time is None:
        return []
    expected = status.wall_p90 or 0.0
    if status.rate_per_second > 0:
        expected = max(expected, 1.0 / status.rate_per_second)
    if expected <= 0:
        return []
    gap = snap.now - snap.last_result_time
    limit = COLLAPSE_FACTOR * expected
    if gap <= limit:
        return []
    return [Alert(
        rule="throughput-collapse", severity="warning", time=snap.now,
        message=f"no result for {gap:.0f}s "
                f"(expected one every ~{expected:.1f}s, "
                f"{remaining} experiments remain)")]


def rule_outcome_drift(snap: ShareSnapshot) -> list[Alert]:
    """Outcomes whose rate over the last ``DRIFT_WINDOW`` results and
    over the baseline before them have disjoint Wilson score
    intervals: the shared two-proportion test (repro.analysis.diff),
    also behind ``gemfi compare``, so significance means the same
    thing everywhere."""
    sequence = snap.outcome_sequence
    if len(sequence) < DRIFT_WINDOW + DRIFT_MIN_BASELINE:
        return []
    from ..analysis.diff import proportions_differ
    baseline, recent = sequence[:-DRIFT_WINDOW], sequence[-DRIFT_WINDOW:]
    alerts = []
    for outcome in sorted(set(baseline) | set(recent)):
        base_rate = baseline.count(outcome) / len(baseline)
        recent_rate = recent.count(outcome) / len(recent)
        drift = recent_rate - base_rate
        significant, (base_low, base_high), \
            (recent_low, recent_high) = proportions_differ(
                baseline.count(outcome), len(baseline),
                recent.count(outcome), len(recent),
                confidence=DRIFT_CONFIDENCE)
        if not significant:
            continue  # intervals overlap: not significant
        direction = "up" if drift > 0 else "down"
        alerts.append(Alert(
            rule="outcome-drift", severity="warning",
            experiment=outcome, time=snap.now,
            message=f"outcome {outcome} {direction} "
                    f"{abs(drift):.0%} vs baseline "
                    f"({base_rate:.0%} -> {recent_rate:.0%} over "
                    f"last {DRIFT_WINDOW}; "
                    f"{DRIFT_CONFIDENCE:.0%} Wilson "
                    f"intervals [{base_low:.0%},{base_high:.0%}] "
                    f"vs [{recent_low:.0%},{recent_high:.0%}] "
                    f"disjoint)"))
    return alerts


RULES = (rule_dead_worker, rule_stalled_experiment,
         rule_throughput_collapse, rule_outcome_drift)


def evaluate_alerts(share_dir: str,
                    clock=time.time) -> tuple[ShareSnapshot, list[Alert]]:
    """Snapshot the share and run every rule; alerts come back sorted
    most severe first (then by rule/worker/experiment, deterministic)."""
    snap = snapshot_share(share_dir, clock=clock)
    alerts: list[Alert] = []
    for rule in RULES:
        alerts.extend(rule(snap))
    alerts.sort(key=lambda a: (_SEVERITY_RANK.get(a.severity, 9),
                               a.rule, a.worker or "",
                               a.experiment or ""))
    return snap, alerts


def append_alerts(share_dir: str, alerts: list[Alert]) -> list[Alert]:
    """Journal *new* alerts to ``share/alerts.jsonl``.

    An alert's identity is (rule, worker, experiment): re-observing the
    same condition on the next refresh does not re-journal it.  With no
    alerts and no prior journal, the share is left untouched.
    """
    path = os.path.join(share_dir, ALERTS_FILE)
    seen: set[tuple] = set()
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue
                    seen.add((entry.get("rule"), entry.get("worker"),
                              entry.get("experiment")))
        except OSError:
            pass
    fresh = [alert for alert in alerts if alert.key not in seen]
    if not fresh:
        return []
    with open(path, "a", encoding="utf-8") as handle:
        for alert in fresh:
            handle.write(json.dumps(alert.as_dict(), sort_keys=True,
                                    separators=(",", ":")) + "\n")
    return fresh


def read_alerts(share_dir: str) -> list[dict]:
    path = os.path.join(share_dir, ALERTS_FILE)
    if not os.path.exists(path):
        return []
    entries: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except ValueError:
                    continue
    except OSError:
        return entries
    return entries


def alerts_feed(shares: dict[str, str], live: bool = False,
                limit: int = 0, clock=time.time) -> list[dict]:
    """Merge the alert journals of many shares into one feed.

    *shares* maps a label (the service passes the job id) to a share
    directory.  Journalled alerts are read as-is; with *live* the rules
    are additionally evaluated right now (read-only — nothing is
    journalled; ``gemfi dashboard`` is what writes the journals) and
    un-journalled firings appear with ``"live": true``.  Entries are
    deduplicated by (label, rule, worker, experiment), sorted
    newest-first (then by severity), and capped at *limit* when
    positive.  Missing or alert-free shares contribute nothing."""
    feed: list[dict] = []
    seen: set[tuple] = set()
    for label, share_dir in sorted(shares.items()):
        if not os.path.isdir(share_dir):
            continue
        for entry in read_alerts(share_dir):
            key = (label, entry.get("rule"), entry.get("worker"),
                   entry.get("experiment"))
            if key in seen:
                continue
            seen.add(key)
            entry = dict(entry)
            entry["share"] = label
            feed.append(entry)
        if live:
            try:
                _, alerts = evaluate_alerts(share_dir, clock=clock)
            except OSError:
                continue
            for alert in alerts:
                key = (label,) + alert.key
                if key in seen:
                    continue
                seen.add(key)
                entry = alert.as_dict()
                entry["share"] = label
                entry["live"] = True
                feed.append(entry)
    feed.sort(key=lambda e: (-(e.get("time") or 0.0),
                             _SEVERITY_RANK.get(e.get("severity"), 9),
                             e.get("share") or "",
                             e.get("rule") or ""))
    if limit and limit > 0:
        feed = feed[:limit]
    return feed


# -- the live dashboard -------------------------------------------------------


def dashboard_view(snap: ShareSnapshot, alerts: list[Alert]) -> str:
    """The ``gemfi dashboard`` frame: the status block (with a line per
    worker) and the alert strip."""
    lines = [render_status(snap.status), ""]
    if alerts:
        lines.append(f"alerts ({len(alerts)}):")
        for alert in alerts:
            lines.append(f"  [{alert.severity}] {alert.rule}: "
                         f"{alert.message}")
    else:
        lines.append("alerts      : none")
    return "\n".join(lines)


def render_dashboard(share_dir: str,
                     clock=time.time) -> tuple[str, list[Alert]]:
    """Evaluate and render one dashboard frame; returns (text, alerts)
    so the CLI can journal the alerts it just showed."""
    snap, alerts = evaluate_alerts(share_dir, clock=clock)
    return dashboard_view(snap, alerts), alerts
