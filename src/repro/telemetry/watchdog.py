"""Declarative campaign watchdog: alert rules over a share snapshot.

FINJ-scale campaigns fail in undramatic ways — a workstation dies
holding a claim, one experiment wedges, throughput quietly collapses, or
the outcome mix drifts because a node is mis-injecting.  Each of those
has a signature in the files already on the share (heartbeats, claims,
results, span logs), so the watchdog needs no agent on the workers: it
takes a :func:`snapshot_share` and evaluates four declarative rules —

* **dead-worker** — a heartbeat aged past ``heartbeat_timeout`` while
  its worker still holds unresulted claims (or reported a current
  experiment);
* **stalled-experiment** — an in-flight claim older than
  ``stall_factor`` × the p90 wall time of completed experiments;
* **throughput-collapse** — no new result for ``collapse_factor`` ×
  the expected per-result interval while work remains;
* **outcome-drift** — the outcome mix of the most recent results
  diverging from the campaign baseline by more than
  ``drift_threshold`` (a node gone bad mid-campaign).

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
    HEARTBEAT_TIMEOUT,
    STALE_CLAIM_SECONDS,
    CampaignStatus,
    read_results,
    read_status,
    render_status,
)
from .spans import load_spans

ALERTS_FILE = "alerts.jsonl"

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
class WatchdogConfig:
    heartbeat_timeout: float = HEARTBEAT_TIMEOUT
    stale_claim_seconds: float = STALE_CLAIM_SECONDS
    # stalled-experiment: claim held longer than stall_factor x
    # wall_p90, once at least min_completed experiments have finished
    # (before that the p90 is noise).
    stall_factor: float = 4.0
    min_completed: int = 3
    # throughput-collapse: no result for collapse_factor x the expected
    # per-result interval.
    collapse_factor: float = 4.0
    # outcome-drift: the last drift_window results vs the baseline of
    # everything before them (needs drift_min_baseline of history).
    # With at least drift_min_samples on each side the rule compares
    # Wilson score intervals at drift_confidence and fires only when
    # they do not overlap (early-campaign noise widens the intervals,
    # so it cannot fire spuriously); below that sample count it falls
    # back to the raw drift_threshold rate delta.
    drift_window: int = 20
    drift_min_baseline: int = 10
    drift_threshold: float = 0.25
    drift_confidence: float = 0.95
    drift_min_samples: int = 10


@dataclass
class ShareSnapshot:
    """Everything the rules need, read from the share exactly once."""

    now: float
    status: CampaignStatus
    # still-open experiment span records, each annotated with "age"
    # (traced campaigns only; the dashboard's running column)
    open_spans: list[dict] = field(default_factory=list)
    # outcomes of completed experiments in result-mtime order
    outcome_sequence: list[str] = field(default_factory=list)
    last_result_time: float | None = None


def snapshot_share(share_dir: str,
                   config: WatchdogConfig | None = None,
                   clock=time.time) -> ShareSnapshot:
    config = config or WatchdogConfig()
    now = clock()
    results = read_results(share_dir)
    status = read_status(
        share_dir, stale_claim_seconds=config.stale_claim_seconds,
        heartbeat_timeout=config.heartbeat_timeout, clock=clock,
        results=results)
    snap = ShareSnapshot(now=now, status=status)

    _finished, opened = load_spans(share_dir)
    for record in opened:
        if record.get("attrs", {}).get("kind") != "experiment":
            continue
        t0 = record.get("t0")
        record = dict(record)
        record["age"] = (now - t0) if isinstance(t0, (int, float)) \
            else None
        snap.open_spans.append(record)

    timed = sorted((result.mtime, result.name,
                    result.record.get("outcome", "unknown"))
                   for result in results)
    snap.outcome_sequence = [outcome for _, _, outcome in timed]
    if timed:
        snap.last_result_time = timed[-1][0]
    return snap


# -- rules --------------------------------------------------------------------


def _dead_workers(snap: ShareSnapshot,
                  config: WatchdogConfig) -> set[str]:
    dead = set()
    for worker, beat in snap.status.workers.items():
        if worker == "coordinator":
            continue
        if snap.now - beat.get("time", 0.0) > config.heartbeat_timeout:
            dead.add(worker)
    return dead


def rule_dead_worker(snap: ShareSnapshot,
                     config: WatchdogConfig) -> list[Alert]:
    alerts = []
    for worker in sorted(_dead_workers(snap, config)):
        beat = snap.status.workers.get(worker, {})
        age = snap.now - beat.get("time", 0.0)
        held = [experiment for experiment, claim
                in snap.status.in_flight.items()
                if claim.get("worker") == worker]
        current = beat.get("current_experiment")
        if current and current not in held:
            held.append(current)
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


def rule_stalled_experiment(snap: ShareSnapshot,
                            config: WatchdogConfig) -> list[Alert]:
    """Claims held longer than ``stall_factor`` x the wall p90.  Every
    share worker writes its claims, so traced and untraced campaigns
    are watched alike."""
    status = snap.status
    if status.completed < config.min_completed or not status.wall_p90:
        return []
    limit = config.stall_factor * status.wall_p90
    dead = _dead_workers(snap, config)
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


def rule_throughput_collapse(snap: ShareSnapshot,
                             config: WatchdogConfig) -> list[Alert]:
    status = snap.status
    remaining = status.todo + status.claimed
    if not remaining or status.completed < config.min_completed \
            or snap.last_result_time is None:
        return []
    expected = status.wall_p90 or 0.0
    if status.rate_per_second > 0:
        expected = max(expected, 1.0 / status.rate_per_second)
    if expected <= 0:
        return []
    gap = snap.now - snap.last_result_time
    limit = config.collapse_factor * expected
    if gap <= limit:
        return []
    return [Alert(
        rule="throughput-collapse", severity="warning", time=snap.now,
        message=f"no result for {gap:.0f}s "
                f"(expected one every ~{expected:.1f}s, "
                f"{remaining} experiments remain)")]


def rule_outcome_drift(snap: ShareSnapshot,
                       config: WatchdogConfig) -> list[Alert]:
    sequence = snap.outcome_sequence
    window = config.drift_window
    if len(sequence) < window + config.drift_min_baseline:
        return []
    baseline, recent = sequence[:-window], sequence[-window:]
    outcomes = sorted(set(baseline) | set(recent))
    # Enough samples on both sides: compare Wilson score intervals and
    # fire only when they are disjoint — statistically significant
    # drift, immune to early-campaign noise.  Tiny samples fall back
    # to the raw rate-delta threshold (the intervals would span almost
    # everything and the rule would go blind).
    use_wilson = min(len(baseline), len(recent)) >= \
        config.drift_min_samples
    if use_wilson:
        # The shared two-proportion test (repro.analysis.diff) —
        # also behind `gemfi compare` — so significance means the
        # same thing everywhere.
        from ..analysis.diff import proportions_differ
    alerts = []
    for outcome in outcomes:
        base_rate = baseline.count(outcome) / len(baseline)
        recent_rate = recent.count(outcome) / len(recent)
        drift = recent_rate - base_rate
        if use_wilson:
            significant, (base_low, base_high), \
                (recent_low, recent_high) = proportions_differ(
                    baseline.count(outcome), len(baseline),
                    recent.count(outcome), len(recent),
                    confidence=config.drift_confidence)
            if not significant:
                continue  # intervals overlap: not significant
            direction = "up" if drift > 0 else "down"
            alerts.append(Alert(
                rule="outcome-drift", severity="warning",
                experiment=outcome, time=snap.now,
                message=f"outcome {outcome} {direction} "
                        f"{abs(drift):.0%} vs baseline "
                        f"({base_rate:.0%} -> {recent_rate:.0%} over "
                        f"last {window}; "
                        f"{config.drift_confidence:.0%} Wilson "
                        f"intervals [{base_low:.0%},{base_high:.0%}] "
                        f"vs [{recent_low:.0%},{recent_high:.0%}] "
                        f"disjoint)"))
        elif abs(drift) > config.drift_threshold:
            direction = "up" if drift > 0 else "down"
            alerts.append(Alert(
                rule="outcome-drift", severity="warning",
                experiment=outcome, time=snap.now,
                message=f"outcome {outcome} {direction} "
                        f"{abs(drift):.0%} vs baseline "
                        f"({base_rate:.0%} -> {recent_rate:.0%} over "
                        f"last {window})"))
    return alerts


RULES = (rule_dead_worker, rule_stalled_experiment,
         rule_throughput_collapse, rule_outcome_drift)


def evaluate_alerts(share_dir: str,
                    config: WatchdogConfig | None = None,
                    clock=time.time) -> tuple[ShareSnapshot,
                                              list[Alert]]:
    """Snapshot the share and run every rule; alerts come back sorted
    most severe first (then by rule/worker/experiment, deterministic)."""
    config = config or WatchdogConfig()
    snap = snapshot_share(share_dir, config, clock=clock)
    alerts: list[Alert] = []
    for rule in RULES:
        alerts.extend(rule(snap, config))
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


def alerts_feed(shares: dict[str, str],
                config: WatchdogConfig | None = None,
                live: bool = False, limit: int = 0,
                clock=time.time) -> list[dict]:
    """Merge the alert journals of many shares into one feed.

    *shares* maps a label (the service passes the job id) to a share
    directory.  Journalled alerts are read as-is; with *live* the rules
    are additionally evaluated right now (read-only — nothing is
    journalled; ``gemfi dashboard`` is what writes the journals) and
    un-journalled firings appear with ``"live": true``.  Entries are
    deduplicated by (label, rule, worker, experiment), sorted
    newest-first (then by severity), and capped at *limit* when
    positive.  Missing or alert-free shares contribute nothing."""
    config = config or WatchdogConfig()
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
                _, alerts = evaluate_alerts(share_dir, config,
                                            clock=clock)
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


def _format_age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"


def dashboard_view(snap: ShareSnapshot, alerts: list[Alert],
                   config: WatchdogConfig | None = None) -> str:
    """The ``gemfi dashboard`` frame: status block, worker table
    (worker x current experiment x open phase), and the alert strip."""
    config = config or WatchdogConfig()
    lines = [render_status(snap.status), ""]

    open_by_worker: dict[str, list[dict]] = {}
    for record in snap.open_spans:
        open_by_worker.setdefault(record.get("worker") or "?",
                                  []).append(record)

    workers = {name: beat for name, beat in snap.status.workers.items()
               if name != "coordinator"}
    if workers:
        lines.append("worker      state   beat  done  running")
        for name in sorted(workers):
            beat = workers[name]
            age = snap.now - beat.get("time", 0.0)
            state = "live" if age <= config.heartbeat_timeout \
                else "SILENT"
            running = beat.get("current_experiment") or "-"
            spans = open_by_worker.get(name, [])
            if spans:
                newest = max(spans, key=lambda r: r.get("t0") or 0.0)
                span_age = newest.get("age")
                if span_age is not None:
                    running += f" ({newest.get('name')} " \
                               f"{_format_age(span_age)})"
            lines.append(
                f"{name:<11} {state:<7} {_format_age(age):>4}  "
                f"{beat.get('completed', 0):>4}  {running}")
        lines.append("")

    if alerts:
        lines.append(f"alerts ({len(alerts)}):")
        for alert in alerts:
            lines.append(f"  [{alert.severity}] {alert.rule}: "
                         f"{alert.message}")
    else:
        lines.append("alerts      : none")
    return "\n".join(lines)


def render_dashboard(share_dir: str,
                     config: WatchdogConfig | None = None,
                     clock=time.time) -> tuple[str, list[Alert]]:
    """Evaluate and render one dashboard frame; returns (text, alerts)
    so the CLI can journal the alerts it just showed."""
    config = config or WatchdogConfig()
    snap, alerts = evaluate_alerts(share_dir, config, clock=clock)
    return dashboard_view(snap, alerts, config), alerts
