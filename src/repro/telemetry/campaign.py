"""Campaign-level observability: manifests, heartbeats, live status.

FINJ-style campaign monitoring over the :class:`~repro.campaign.now.
SharedDirCampaign` share directory.  Everything here works purely from
the files on the share — a coordinator (or a human with ``gemfi status``)
can watch a campaign from any machine that mounts it, without talking to
the workers:

* **run manifests** — one JSON document per experiment recording the
  seed, fault specification, workload, code revision and timings, so a
  result set is self-describing and any single experiment re-runnable;
* **worker heartbeats** — small JSON files refreshed by each worker next
  to the claim files; a worker whose heartbeat stops aging is alive,
  one that stops refreshing is presumed dead (its claims are recovered
  by the stale-claim protocol);
* **status aggregation** — todo/claimed/completed/stale counts, outcome
  mix, throughput and ETA.

Also hosts :func:`diff_stats`, the Section IV.A validation diff ("the
statistical results provided by the simulator" must match) as a library
function behind ``gemfi stats-diff``.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field

from .metrics import MetricsRegistry

HEARTBEAT_DIR = "heartbeats"
MANIFEST_DIR = "manifests"
# Written into a share by the service dispatcher (repro.service): marks
# the share as one job of a campaign service, so `gemfi status` can name
# the owning job and tenant next to the campaign's own numbers.
SERVICE_FILE = "service.json"

_HOSTNAME: str | None = None


def _hostname() -> str:
    global _HOSTNAME
    if _HOSTNAME is None:
        try:
            _HOSTNAME = socket.gethostname()
        except OSError:
            _HOSTNAME = "?"
    return _HOSTNAME


# -- code revision -----------------------------------------------------------


def git_describe(cwd: str | None = None) -> str | None:
    """``git describe --always --dirty`` of the running tree, or None
    when not in a repository (campaign results stay self-describing
    even for installed copies)."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def run_manifest(*, experiment: str, workload: str, scale: str,
                 fault_text: str, seed: int | None = None,
                 worker: str | None = None,
                 started: float | None = None,
                 wall_seconds: float | None = None,
                 outcome: str | None = None,
                 git_rev: str | None = None,
                 extra: dict | None = None) -> dict:
    """Build one experiment's run manifest (FINJ-style workload record)."""
    manifest = {
        "experiment": experiment,
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "fault_file": fault_text,
        "worker": worker,
        "pid": os.getpid(),
        "git": git_rev if git_rev is not None else git_describe(),
        "started": started,
        "wall_seconds": wall_seconds,
        "outcome": outcome,
    }
    if extra:
        manifest.update(extra)
    return manifest


# -- heartbeats --------------------------------------------------------------


class PeriodicBeat:
    """A daemon thread that calls *fn* every *interval* seconds until
    stopped.

    Context manager: ``__exit__`` sets the stop event and **joins** the
    thread, so long-lived processes that run many campaigns back to
    back (a campaign worker's heartbeater, the service dispatcher's
    lease extender) never accumulate beat threads across jobs.  A
    non-positive *interval* disables the thread entirely
    (deterministic single-threaded tests).  Exceptions from *fn* stop
    the beat rather than killing the process; transient errors (a
    share hiccup) are *fn*'s job to swallow.
    """

    def __init__(self, interval: float, fn, name: str = "beat") -> None:
        self.interval = interval
        self.fn = fn
        self.name = name
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "PeriodicBeat":
        if self.interval and self.interval > 0:
            self._thread = threading.Thread(
                target=self._run, name=self.name, daemon=True)
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.fn()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "PeriodicBeat":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def write_heartbeat(share_dir: str, worker_id: str, completed: int,
                    current_experiment: str | None = None,
                    clock=time.time) -> str:
    """Atomically refresh *worker_id*'s heartbeat file on the share.

    *current_experiment* names the experiment the worker is holding
    right now (None between experiments), so the dashboard and the
    dead-worker rule can pin exactly what a silent worker was running.
    """
    directory = os.path.join(share_dir, HEARTBEAT_DIR)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{worker_id}.json")
    payload = {"worker": worker_id, "pid": os.getpid(),
               "hostname": _hostname(), "time": clock(),
               "completed": completed,
               "current_experiment": current_experiment}
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)
    return path


def read_heartbeats(share_dir: str) -> dict[str, dict]:
    directory = os.path.join(share_dir, HEARTBEAT_DIR)
    if not os.path.isdir(directory):
        return {}
    beats: dict[str, dict] = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(directory, name), "r",
                      encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            continue  # mid-write; the next refresh will be readable
        beats[entry.get("worker", name[:-len(".json")])] = entry
    return beats


# -- live campaign status ----------------------------------------------------


def ladder_savings(entry: dict) -> tuple[int, int, int]:
    """Checkpoint-ladder figures of one result record: (1 if it started
    past the boot checkpoint else 0, instructions it did not simulate,
    1 if it exited early else 0).  The skipped instructions are the
    replay it started past plus, after an early exit, the rest of the
    run."""
    start = int(entry.get("replay_start") or 0)
    exit_at = entry.get("early_exit")
    skipped = start
    if isinstance(exit_at, int):
        skipped += max(0, int(entry.get("instructions") or 0) - exit_at)
    return int(start > 0), skipped, int(isinstance(exit_at, int))


def simulated_instructions(entry: dict) -> int:
    """Instructions one result record actually simulated: its full-run
    ``instructions`` minus the replay and tail the checkpoint ladder
    skipped (:func:`ladder_savings`).  Every campaign KIPS roll-up
    divides this, not ``instructions``, by wall time."""
    total = int(entry.get("instructions") or 0)
    return max(0, total - ladder_savings(entry)[1])


def percentile(values: list[float], fraction: float) -> float | None:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-int(fraction * 100) * len(ordered) // 100))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class CampaignStatus:
    """A point-in-time snapshot of a shared-directory campaign."""

    todo: int = 0
    claimed: int = 0
    completed: int = 0
    stale: int = 0
    outcomes: dict[str, int] = field(default_factory=dict)
    workers: dict[str, dict] = field(default_factory=dict)
    live_workers: int = 0
    rate_per_second: float = 0.0
    eta_seconds: float | None = None
    elapsed_seconds: float = 0.0
    # Host-time roll-up over the completed results: total/mean and
    # nearest-rank percentiles of per-experiment wall_seconds, the
    # slowest experiments (outlier hunting on heterogeneous NoW nodes),
    # and campaign-level KIPS (simulated instructions per host
    # kilo-second across all completed experiments).
    wall_total: float = 0.0
    wall_p50: float | None = None
    wall_p90: float | None = None
    slowest: list[tuple[str, float]] = field(default_factory=list)
    kips: float = 0.0
    # Checkpoint-ladder roll-up over the same results: how many started
    # past the boot checkpoint, how many instructions they did not
    # simulate, and how many exited early on rejoining the golden run.
    ladder_started: int = 0
    instructions_skipped: int = 0
    early_exits: int = 0
    # Service context (only when the share belongs to a repro.service
    # job, i.e. service.json is present): the owning job and tenant.
    # None for plain NoW shares, so their status output stays
    # byte-identical to the pre-service tool.
    service: dict | None = None
    # Fault-space coverage frame (opt-in via read_status(coverage=True)
    # / `gemfi status --coverage`): the heatmap-free summary of
    # repro.analysis.coverage — space visited, effective n, outcome
    # rates with Wilson intervals, margin convergence.  None unless
    # requested, so plain status output stays byte-identical.
    coverage: dict | None = None

    @property
    def wall_mean(self) -> float:
        return self.wall_total / self.completed if self.completed \
            else 0.0

    @property
    def total(self) -> int:
        return self.todo + self.claimed + self.completed

    @property
    def done_fraction(self) -> float:
        total = self.total
        return self.completed / total if total else 0.0

    def as_dict(self) -> dict:
        payload = {
            "todo": self.todo, "claimed": self.claimed,
            "completed": self.completed, "stale": self.stale,
            "total": self.total, "outcomes": dict(self.outcomes),
            "live_workers": self.live_workers,
            "rate_per_second": self.rate_per_second,
            "eta_seconds": self.eta_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "wall_total": self.wall_total,
            "wall_mean": self.wall_mean,
            "wall_p50": self.wall_p50,
            "wall_p90": self.wall_p90,
            "slowest": [list(item) for item in self.slowest],
            "kips": self.kips,
            "ladder_started": self.ladder_started,
            "instructions_skipped": self.instructions_skipped,
            "early_exits": self.early_exits,
            "workers": {name: dict(beat) for name, beat
                        in self.workers.items()},
        }
        if self.service is not None:
            payload["service"] = dict(self.service)
        if self.coverage is not None:
            payload["coverage"] = dict(self.coverage)
        return payload


def read_service_context(share_dir: str) -> dict | None:
    """The service marker of a share (``service.json``), or None for a
    plain NoW share."""
    path = os.path.join(share_dir, SERVICE_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
    except (OSError, ValueError):
        return None
    return entry if isinstance(entry, dict) else None


def read_status(share_dir: str, stale_claim_seconds: float = 600.0,
                heartbeat_timeout: float = 120.0,
                clock=time.time, coverage: bool = False
                ) -> CampaignStatus:
    """Aggregate the live state of a share directory.

    *stale* counts claims older than *stale_claim_seconds* with no
    result — experiments whose workstation presumably died and that the
    recovery protocol will return to the queue.  Throughput comes from
    result-file timestamps; the ETA extrapolates it over the remaining
    experiments.
    """
    status = CampaignStatus()
    now = clock()

    def listing(sub: str) -> list[str]:
        path = os.path.join(share_dir, sub)
        return sorted(os.listdir(path)) if os.path.isdir(path) else []

    status.todo = len(listing("todo"))
    # Claimed files stay in claimed/ after their result is written, so
    # only count the ones still awaiting a result as in flight.
    for name in listing("claimed"):
        experiment = name.split("_", 1)[1] if "_" in name else name
        result_name = experiment.replace(".txt", ".json")
        if not os.path.exists(os.path.join(share_dir, "results",
                                           result_name)):
            status.claimed += 1

    result_times: list[float] = []
    walls: list[tuple[float, str]] = []
    instructions_total = 0
    for name in listing("results"):
        if not name.endswith(".json"):
            continue
        path = os.path.join(share_dir, "results", name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            continue  # being written by a worker right now
        status.completed += 1
        outcome = entry.get("outcome", "unknown")
        status.outcomes[outcome] = status.outcomes.get(outcome, 0) + 1
        wall = entry.get("wall_seconds")
        if isinstance(wall, (int, float)):
            walls.append((float(wall), name[:-len(".json")]))
            instructions_total += simulated_instructions(entry)
        started, skipped, exited = ladder_savings(entry)
        status.ladder_started += started
        status.instructions_skipped += skipped
        status.early_exits += exited
        try:
            result_times.append(os.path.getmtime(path))
        except OSError:
            pass
    if walls:
        values = [wall for wall, _ in walls]
        status.wall_total = sum(values)
        status.wall_p50 = percentile(values, 0.5)
        status.wall_p90 = percentile(values, 0.9)
        status.slowest = [
            (name, wall) for wall, name in
            sorted(walls, key=lambda item: (-item[0], item[1]))[:3]]
        if status.wall_total > 0:
            status.kips = instructions_total / status.wall_total / 1e3

    claim_times: list[float] = []
    for name in listing("claims"):
        if not name.endswith(".claim"):
            continue
        experiment = name[:-len(".claim")]
        result_path = os.path.join(share_dir, "results",
                                   experiment.replace(".txt", ".json"))
        try:
            with open(os.path.join(share_dir, "claims", name), "r",
                      encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            continue
        claim_time = entry.get("time", 0.0)
        claim_times.append(claim_time)
        if not os.path.exists(result_path) and \
                now - claim_time > stale_claim_seconds:
            status.stale += 1

    status.workers = read_heartbeats(share_dir)
    for beat in status.workers.values():
        beat["age"] = max(0.0, now - beat.get("time", 0.0))
        beat["live"] = beat["age"] <= heartbeat_timeout
    status.live_workers = sum(
        1 for beat in status.workers.values() if beat["live"])

    started = min(claim_times) if claim_times else None
    if started is not None:
        status.elapsed_seconds = max(0.0, now - started)
    remaining = status.todo + status.claimed
    if status.completed and started is not None:
        finished = max(result_times) if result_times else now
        span = finished - started
        # Throughput needs a measurable interval.  One completed result,
        # or a batch whose files share a single mtime (coarse filesystem
        # timestamps), spans zero time: extrapolating would report an
        # infinite rate and a bogus ETA, so the rate stays 0 and the ETA
        # unknown (None) until a second distinct completion arrives.
        if status.completed >= 2 and span > 0:
            status.rate_per_second = status.completed / span
        if not remaining:
            status.eta_seconds = 0.0
        elif status.rate_per_second > 0:
            status.eta_seconds = remaining / status.rate_per_second

    context = read_service_context(share_dir)
    if context is not None:
        status.service = {"job": context.get("job"),
                          "tenant": context.get("tenant")}

    if coverage:
        # Lazy import: analysis pulls in the campaign package; plain
        # status reads must not pay for (or depend on) it.
        from ..analysis.coverage import (
            coverage_from_share,
            coverage_summary,
        )
        space = coverage_from_share(share_dir)
        status.coverage = coverage_summary(space.as_dict())
    return status


def render_status(status: CampaignStatus) -> str:
    """Human-readable status block (``gemfi status``)."""
    lines = [
        f"experiments : {status.completed}/{status.total} completed "
        f"({status.done_fraction:.0%})",
        f"queue       : todo={status.todo} claimed={status.claimed} "
        f"stale={status.stale}",
        f"workers     : {status.live_workers} live / "
        f"{len(status.workers)} seen",
    ]
    if status.service is not None:
        lines.append(
            f"service     : job={status.service.get('job') or '?'} "
            f"tenant={status.service.get('tenant') or '?'}")
    for name in sorted(status.workers):
        beat = status.workers[name]
        state = "live" if beat.get("live", True) else "silent"
        detail = f"  {name}: {state}"
        if "age" in beat:
            detail += f" {beat['age']:.0f}s ago"
        detail += f" done={beat.get('completed', 0)}"
        if beat.get("current_experiment"):
            detail += f" running={beat['current_experiment']}"
        host = beat.get("hostname")
        pid = beat.get("pid")
        if host or pid:
            detail += f" [{host or '?'}:{pid or '?'}]"
        lines.append(detail)
    if status.outcomes:
        mix = "  ".join(f"{name}={count}" for name, count
                        in sorted(status.outcomes.items()))
        lines.append(f"outcomes    : {mix}")
    if status.rate_per_second > 0:
        lines.append(f"throughput  : {status.rate_per_second * 60:.1f} "
                     f"experiments/min")
    if status.eta_seconds is not None:
        lines.append(f"eta         : {status.eta_seconds:.0f} s")
    if status.wall_total > 0:
        lines.append(
            f"host time   : total={status.wall_total:.2f}s "
            f"mean={status.wall_mean:.3f}s "
            f"p50={status.wall_p50:.3f}s p90={status.wall_p90:.3f}s")
        if status.kips > 0:
            lines.append(f"sim rate    : {status.kips:.1f} KIPS "
                         f"(campaign aggregate)")
        runs = status.completed
        lines.append(
            f"ladder      : {status.ladder_started / runs:.0%} started "
            f"past the boot checkpoint, "
            f"{status.instructions_skipped / runs:.0f} instructions "
            f"skipped per experiment, {status.early_exits} early exits")
        if status.slowest:
            outliers = "  ".join(f"{name}={wall:.3f}s"
                                 for name, wall in status.slowest)
            lines.append(f"slowest     : {outliers}")
    if status.coverage is not None:
        space = status.coverage.get("space", {})
        convergence = status.coverage.get("convergence", {})
        covered = space.get("covered_sites", 0)
        total = space.get("total")
        if total:
            fraction = space.get("covered_fraction") or 0.0
            lines.append(f"coverage    : {covered}/{total} sites "
                         f"({fraction * 100:.4g}%)")
        else:
            lines.append(f"coverage    : {covered} sites "
                         f"(space size unknown)")
        margin = convergence.get("margin", 0.0)
        confidence = convergence.get("confidence", 0.0)
        head = (f"confidence  : +-{margin * 100:g}% margin at "
                f"{confidence * 100:g}%")
        if convergence.get("margin_reached"):
            lines.append(f"{head} reached after "
                         f"{convergence.get('margin_reached_at')} "
                         f"experiments")
        else:
            half = convergence.get("max_half_width", 1.0)
            lines.append(f"{head} not reached "
                         f"(max half-width +-{half * 100:.1f}%)")
    return "\n".join(lines)


# -- per-outcome campaign metrics --------------------------------------------


def campaign_metrics(results) -> MetricsRegistry:
    """Aggregate experiment results into a metrics registry: experiment
    counts plus per-outcome wall-time distributions (the Figs. 4-8 raw
    material, dumped in the diffable stats format).

    Accepts :class:`~repro.campaign.runner.ExperimentResult` objects or
    the result dicts workers write to the share.
    """
    registry = MetricsRegistry()
    campaign = registry.scope("campaign")
    total = campaign.counter("experiments")
    injected = campaign.counter("injected")
    instructions_total = 0
    wall_total = 0.0
    phase_totals: dict[str, float] = {}
    for result in results:
        entry = result if isinstance(result, dict) else result.as_dict()
        outcome = entry.get("outcome", "unknown")
        wall = float(entry.get("wall_seconds", 0.0))
        phases = entry.get("phases")
        total.inc()
        if entry.get("injected"):
            injected.inc()
        campaign.counter(f"outcome.{outcome}").inc()
        campaign.distribution(f"wall_seconds.{outcome}").record(wall)
        campaign.distribution("wall_seconds.all").record(wall)
        instructions_total += simulated_instructions(entry)
        wall_total += wall
        if phases:
            for phase, seconds in phases.items():
                phase_totals[phase] = \
                    phase_totals.get(phase, 0.0) + float(seconds)
    # Host-side roll-up: campaign KIPS and the boot/window/injection/
    # drain attribution of the total wall time (profiler phase stamps).
    if wall_total > 0:
        campaign.set("host.kips",
                     round(instructions_total / wall_total / 1e3, 3))
    for phase, seconds in sorted(phase_totals.items()):
        campaign.set(f"host.phase_seconds.{phase}", round(seconds, 6))
    return registry


# -- the Section IV.A stats diff ---------------------------------------------


def parse_stats(text: str) -> dict[str, str]:
    """Parse ``name value`` dump lines back into a mapping."""
    stats: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        name, _, value = line.partition(" ")
        stats[name] = value
    return stats


# Counters whose values are timing artifacts of the CPU model rather
# than architectural facts; only these are eligible for the
# ``--tolerance`` relaxation of ``gemfi stats-diff``.
TIMING_STAT_MARKERS = ("tick", "cycle", "latency", "ipc", "stall",
                      "wall", "seconds")


def _is_timing_stat(name: str) -> bool:
    lowered = name.lower()
    return any(marker in lowered for marker in TIMING_STAT_MARKERS)


def _within_tolerance(a_value: str, b_value: str,
                      tolerance: float) -> bool:
    """True iff both values parse as numbers and their relative
    difference is within *tolerance*."""
    try:
        a_num = float(a_value)
        b_num = float(b_value)
    except ValueError:
        return False
    if a_num == b_num:
        return True
    scale = max(abs(a_num), abs(b_num))
    return abs(a_num - b_num) <= tolerance * scale


def diff_stats(a_text: str, b_text: str,
               tolerance: float = 0.0) -> list[str]:
    """Differences between two stats dumps, one description per line.

    Empty result == byte-equivalent statistics (modulo line order, which
    the dump format already fixes).  This is the Section IV.A check —
    "the statistical results provided by the simulator [...] were
    identical" — as a first-class operation.

    *tolerance* (default 0: strict) ignores relative differences up to
    the given fraction, but only for timing-sensitive counters
    (ticks/cycles/latencies/...): two runs of the same workload on
    different hosts legitimately disagree there, while architectural
    counters must still match exactly.
    """
    a = parse_stats(a_text)
    b = parse_stats(b_text)
    differences: list[str] = []
    for name in sorted(set(a) | set(b)):
        if name not in b:
            differences.append(f"- {name} {a[name]}")
        elif name not in a:
            differences.append(f"+ {name} {b[name]}")
        elif a[name] != b[name]:
            if tolerance > 0 and _is_timing_stat(name) and \
                    _within_tolerance(a[name], b[name], tolerance):
                continue
            differences.append(f"~ {name} {a[name]} -> {b[name]}")
    return differences
