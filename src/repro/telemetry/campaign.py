"""Campaign-level observability: manifests, heartbeats, live status.

FINJ-style campaign monitoring over the :class:`~repro.campaign.now.
SharedDirCampaign` share directory.  Everything here works purely from
the files on the share — a coordinator (or a human with ``gemfi status``)
can watch a campaign from any machine that mounts it, without talking to
the workers:

* **run manifests** — one JSON document per experiment recording the
  seed, fault specification, workload, code revision and timings, so a
  result set is self-describing and any single experiment re-runnable;
* **worker heartbeats** — small JSON files each worker refreshes every
  :data:`HEARTBEAT_INTERVAL` seconds; one rule, :func:`beat_live`,
  decides whether a worker is alive, and the claims of one that stops
  refreshing are recovered by the stale-claim protocol;
* **claims** — one reader, :func:`read_claims` (one file:
  :func:`read_claim`), and one abandonment rule,
  :func:`claim_abandoned`, shared by the recovery protocol and the
  stale count.  A worker's newest claim without a result is the
  experiment it is running;
* **status aggregation** — todo/claimed/completed/stale counts, outcome
  mix, throughput and ETA.

Every view of a share reads its ``results/`` once, through
:func:`read_results`, and folds the records it needs; the host-time
figures of every surface (status, report, campaign summary,
``host.*`` metrics, usage metering) come from one fold,
:class:`HostTime`, which also renders its own status lines and report
tables.

Also hosts :func:`diff_stats`, the Section IV.A validation diff ("the
statistical results provided by the simulator" must match) as a library
function behind ``gemfi stats-diff``.
"""

from __future__ import annotations

import functools
import json
import os
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from ..core.fault import LocationKind
from ..core.parser import FaultParseError, parse_fault_file
from .metrics import MetricsRegistry

HEARTBEAT_DIR = "heartbeats"
MANIFEST_DIR = "manifests"
#: The subdirectories of a campaign share; a directory holding none of
#: them is not a share.
SHARE_DIRS = ("todo", "claims", "results", HEARTBEAT_DIR, MANIFEST_DIR)
# Written into a share by the service dispatcher (repro.service): marks
# the share as one job of a campaign service, so `gemfi status` can name
# the owning job and tenant next to the campaign's own numbers.
SERVICE_FILE = "service.json"
#: The liveness limits (seconds) of every worker and every reader of a
#: share.  A worker beats every HEARTBEAT_INTERVAL; a beat older than
#: HEARTBEAT_TIMEOUT is dead (:func:`beat_live`); a claim whose
#: claimant never beat is abandoned once it is older than
#: STALE_CLAIM_SECONDS (:func:`claim_abandoned`).
HEARTBEAT_INTERVAL = 15.0
HEARTBEAT_TIMEOUT = 120.0
STALE_CLAIM_SECONDS = 600.0

_HOSTNAME: str | None = None


def hostname() -> str:
    global _HOSTNAME
    if _HOSTNAME is None:
        try:
            _HOSTNAME = socket.gethostname()
        except OSError:
            _HOSTNAME = "?"
    return _HOSTNAME


# -- code revision -----------------------------------------------------------


@functools.cache
def git_describe() -> str | None:
    """``git describe --always --dirty`` of the running tree, or None
    when not in a repository (campaign results stay self-describing
    even for installed copies).  Asked once per process: forked workers
    inherit the coordinator's answer."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
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
    """Build one experiment's run manifest (FINJ-style workload record).
    *git_rev* is recorded as given: outside a git checkout
    :func:`git_describe` answers None."""
    manifest = {
        "experiment": experiment,
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "fault_file": fault_text,
        "worker": worker,
        "pid": os.getpid(),
        "git": git_rev,
        "started": started,
        "wall_seconds": wall_seconds,
        "outcome": outcome,
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_atomic(path: str, data: str | bytes) -> None:
    """Publish *data* (text is UTF-8 encoded) at *path* via a temp file
    and ``os.replace``: readers polling the share see the complete file
    or no file, never a truncated one, and a writer crashing mid-write
    leaves only a ``.tmp.*`` file, which every reader skips.  The temp
    name carries the pid and the thread id, because a worker's main
    thread and its heartbeat thread refresh the same file: with a
    shared temp name one thread's ``os.replace`` can move the other's
    temp file away."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


# -- heartbeats --------------------------------------------------------------


class PeriodicBeat:
    """A daemon thread that calls *fn* every *interval* seconds until
    stopped.

    Context manager: ``__exit__`` sets the stop event and **joins** the
    thread, so long-lived processes that run many campaigns back to
    back (a campaign worker's heartbeater, the service dispatcher's
    lease extender) never accumulate beat threads across jobs.
    Exceptions from *fn* stop the beat rather than killing the process;
    transient errors (a share hiccup) are *fn*'s job to swallow.
    """

    def __init__(self, interval: float, fn, name: str = "beat") -> None:
        self.interval = interval
        self.fn = fn
        self.name = name
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "PeriodicBeat":
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
                    clock=time.time) -> str:
    """Atomically refresh *worker_id*'s heartbeat file on the share.
    What the worker is running is not in it: :func:`read_status` reads
    that from the worker's claims."""
    directory = os.path.join(share_dir, HEARTBEAT_DIR)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{worker_id}.json")
    payload = {"worker": worker_id, "pid": os.getpid(),
               "hostname": hostname(), "time": clock(),
               "completed": completed}
    write_atomic(path, json.dumps(payload))
    return path


def beat_live(beat: dict, now: float) -> bool:
    """Whether the worker of heartbeat *beat* is alive at *now*: its
    beat is at most :data:`HEARTBEAT_TIMEOUT` old."""
    return now - beat.get("time", 0.0) <= HEARTBEAT_TIMEOUT


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


# -- claims -----------------------------------------------------------------


def read_claim(path: str) -> dict | None:
    """The claim file at *path*, ``{worker, pid, time}``, or None when
    it is gone.  A claim file is created with ``O_CREAT|O_EXCL`` and
    written after, so one that does not parse belongs to a claimant
    that died in between (or whose write failed): it counts as a claim
    with no worker, timed at the file's mtime, which lets the claim-age
    rule of :func:`claim_abandoned` recover it."""
    try:
        with open(path, "rb") as handle:
            mtime = os.fstat(handle.fileno()).st_mtime
            data = handle.read()
    except OSError:
        return None
    try:
        entry = json.loads(data)
    except ValueError:
        entry = None
    if not isinstance(entry, dict) or \
            not isinstance(entry.get("time"), (int, float)):
        entry = {"worker": None, "pid": None, "time": mtime}
    return entry


def read_claims(share_dir: str,
                skip: frozenset[str] | set[str] = frozenset()
                ) -> dict[str, dict]:
    """Every claim of *share_dir* (``claims/exp_NNNN.txt.claim``) by
    experiment name, finished or not, except those named in *skip*,
    which stay unopened.  A claim stolen since the listing (or a
    ``.steal.*`` marker of one) is skipped."""
    directory = os.path.join(share_dir, "claims")
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return {}
    claims: dict[str, dict] = {}
    for name in names:
        experiment = name[:-len(".txt.claim")]
        if not name.endswith(".txt.claim") or experiment in skip:
            continue
        entry = read_claim(os.path.join(directory, name))
        if entry is not None:
            claims[experiment] = entry
    return claims


def _process_exists(pid) -> bool:
    if not isinstance(pid, int) or pid <= 0:
        return True  # unknown: leave it to the heartbeat
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass  # exists, owned by someone else
    return True


def claim_abandoned(claim: dict, beats: dict[str, dict],
                    now: float) -> bool:
    """Whether a result-less *claim* (from :func:`read_claims`) is
    abandoned, so recovery returns its experiment to the queue: its
    claimant was a process of this host that has ended, or its
    claimant's heartbeat (from :func:`read_heartbeats`) is not
    :func:`beat_live`, or its claimant never wrote one and the claim
    is older than :data:`STALE_CLAIM_SECONDS`.  The first rule matters
    when a later process beats under the same worker name, as a
    restarted dispatcher's workers do.  A live claimant is never
    robbed, however long its experiment runs."""
    if claim.get("hostname") == hostname() \
            and not _process_exists(claim.get("pid")):
        return True
    beat = beats.get(claim.get("worker"))
    if beat is not None:
        return not beat_live(beat, now)
    return now - claim["time"] > STALE_CLAIM_SECONDS


# -- results ----------------------------------------------------------------


class ResultFile(NamedTuple):
    """One parsed ``results/*.json`` of a share."""

    name: str     # the file stem: the experiment's name
    record: dict
    mtime: float


def read_results(share_dir: str) -> list[ResultFile]:
    """Every parseable result of *share_dir*, sorted by experiment name
    (the campaign's generation order).  Results are published
    atomically, so a file that does not parse is hand damage or a
    worker's ``.tmp.*`` leftover, and is skipped.  A view reads its
    results here once and hands them to every fold it runs."""
    directory = os.path.join(share_dir, "results")
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    results = []
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(directory, name), "r",
                      encoding="utf-8") as handle:
                record = json.load(handle)
                mtime = os.fstat(handle.fileno()).st_mtime
        except (OSError, ValueError):
            continue
        if isinstance(record, dict):
            results.append(ResultFile(name[:-len(".json")], record, mtime))
    return results


# Canonical outcome order (repro.campaign.classify.OUTCOME_ORDER as
# strings); unknown outcome strings sort after these.
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


def outcome_columns(outcomes) -> list[str]:
    """Canonical-then-alphabetical outcome order over *outcomes*."""
    present = set(outcomes)
    ordered = [o for o in OUTCOME_ORDER if o in present]
    return ordered + sorted(present - set(OUTCOME_ORDER))


def first_fault(entry: dict):
    """The first fault of a result record, parsed from its
    self-describing ``fault_file`` provenance, else from ``fault`` (the
    described first fault of pre-telemetry result sets), else None."""
    for key in ("fault_file", "fault"):
        text = entry.get(key)
        if not text:
            continue
        try:
            faults = parse_fault_file(text)
        except FaultParseError:
            continue
        if faults:
            return faults[0]
    return None


# -- the host-time fold -------------------------------------------------------


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


PHASE_ORDER = ("boot", "window", "injection", "drain")


@dataclass
class HostTime:
    """Where a campaign's host time went, folded from its result
    records: wall-time totals, percentiles and outliers (heterogeneous
    NoW nodes), campaign KIPS, the checkpoint ladder's savings and the
    profiler's boot/window/injection/drain phase totals."""

    experiments: int = 0
    # (wall_seconds, experiment) of every record that carries one
    walls: list[tuple[float, str]] = field(default_factory=list)
    # instructions those timed records simulated
    instructions: int = 0
    # started past the boot checkpoint / instructions the ladder did
    # not simulate / exited early on rejoining the golden run
    ladder_started: int = 0
    instructions_skipped: int = 0
    early_exits: int = 0
    phases: dict[str, float] = field(default_factory=dict)

    def add(self, entry: dict, name: str = "") -> None:
        self.experiments += 1
        wall = entry.get("wall_seconds")
        if isinstance(wall, (int, float)):
            self.walls.append((float(wall), name))
            self.instructions += simulated_instructions(entry)
        started, skipped, exited = ladder_savings(entry)
        self.ladder_started += started
        self.instructions_skipped += skipped
        self.early_exits += exited
        phases = entry.get("phases")
        if isinstance(phases, dict):
            for phase, seconds in phases.items():
                if isinstance(seconds, (int, float)):
                    self.phases[phase] = \
                        self.phases.get(phase, 0.0) + float(seconds)

    @property
    def wall_total(self) -> float:
        return sum((wall for wall, _ in self.walls), 0.0)

    @property
    def wall_p50(self) -> float | None:
        return percentile([wall for wall, _ in self.walls], 0.5)

    @property
    def wall_p90(self) -> float | None:
        return percentile([wall for wall, _ in self.walls], 0.9)

    @property
    def slowest(self) -> list[tuple[str, float]]:
        """The three slowest experiments, ``(name, wall)``."""
        ordered = sorted(self.walls, key=lambda item: (-item[0], item[1]))
        return [(name, wall) for wall, name in ordered[:3]]

    @property
    def kips(self) -> float:
        """Campaign-wide KIPS: thousands of simulated instructions per
        host second."""
        total = self.wall_total
        return self.instructions / total / 1e3 if total > 0 else 0.0

    def status_lines(self) -> list[str]:
        """The ``gemfi status`` lines (none before any wall time);
        means are per completed experiment."""
        total = self.wall_total
        if total <= 0:
            return []
        runs = self.experiments
        lines = [f"host time   : total={total:.2f}s "
                 f"mean={total / runs:.3f}s p50={self.wall_p50:.3f}s "
                 f"p90={self.wall_p90:.3f}s"]
        if self.kips > 0:
            lines.append(f"sim rate    : {self.kips:.1f} KIPS "
                         f"(campaign aggregate)")
        lines.append(
            f"ladder      : {self.ladder_started / runs:.0%} started "
            f"past the boot checkpoint, "
            f"{self.instructions_skipped / runs:.0f} instructions "
            f"skipped per experiment, {self.early_exits} early exits")
        if self.slowest:
            lines.append("slowest     : " + "  ".join(
                f"{name}={wall:.3f}s" for name, wall in self.slowest))
        return lines

    def report_tables(self) -> list[tuple]:
        """The report's Host time tables (none without wall times); the
        wall mean is per timed experiment."""
        if not self.walls:
            return []
        total = self.wall_total
        rows = [
            ["wall total (s)", f"{total:.3f}"],
            ["wall mean (s)", f"{total / len(self.walls):.4f}"],
            ["wall p50 (s)", f"{self.wall_p50:.4f}"],
            ["wall p90 (s)", f"{self.wall_p90:.4f}"],
        ]
        if self.kips:
            rows.append(["campaign KIPS", f"{self.kips:.1f}"])
        runs = self.experiments
        rows += [
            ["started past boot checkpoint",
             f"{self.ladder_started / runs:.1%}"],
            ["instructions skipped (mean)",
             f"{self.instructions_skipped / runs:.0f}"],
            ["early exits", str(self.early_exits)],
        ]
        tables = [(None, ["metric", "value"], rows),
                  ("Slowest experiments", ["experiment", "wall (s)"],
                   [[name, f"{wall:.4f}"] for name, wall
                    in self.slowest])]
        if self.phases:
            order = [p for p in PHASE_ORDER if p in self.phases]
            order += sorted(set(self.phases) - set(PHASE_ORDER))
            scale = sum(self.phases.values()) or 1.0
            tables.append((
                "Wall time by campaign phase",
                ["phase", "seconds", "share"],
                [[phase, f"{self.phases[phase]:.3f}",
                  f"{self.phases[phase] / scale:.1%}"]
                 for phase in order]))
        return tables


# -- live campaign status ----------------------------------------------------


def _host_figure(name: str) -> property:
    return property(lambda status: getattr(status.host, name))


@dataclass
class CampaignStatus:
    """A point-in-time snapshot of a shared-directory campaign."""

    todo: int = 0
    claimed: int = 0
    completed: int = 0
    stale: int = 0
    outcomes: dict[str, int] = field(default_factory=dict)
    # experiment -> claim of every claim still awaiting its result
    in_flight: dict[str, dict] = field(default_factory=dict)
    workers: dict[str, dict] = field(default_factory=dict)
    live_workers: int = 0
    rate_per_second: float = 0.0
    eta_seconds: float | None = None
    elapsed_seconds: float = 0.0
    # Host-time fold over the completed results.
    host: HostTime = field(default_factory=HostTime)
    # Service context (only when the share belongs to a repro.service
    # job, i.e. service.json is present): the owning job and tenant.
    # None for plain NoW shares, so their status output stays
    # byte-identical to the pre-service tool.
    service: dict | None = None
    # Fault-space coverage frame (opt-in via read_status(coverage=True)
    # / `gemfi status --coverage`): the heatmap-free summary of
    # repro.analysis.coverage — space visited, outcome rates with
    # Wilson intervals, margin convergence.  None unless
    # requested, so plain status output stays byte-identical.
    coverage: dict | None = None

    wall_total = _host_figure("wall_total")
    wall_p50 = _host_figure("wall_p50")
    wall_p90 = _host_figure("wall_p90")
    slowest = _host_figure("slowest")
    kips = _host_figure("kips")
    ladder_started = _host_figure("ladder_started")
    instructions_skipped = _host_figure("instructions_skipped")
    early_exits = _host_figure("early_exits")

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


def read_status(share_dir: str, clock=time.time, coverage: bool = False,
                results: list[ResultFile] | None = None
                ) -> CampaignStatus:
    """Aggregate the live state of a share directory.

    *todo* counts fault files with neither a claim nor a result,
    *claimed* the claims still awaiting their result, and *stale* those
    of them that are abandoned (:func:`claim_abandoned`): experiments
    the recovery protocol will return to the queue.  Each worker's
    heartbeat gains its ``age``, whether it is ``live`` and its
    ``current_experiment``: the newest claim it holds without a result,
    or None.  Throughput comes from result-file timestamps; the ETA
    extrapolates it over the remaining experiments.  *results* are the
    share's results when the caller already read them
    (:func:`read_results`).
    """
    status = CampaignStatus()
    now = clock()
    if results is None:
        results = read_results(share_dir)
    done = {result.name for result in results}
    claims = read_claims(share_dir)
    status.in_flight = {name: claim for name, claim in claims.items()
                        if name not in done}
    status.claimed = len(status.in_flight)
    todo = os.path.join(share_dir, "todo")
    names = os.listdir(todo) if os.path.isdir(todo) else []
    status.todo = len({name[:-len(".txt")] for name in names
                       if name.endswith(".txt")} - claims.keys() - done)

    for result in results:
        status.completed += 1
        outcome = result.record.get("outcome", "unknown")
        status.outcomes[outcome] = status.outcomes.get(outcome, 0) + 1
        status.host.add(result.record, result.name)
    result_times = [result.mtime for result in results]

    # Oldest first, so each worker ends on its newest held claim (a
    # reused worker name can hold a dead predecessor's claim too).
    running = {claim.get("worker"): name for name, claim in sorted(
        status.in_flight.items(), key=lambda item: (item[1]["time"],
                                                    item[0]))}
    status.workers = read_heartbeats(share_dir)
    for worker, beat in status.workers.items():
        beat["age"] = max(0.0, now - beat.get("time", 0.0))
        beat["live"] = beat_live(beat, now)
        beat["current_experiment"] = running.get(worker)
    status.live_workers = sum(
        1 for beat in status.workers.values() if beat["live"])
    status.stale = sum(
        claim_abandoned(claim, status.workers, now)
        for claim in status.in_flight.values())

    started = min((claim["time"] for claim in claims.values()),
                  default=None)
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
        space = coverage_from_share(share_dir, results=results)
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
    lines += status.host.status_lines()
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
    material, dumped in the diffable stats format), and the host-time
    roll-up: campaign KIPS and the boot/window/injection/drain
    attribution of the total wall time (profiler phase stamps).

    Accepts :class:`~repro.campaign.runner.ExperimentResult` objects or
    the result dicts workers write to the share.  A record without a
    wall time counts as 0 s, its instructions included.
    """
    registry = MetricsRegistry()
    campaign = registry.scope("campaign")
    total = campaign.counter("experiments")
    injected = campaign.counter("injected")
    host = HostTime()
    for result in results:
        entry = result if isinstance(result, dict) else result.as_dict()
        outcome = entry.get("outcome", "unknown")
        wall = float(entry.get("wall_seconds", 0.0))
        total.inc()
        if entry.get("injected"):
            injected.inc()
        campaign.counter(f"outcome.{outcome}").inc()
        campaign.distribution(f"wall_seconds.{outcome}").record(wall)
        campaign.distribution("wall_seconds.all").record(wall)
        host.add({**entry, "wall_seconds": wall})
    if host.wall_total > 0:
        campaign.set("host.kips", round(host.kips, 3))
    for phase, seconds in sorted(host.phases.items()):
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
