"""Campaigns on a Network of Workstations (Section III.E).

Two pieces:

* :class:`SharedDirCampaign` — a faithful implementation of the paper's
  shared-network-filesystem protocol: experiment configuration files and
  the checkpoint live on a share; workers atomically claim experiments,
  run them locally from the checkpointed state and write results back.
  :meth:`SharedDirCampaign.run_local` is the one way to run a published
  campaign: it forks real OS worker processes (``multiprocessing``), so
  on a multi-core host the campaign genuinely runs in parallel, or runs
  a single worker in the calling process with that process's runner.

* :func:`simulate_makespan` — a deterministic meta-simulator that replays
  measured per-experiment serial runtimes over W workstations x S
  simulation slots using the paper's work-stealing discipline (step 4:
  "each workstation ... selects one of the remaining experiments"), and
  reports the campaign makespan.  This reproduces the scheduling
  arithmetic behind Fig. 8's ~108x NoW speedup without needing 27
  machines.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import time
from contextlib import suppress
from dataclasses import dataclass

from ..core.parser import parse_fault_file, render_fault_file
from ..telemetry.campaign import (HEARTBEAT_INTERVAL, MANIFEST_DIR,
                                  SHARE_DIRS, PeriodicBeat,
                                  claim_abandoned, git_describe,
                                  hostname, read_claim, read_claims,
                                  read_heartbeats, read_results,
                                  run_manifest, write_atomic,
                                  write_heartbeat)
from ..telemetry.spans import (CAMPAIGN_PATH, JsonlSpanSink,
                               TraceContext, Tracer, span_log_path)
from .runner import CampaignRunner, GoldenRun


@dataclass
class NoWConfig:
    """The paper's platform: 27 workstations, 4 experiments each."""

    workstations: int = 27
    slots_per_workstation: int = 4

    @property
    def total_slots(self) -> int:
        return self.workstations * self.slots_per_workstation


def simulate_makespan(durations: list[float], config: NoWConfig,
                      checkpoint_copy_seconds: float = 0.0) -> float:
    """Deterministic list-scheduling makespan of *durations* over the
    NoW.  Each workstation first copies the checkpoint locally (step 3),
    then its slots repeatedly claim the next remaining experiment."""
    if not durations:
        return 0.0
    slot_free_at = [checkpoint_copy_seconds] * config.total_slots
    for duration in durations:
        index = min(range(len(slot_free_at)), key=slot_free_at.__getitem__)
        slot_free_at[index] += duration
    return max(slot_free_at)


def now_speedup(durations: list[float], config: NoWConfig,
                checkpoint_copy_seconds: float = 0.0) -> float:
    """Serial-time / NoW-makespan for a measured campaign."""
    serial = sum(durations)
    makespan = simulate_makespan(durations, config,
                                 checkpoint_copy_seconds)
    return serial / makespan if makespan else 1.0


# -- the shared-directory protocol ------------------------------------------------


class SharedDirCampaign:
    """Steps 1-6 of Section III.E over a real directory tree.

    Layout of the share::

        share/
          golden.pkl              the golden run workers reuse (outputs,
                                  profile, post-init checkpoint and
                                  checkpoint ladder)
          workload.json           name/scale so workers rebuild the spec
          todo/exp_NNNN.txt       per-experiment fault input files (they
                                  stay for the whole campaign)
          claims/exp_NNNN.txt.claim
                                  the one record of a claim, created
                                  with O_EXCL: {worker, pid, hostname,
                                  time}; a claim without a result is
                                  the experiment its worker is running
          results/exp_NNNN.json   outcome records written by workers
          heartbeats/<ws>.json    worker liveness beacons (telemetry),
                                  refreshed every HEARTBEAT_INTERVAL
          manifests/exp_NNNN.json per-run manifests: who ran what, when
          spans/<ws>.jsonl        span records (only when tracing is on)
          alerts.jsonl            watchdog journal (only when alerts fire)
    """

    def __init__(self, share_dir: str, workload_name: str,
                 scale: str = "small", clock=time.time) -> None:
        self.share_dir = share_dir
        self.workload_name = workload_name
        self.scale = scale
        self._clock = clock
        self._unclaimed: list[str] = []  # see _claim_once
        for sub in SHARE_DIRS:
            os.makedirs(os.path.join(share_dir, sub), exist_ok=True)

    # step 1+2: the coordinator publishes experiments and the checkpoint.

    def publish(self, runner: CampaignRunner,
                fault_sets: list, seed: int | None = None,
                flight: int | None = None,
                trace: bool = False,
                request: dict | None = None) -> None:
        workload = {"name": self.workload_name, "scale": self.scale,
                    "seed": seed, "flight": flight}
        if trace:
            # Only written when tracing is on, so an untraced share's
            # workload.json stays byte-identical to the old protocol.
            workload["trace"] = True
        if request is not None:
            # Originating-request context from the campaign service
            # ({"id": ..., "span": ...}): run_local roots the campaign
            # span under that request span.  Absent outside the
            # service, keeping plain shares byte-identical.
            workload["request"] = request
        write_atomic(os.path.join(self.share_dir, "workload.json"),
                     json.dumps(workload))
        write_atomic(os.path.join(self.share_dir, "golden.pkl"),
                     pickle.dumps(runner.golden))
        for index, faults in enumerate(fault_sets):
            if not isinstance(faults, list):
                faults = [faults]
            path = os.path.join(self.share_dir, "todo",
                                f"exp_{index:04d}.txt")
            write_atomic(path, render_fault_file(faults))

    # step 4: atomic claim.  A claim file created with O_CREAT|O_EXCL is
    # the one record of a claim: exactly one workstation can create it,
    # so exactly one wins even on network filesystems where rename
    # semantics are shakier.  The fault file stays in todo/.

    def claim(self, worker_id: str) -> str | None:
        """Claim a queued experiment for *worker_id* and return its name
        (``exp_NNNN``, whose fault file is ``todo/exp_NNNN.txt``), or
        None when every experiment is claimed or finished."""
        experiment = self._claim_once(worker_id)
        if experiment is None and self._recover_abandoned(worker_id):
            experiment = self._claim_once(worker_id)
        return experiment

    def _claim_once(self, worker_id: str) -> str | None:
        # Fault files never move: the names left unclaimed at the last
        # listing are tried in order, and todo/ minus claims/ is listed
        # again only when they run out.
        claims = os.path.join(self.share_dir, "claims")
        for relist in (False, True):
            if relist:
                taken = set(os.listdir(claims))
                todo = os.listdir(os.path.join(self.share_dir, "todo"))
                self._unclaimed = sorted(  # no .tmp.* of a publish
                    (name for name in todo if name.endswith(".txt")
                     and name + ".claim" not in taken), reverse=True)
            while self._unclaimed:
                name = self._unclaimed.pop()
                try:
                    handle = os.open(os.path.join(claims, name + ".claim"),
                                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    continue  # another workstation won it since the listing
                try:
                    os.write(handle, json.dumps(
                        {"worker": worker_id, "pid": os.getpid(),
                         "hostname": hostname(),
                         "time": self._clock()}).encode("utf-8"))
                finally:
                    os.close(handle)
                return name[:-len(".txt")]
        return None

    def _recover_abandoned(self, worker_id: str) -> bool:
        """Delete every abandoned claim without a result, returning its
        experiment to the queue; True if any was.  Liveness comes from
        the claimant's heartbeat (:func:`claim_abandoned`), so a live
        worker running one slow experiment is never robbed: a double
        run corrupts the outcome statistics.  A unique rename of the
        claim file makes each steal single-winner."""
        beats = read_heartbeats(self.share_dir)
        results = os.path.join(self.share_dir, "results")
        finished = {name[:-len(".json")] for name in os.listdir(results)
                    if name.endswith(".json")}
        recovered = False
        for experiment, claim in read_claims(self.share_dir,
                                             skip=finished).items():
            if not claim_abandoned(claim, beats, self._clock()):
                continue
            if os.path.exists(os.path.join(results, experiment + ".json")):
                continue  # finished since the listing
            path = os.path.join(self.share_dir, "claims",
                                experiment + ".txt.claim")
            stolen = f"{path}.steal.{worker_id}.{os.getpid()}"
            try:
                os.rename(path, stolen)
            except OSError:
                continue  # somebody else is recovering this one
            if read_claim(stolen) == claim:
                recovered = True
            else:
                # Recovered by another workstation since the read above
                # and claimed again: put that live claim back.
                with suppress(OSError):
                    os.link(stolen, path)
            with suppress(OSError):
                os.unlink(stolen)
        return recovered

    # steps 4-5: run locally, move results back to the share.

    def run_one(self, worker_id: str, runner: CampaignRunner,
                seed: int | None = None, git_rev: str | None = None,
                tracer=None) -> str | None:
        """Claim and run exactly one experiment; returns its name or
        None when the queue is drained.  It writes the claim, the
        result and the run manifest, and nothing else: the claim
        without a result is what names the running experiment."""
        exp_name = self.claim(worker_id)
        if exp_name is None:
            return None
        with open(os.path.join(self.share_dir, "todo", exp_name + ".txt"),
                  "r", encoding="utf-8") as handle:
            fault_text = handle.read()
        faults = parse_fault_file(fault_text)
        if seed is None:
            seed = self.published().get("seed")
        started = self._clock()
        span = None
        if tracer is not None:
            span = tracer.start(exp_name, kind="experiment",
                                experiment=exp_name)
        result = runner.run_experiment(faults, seed=seed)
        if span is not None:
            tracer.finish(span)
        out = os.path.join(self.share_dir, "results", exp_name + ".json")
        write_atomic(out, json.dumps(result.as_dict()))
        extra = {"replay_start": result.replay_start,
                 "early_exit": result.early_exit}
        if result.divergence is not None:
            extra["divergence"] = result.divergence
        if result.propagation is not None:
            extra["propagation"] = result.propagation
        manifest = run_manifest(
            experiment=exp_name,
            workload=self.workload_name, scale=self.scale,
            fault_text=fault_text, seed=seed, worker=worker_id,
            started=started, wall_seconds=result.wall_seconds,
            outcome=result.outcome.value, git_rev=git_rev,
            extra=extra)
        manifest_path = os.path.join(self.share_dir, MANIFEST_DIR,
                                     exp_name + ".json")
        write_atomic(manifest_path,
                     json.dumps(manifest, indent=2, sort_keys=True))
        return exp_name

    def worker_loop(self, worker_id: str, runner: CampaignRunner,
                    tracer=None) -> int:
        completed = 0
        seed = self.published().get("seed")
        git_rev = git_describe()
        write_heartbeat(self.share_dir, worker_id, completed,
                        clock=self._clock)

        # A beat at the start and the end, and a daemon thread beating
        # every HEARTBEAT_INTERVAL in between: a long experiment must
        # not let this worker's heartbeat age out (the liveness-based
        # recovery above would then hand its claim to somebody else).
        # PeriodicBeat joins the thread on exit, so embedding this loop
        # in a long-lived process (the service dispatcher runs one per
        # job) never leaks beat threads across jobs.
        def _beat() -> None:
            try:
                write_heartbeat(self.share_dir, worker_id, completed,
                                clock=self._clock)
            except OSError:
                pass  # share hiccup; next beat retries

        with PeriodicBeat(HEARTBEAT_INTERVAL, _beat,
                          name=f"heartbeat-{worker_id}"):
            while self.run_one(worker_id, runner, seed=seed,
                               git_rev=git_rev, tracer=tracer):
                completed += 1
        write_heartbeat(self.share_dir, worker_id, completed,
                        clock=self._clock)
        return completed

    def published(self) -> dict:
        """The ``workload.json`` that ``publish`` wrote: name, scale,
        seed and flight interval, plus ``trace`` and ``request`` when
        set.  Empty for a hand-built queue without one."""
        path = os.path.join(self.share_dir, "workload.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                workload = json.load(handle)
        except (OSError, ValueError):
            return {}
        return workload if isinstance(workload, dict) else {}

    def collect(self) -> list[dict]:
        return [result.record for result in read_results(self.share_dir)]

    # orchestration: run the workers (one per local "workstation").

    def run_local(self, workers: int = 2,
                  runner: CampaignRunner | None = None) -> None:
        """Drain the published campaign on this host.  Given a *runner*
        and ``workers <= 1``, worker ``ws0`` runs in this process with
        it; otherwise workers ``ws0 … wsN-1`` are forked, each loading
        ``golden.pkl``.  Read the results from the share afterwards
        (:meth:`collect` or ``read_results``)."""
        workers = max(1, workers)
        workload = self.published()
        tracer = None
        if workload.get("trace"):
            # The coordinator owns the campaign root span; workers
            # parent their experiment spans under it by id arithmetic
            # (same seed -> same ids), so no handshake is needed.
            # When the service published the campaign from an HTTP
            # request, the request's span id becomes the root's
            # parent — ids and paths are untouched, so the workers'
            # arithmetic still holds.
            request = workload.get("request") or {}
            tracer = Tracer(
                TraceContext(workload.get("seed")),
                sink=JsonlSpanSink(
                    span_log_path(self.share_dir, "coordinator")),
                worker="coordinator",
                root_parent=request.get("span"))
            root_attrs = {}
            if request.get("id"):
                root_attrs["request_id"] = request["id"]
            root = tracer.start("campaign", kind="campaign",
                                workload=self.workload_name,
                                scale=self.scale, workers=workers,
                                **root_attrs)
        try:
            if runner is not None and workers == 1:
                self._drain("ws0", runner, workload)
            else:
                git_describe()  # once here; forked workers inherit it
                processes = [multiprocessing.Process(
                    target=_worker_main,
                    args=(self.share_dir, f"ws{index}",
                          self.workload_name, self.scale))
                    for index in range(workers)]
                for process in processes:
                    process.start()
                for process in processes:
                    process.join()
        finally:
            if tracer is not None:
                # Counted by name, not read: the caller reads the
                # share once.
                names = os.listdir(
                    os.path.join(self.share_dir, "results"))
                tracer.finish(root, results=sum(
                    name.endswith(".json") for name in names))
                tracer.close()

    def _drain(self, worker_id: str, runner: CampaignRunner,
               workload: dict) -> None:
        """One worker's set-up around :meth:`worker_loop`, shared by the
        in-process and the forked worker: the published flight
        recorder, and a span tracer when the campaign is traced.  The
        tracer is detached afterwards, because an in-process worker's
        runner outlives the campaign."""
        if workload.get("flight"):
            runner.enable_flight(workload["flight"])
        tracer = None
        if workload.get("trace"):
            tracer = Tracer(
                TraceContext(workload.get("seed")),
                sink=JsonlSpanSink(
                    span_log_path(self.share_dir, worker_id)),
                worker=worker_id, base_path=CAMPAIGN_PATH)
            runner.enable_tracing(tracer)
        try:
            self.worker_loop(worker_id, runner, tracer=tracer)
        finally:
            if tracer is not None:
                runner.tracer = None
                tracer.close()


def load_golden(share_dir: str) -> GoldenRun:
    """The coordinator's published golden run (``golden.pkl``: outputs,
    profile, checkpoint and ladder).  A pickle, so only ever load it
    from a share you trust.  A missing or corrupt file raises
    SystemExit with a one-line message."""
    path = os.path.join(share_dir, "golden.pkl")
    try:
        with open(path, "rb") as handle:
            golden = pickle.load(handle)
    except Exception as exc:  # unpickling corrupt bytes raises anything
        detail = " ".join(str(exc).split())
        raise SystemExit(f"gemfi worker: cannot load {path}: "
                         f"{type(exc).__name__}: {detail}") from None
    if not isinstance(golden, GoldenRun):
        raise SystemExit(f"gemfi worker: {path} holds a "
                         f"{type(golden).__name__}, not a golden run")
    return golden


def _worker_main(share_dir: str, worker_id: str, workload_name: str,
                 scale: str) -> None:
    """Entry point of one worker process: rebuild the workload spec and
    a runner around the published golden run (no golden simulation),
    then drain the queue."""
    from ..workloads import build
    golden = load_golden(share_dir)
    runner = CampaignRunner(build(workload_name, scale), golden=golden)
    campaign = SharedDirCampaign(share_dir, workload_name, scale)
    campaign._drain(worker_id, runner, campaign.published())


def outcome_counts(result_dicts: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for entry in result_dicts:
        counts[entry["outcome"]] = counts.get(entry["outcome"], 0) + 1
    return counts
