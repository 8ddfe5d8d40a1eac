"""The ``gemfi serve`` workload: a real service subprocess on port 0,
one job in flight, each job forking shared-dir workers.

Every fresh job (the write path) is followed by resubmitting its
identical spec, a born-``done`` dedup hit, and a results fetch (the
read path).  Server-side timers come from the job record
(``submitted``/``started``/``finished``), ``/metrics``
``job_phase_seconds`` deltas and the job share's run manifests and raw
result records; client-side ones from timing the ``ServiceClient``
calls.

A run submits every batch of its pool once, in the order ``--seed``
gives, then cycles through them again (``reuse: false``, so each is
computed afresh) until ``--seconds`` have passed.  A job's two workers
fill both cores, so the host cannot be calibrated while a job runs:
calibrations are taken while the server is idle, before each job and
around each set-up, and the run's times are scaled to the reference
host by the mean of all of them.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (PHASES, SRC, WORK_DIR, Oracle, OracleMismatch, Spans,
                     PairedCalibration, Tally, Workload, calibrations,
                     host_factor, log,
                     median_rate, overhead, peak_rss_mb, quantile,
                     run_order, sim_layers, warmup_seed)

#: set-ups per run (setup_s is their median); one takes ~5 s, most of it
#: the golden runs of the warm-up job.
SETUP_REPEATS = 3
#: calibration loops before each job and before and after each set-up
IDLE_CALIBRATIONS = 5
#: client poll while a job runs; ServiceClient.wait's 0.5 s default
#: would quantise job_s into half-second steps.
POLL_SECONDS = 0.05
JOB_TIMEOUT = 120.0
TERMINAL = ("done", "failed", "cancelled")
#: dispatcher phase -> span name, in execution order.
DISPATCH_PHASES = (("golden", "dispatch.golden"),
                   ("publish", "share.publish"),
                   ("campaign", "dispatch.campaign"),
                   ("collect", "share.collect"),
                   ("report", "dispatch.report"))
_PHASE_SUM = re.compile(
    r'^job_phase_seconds_sum\{phase="(\w+)"\} (\S+)$', re.M)


class Server:
    """One ``gemfi serve`` subprocess with a fresh data dir.  ``stop``
    interrupts it like Ctrl-C, reaps it (and so its forked workers) and
    deletes the data dir."""

    def __init__(self, data_dir: Path) -> None:
        self.data_dir = data_dir
        self.log_path = data_dir.with_suffix(".log")
        self.process: subprocess.Popen | None = None
        self.url: str | None = None

    def start(self, timeout: float = 60.0) -> "Server":
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.data_dir.parent.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.log_path, "w", encoding="utf-8") as log_file:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 str(self.data_dir), "--port", "0"],
                stdout=subprocess.DEVNULL, stderr=log_file, env=env,
                start_new_session=True)
        deadline = time.monotonic() + timeout
        while self.url is None:
            if self.process.poll() is not None:
                raise RuntimeError(f"gemfi serve exited: {self._tail()}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"gemfi serve not up: {self._tail()}")
            time.sleep(0.01)
            match = re.search(r"# gemfi service on (\S+)", self._tail())
            if match:
                self.url = match.group(1)
        return self

    def _tail(self) -> str:
        try:
            return self.log_path.read_text(encoding="utf-8")[-2000:]
        except OSError:
            return ""

    def stop(self) -> None:
        process = self.process
        if process is not None and process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
        self.process = None
        shutil.rmtree(self.data_dir, ignore_errors=True)
        try:
            self.log_path.unlink()
        except OSError:
            pass


def job_spec(workload: Workload, seed: int) -> dict:
    return {"workload": workload.app, "scale": workload.scale,
            "experiments": workload.batch, "seed": seed, "workers": 2}


def submit_and_wait(client, spec: dict, timeout: float = JOB_TIMEOUT,
                    reuse: bool = True):
    """Submit *spec* and poll its record until terminal.  Returns
    (job, t_submit, t_response, t_done); job is None on timeout."""
    t_submit = time.time()
    job = client.submit(spec, reuse=reuse)
    t_response = time.time()
    deadline = t_submit + timeout
    while job["state"] not in TERMINAL:
        if time.time() >= deadline:
            return None, t_submit, t_response, time.time()
        time.sleep(POLL_SECONDS)
        job = client.job(job["id"])
    return job, t_submit, t_response, time.time()


def phase_sums(client) -> dict[str, float]:
    return {phase: float(value) for phase, value
            in _PHASE_SUM.findall(client.metrics_text())}


def read_share(share_dir: str, raw_results: bool):
    """Run manifests grouped by worker (sorted by start) and, when
    asked, the raw per-experiment result records (with ``phases``)."""
    workers: dict[str, list[dict]] = {}
    for path in sorted(Path(share_dir, "manifests").glob("exp_*.json")):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        workers.setdefault(manifest["worker"], []).append(manifest)
    for manifests in workers.values():
        manifests.sort(key=lambda m: m["started"])
    results = {}
    if raw_results:
        for path in Path(share_dir, "results").glob("exp_*.json"):
            results[path.stem] = json.loads(
                path.read_text(encoding="utf-8"))
    return workers, results


def read_golden(share_dir: str):
    """The dispatcher's golden run, as published into the share."""
    with open(Path(share_dir, "golden.pkl"), "rb") as handle:
        return pickle.load(handle)


class ServeRun:
    """State of one serve workload run."""

    def __init__(self, workload: Workload, seed: int, trace: bool,
                 pool: str, job_timeout: float = JOB_TIMEOUT) -> None:
        self.workload = workload
        self.seed = seed
        self.pool = pool
        self.trace = trace
        self.job_timeout = job_timeout
        self.spans = Spans(trace)
        self.oracle = Oracle(workload.name, pool)
        self.tally = Tally()
        self.cals: list[float] = []         # every calibration of the run
        self.single: list[float] = []
        self.calibrate = None
        self.setups: list[float] = []       # s, spawn -> warm-up done
        self.job_s: dict[int, list[float]] = {}   # seed -> submit -> done
        self.exp_ms: list[float] = []       # manifest gaps
        self.exp_wall: list[float] = []
        self.worker_mean: list[float] = []
        self.goldens: list = []
        # [experiments, seconds] of untraced / traced fresh jobs
        self.rate = {False: [0, 0.0], True: [0, 0.0]}

    # -- set-up ---------------------------------------------------------------

    def setup(self, tag: str):
        """Spawn a server on a fresh data dir and run the warm-up job;
        set-up time is spawn -> warm-up done.  Returns (server, client);
        on any failure both are closed before the error propagates."""
        from repro.service import ServiceClient
        seed = warmup_seed(self.workload, self.pool)
        server = Server(WORK_DIR / f"serve-{os.getpid()}-{tag}")
        client = None
        self._calibrate()
        t0 = time.time()
        try:
            server.start()
            t_up = time.time()
            client = ServiceClient(server.url)
            job, t_submit, _, t_done = submit_and_wait(
                client, job_spec(self.workload, seed), self.job_timeout)
            if job is None or job["state"] != "done":
                raise RuntimeError(f"warm-up job did not finish: {job}")
            self.setups.append(t_done - t0)
            self._calibrate()
            setup = self.spans.add("setup", t0, t_done)
            self.spans.add("server.start", t0, t_up, setup)
            self.spans.add("warmup.job", t_submit, t_done, setup)
            self.goldens.append(read_golden(job["share_dir"]))
            self.oracle.check(seed, [entry["outcome"] for entry
                                     in client.results(job["id"])])
        except BaseException:
            if client is not None:
                client.close()
            server.stop()
            raise
        return server, client

    # -- one fresh job + its dedup twin ---------------------------------------

    def job_pair(self, client, seed: int, traced: bool) -> None:
        from repro.service import ServiceError
        spec = job_spec(self.workload, seed)
        batch = self.workload.batch
        self.tally.attempted += batch
        self._calibrate()
        before = phase_sums(client) if traced else None
        try:
            job, t_submit, t_response, t_done = submit_and_wait(
                client, spec, self.job_timeout, reuse=False)
        except ServiceError as exc:
            log(f"submit seed {seed}: {exc}")
            self.tally.failed += batch
            return
        if job is None or job["state"] != "done":
            log(f"job seed {seed}: "
                f"{'timed out' if job is None else job['state']} "
                f"{(job or {}).get('error') or ''}")
            self.tally.failed += batch
            return
        job_seconds = t_done - t_submit
        self.job_s.setdefault(seed, []).append(job_seconds)
        self.rate[traced][0] += batch
        self.rate[traced][1] += job_seconds
        workers, results = read_share(job["share_dir"], traced)
        for manifests in workers.values():
            gaps = [1000 * (b["started"] - a["started"])
                    for a, b in zip(manifests, manifests[1:])]
            self.exp_ms.extend(gaps)
            self.exp_wall.extend(1000 * m["wall_seconds"]
                                 for m in manifests)
            if gaps:
                self.worker_mean.append(statistics.fmean(gaps))

        # the read path: identical spec -> born done, then fetch
        t0 = time.time()
        try:
            twin = client.submit(spec)
            t1 = time.time()
            fetched = client.results(twin["id"])
        except ServiceError as exc:
            log(f"dedup seed {seed}: {exc}")
            self.tally.failed += batch
            return
        t2 = time.time()
        if twin["state"] != "done" \
                or twin["result_digest"] != job["result_digest"]:
            raise OracleMismatch(
                f"dedup of seed {seed} answered {twin['state']} "
                f"{twin['result_digest']} != {job['result_digest']}")
        self.oracle.check(seed, [entry["outcome"] for entry in fetched])
        if traced:
            deltas = {phase: value - before.get(phase, 0.0)
                      for phase, value in phase_sums(client).items()}
            self._job_spans(job, seed, (t_submit, t_response, t_done),
                            deltas, workers, results)
            dedup = self.spans.add("dedup", t0, t2, seed=seed)
            self.spans.add("http.results", t1, t2, dedup)

    def _job_spans(self, job, seed, times, deltas, workers,
                   results) -> None:
        spans = self.spans
        t_submit, t_response, t_done = times
        root = spans.add("job", t_submit, t_done, seed=seed)
        spans.add("http.submit", t_submit, t_response, root)
        spans.add("queue.wait", job["submitted"], job["started"], root)
        edge = job["started"]
        campaign = None
        for phase, name in DISPATCH_PHASES:
            span = spans.add(name, edge, edge + deltas.get(phase, 0.0),
                             root)
            edge = span.t1
            if phase == "campaign":
                campaign = span
        spans.add("poll.lag", job["finished"], t_done, root)
        for worker, manifests in workers.items():
            spans.add("worker.setup", job["started"],
                      manifests[0]["started"], root, worker=worker)
            for k, manifest in enumerate(manifests):
                started = manifest["started"]
                result = results.get(manifest["experiment"], {})
                exp = spans.add("worker.experiment", started,
                                started + manifest["wall_seconds"],
                                campaign, worker=worker,
                                instructions=result.get("instructions",
                                                        0))
                phases = result.get("phases") or {}
                spans.seq(exp, started, [(name, phases.get(key, 0.0))
                                         for name, key in PHASES])
                if k + 1 < len(manifests):
                    spans.add("share.protocol", exp.t1,
                              manifests[k + 1]["started"], campaign)

    # -- the whole run --------------------------------------------------------

    def run(self, seconds: float) -> dict:
        server = client = None
        self.calibrate = PairedCalibration()
        try:
            for index in range(SETUP_REPEATS):
                if client is not None:
                    client.close()
                    server.stop()
                server, client = self.setup(str(index))
            order = run_order(self.workload, self.pool, self.seed)
            deadline = time.time() + seconds
            index = 0
            # a traced run alternates untraced and traced jobs; every
            # pool has more than two, so it runs at least one of each
            while index < len(order) or time.time() < deadline:
                self.job_pair(client, order[index % len(order)],
                              self.trace and index % 2 == 1)
                index += 1
        finally:
            # close the keep-alive connection first, or the server logs
            # a CancelledError from its parked read_request on shutdown
            if client is not None:
                client.close()
            if server is not None:
                server.stop()
            self.calibrate.close()
        return self.result()

    def _calibrate(self) -> None:
        if self.calibrate is None:
            cals = calibrations(IDLE_CALIBRATIONS)
        else:
            cals = self.calibrate(IDLE_CALIBRATIONS)
        self.cals.extend(cals)
        self.single.extend(cals[:IDLE_CALIBRATIONS])

    def result(self) -> dict:
        batch = self.workload.batch
        scale = host_factor(self.cals)
        per_seed = [statistics.median(times)
                    for times in self.job_s.values()]
        exp_ms = self.exp_ms or [0.0]
        e2e = {
            "setup_s": (scale * statistics.median(self.setups), "s"),
            # Σ experiments / Σ submit -> done over the pool's jobs
            "experiments_per_s": (batch * len(per_seed)
                                  / (scale * sum(per_seed))
                                  if per_seed else 0.0, "1/s"),
            "experiment_ms_p50": (scale * statistics.median(exp_ms), "ms"),
            "experiment_ms_p90": (scale * quantile(exp_ms, 90), "ms"),
            "job_s_p50": (scale * statistics.median(per_seed)
                          if per_seed else 0.0, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        unscaled = {
            "host.factor": (scale, "x"),
            "wall.setup_s": (statistics.median(self.setups), "s"),
            "wall.experiments_per_s": (median_rate(batch, per_seed),
                                       "1/s"),
            "wall.experiment_ms_p50": (statistics.median(exp_ms), "ms"),
            "wall.job_s_p50": (statistics.median(per_seed)
                               if per_seed else 0.0, "s"),
            "wall.x1_exp_p50": (host_factor(self.single)
                                * statistics.median(exp_ms), "ms"),
            "wall.x1_exp_p90": (host_factor(self.single)
                                * quantile(exp_ms, 90), "ms"),
            "wall.x1_job": (host_factor(self.single)
                            * statistics.median(per_seed), "s"),
        }
        return {"e2e": e2e, "unscaled": unscaled,
                "layers": self.layers() if self.trace else {},
                "tally": self.tally, "spans": self.spans,
                "samples": {"jobs": sum(map(len, self.job_s.values())),
                            "experiment_intervals": len(self.exp_ms)}}

    def layers(self) -> dict:
        spans = self.spans
        layers = sim_layers(spans, self.goldens, "worker.experiment")
        layers.update({
            "share.first_experiment_s": (spans.mean("worker.setup"), "s"),
            "share.protocol_ms": (spans.mean("share.protocol", 1000),
                                  "ms"),
            "share.publish_s": (spans.mean("share.publish"), "s"),
            "share.collect_s": (spans.mean("share.collect"), "s"),
            "queue.wait_s": (spans.mean("queue.wait"), "s"),
            "dispatch.golden_s": (spans.mean("dispatch.golden"), "s"),
            "dispatch.campaign_s": (spans.mean("dispatch.campaign"), "s"),
            "dispatch.report_s": (spans.mean("dispatch.report"), "s"),
            "http.submit_ms": (spans.mean("http.submit", 1000), "ms"),
            "http.results_ms": (spans.mean("http.results", 1000), "ms"),
            "dedup.job_ms": (spans.mean("dedup", 1000), "ms"),
            "trace.overhead_frac": (overhead(self.rate), "fraction"),
        })
        return layers


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        pool: str) -> dict:
    return ServeRun(workload, seed, trace, pool).run(seconds)
