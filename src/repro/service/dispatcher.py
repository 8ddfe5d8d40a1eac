"""Lease-based job dispatch onto the shared-dir campaign protocol.

The dispatcher is the service's execution half: it drains the
persistent queue, runs each job as a campaign on a **private share**
under the service data directory (``shares/<job-id>``), and records
the SHA-256 digest of the job's canonical result set.  The share is
all a finished job leaves: its results, report, summary and
comparisons are derived from it on request, and the results are
checked against the digest on every read.  Each job is one
:meth:`~repro.campaign.now.SharedDirCampaign.publish` and one
:meth:`~repro.campaign.now.SharedDirCampaign.run_local` — the paper's
NoW protocol, exactly as ``gemfi campaign --share-dir`` runs it.  A
``workers: 0`` or ``1`` job runs its one worker in the dispatcher
process with a cached :class:`~repro.campaign.runner.CampaignRunner`
(identical golden runs are computed once per (workload, scale)); more
workers are forked and load the published golden run.

While a job runs, a :class:`~repro.telemetry.campaign.PeriodicBeat`
thread keeps extending the lease, so slow campaigns are not stolen;
if the dispatcher dies instead, the lease expires and
``requeue_expired`` hands the job to the next dispatcher — crash
recovery without a coordinator.

With an observer attached the dispatcher times every job phase
(golden run, publish, campaign, collect, and ``report``: hashing the
canonical result set) into histograms and meters completed work per tenant into
the queue's persistent usage table.  A job submitted with
``trace: true`` gets its span tree rooted at the HTTP request that
created it: the dispatcher writes a ``/request`` span (stamped with
the request id recorded at submit time) and hands the request's span
id down through ``publish``, so ``run_local`` parents the campaign
root under it.
"""

from __future__ import annotations

import json
import os
import threading
import time

from ..campaign import CampaignRunner, SEUGenerator, SharedDirCampaign
from ..telemetry.campaign import (
    SERVICE_FILE,
    HostTime,
    PeriodicBeat,
    canonical_json_bytes,
    digest_bytes,
    read_results,
    write_atomic,
)
from ..telemetry.spans import (JsonlSpanSink, TraceContext, Tracer,
                               span_log_path)
from ..workloads import build
from .jobs import Job, canonical_results
from .observability import PHASE_BOUNDS
from .queue import JobQueue, LeaseError

#: path of the originating-request span in a service-traced campaign.
REQUEST_PATH = "/request"


class Dispatcher:
    def __init__(self, queue: JobQueue, data_dir: str,
                 lease_seconds: float = 600.0,
                 poll_seconds: float = 0.5, owner: str | None = None,
                 observer=None, clock=time.time) -> None:
        self.queue = queue
        self.data_dir = data_dir
        self.shares_dir = os.path.join(data_dir, "shares")
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        self.owner = owner or f"dispatcher-{os.getpid()}"
        self.observer = observer
        self._clock = clock
        # Golden runs are the expensive part of a job; identical
        # (workload, scale) pairs share one runner within this process.
        self._runners: dict[tuple[str, str], CampaignRunner] = {}
        os.makedirs(self.shares_dir, exist_ok=True)

    # -- runners --------------------------------------------------------------

    def runner_for(self, workload: str, scale: str) -> CampaignRunner:
        key = (workload, scale)
        if key not in self._runners:
            self._runners[key] = CampaignRunner(build(workload, scale))
        return self._runners[key]

    # -- phase timing ---------------------------------------------------------

    def _phase_done(self, phase: str, started: float) -> None:
        if self.observer is not None:
            self.observer.observe("job.phase_seconds",
                                  time.monotonic() - started,
                                  bounds=PHASE_BOUNDS, phase=phase)

    # -- one job --------------------------------------------------------------

    def run_job(self, job: Job) -> str:
        """Execute one leased job end to end; returns the digest of its
        canonical result set for :meth:`JobQueue.complete`."""
        spec = job.spec
        share_dir = os.path.join(self.shares_dir, job.id)
        phase_started = time.monotonic()
        runner = self.runner_for(spec.workload, spec.scale)
        campaign = SharedDirCampaign(share_dir, spec.workload, spec.scale)
        self.queue.record_share(job.id, share_dir)
        # The service marker: `gemfi status` on this share names the
        # owning job and tenant.
        write_atomic(os.path.join(share_dir, SERVICE_FILE),
                     json.dumps({"job": job.id, "tenant": job.tenant}))
        self._phase_done("golden", phase_started)

        location = None
        if spec.location is not None:
            from ..core import LocationKind
            location = LocationKind(spec.location)
        generator = SEUGenerator(runner.golden.profile, seed=spec.seed)
        faults = generator.batch(spec.experiments, location=location)
        phase_started = time.monotonic()
        campaign.publish(runner, faults, seed=spec.seed, trace=spec.trace,
                         request=self._trace_request(job, share_dir))
        self._phase_done("publish", phase_started)

        def _extend() -> None:
            try:
                self.queue.extend_lease(job.id, self.owner,
                                        self.lease_seconds)
            except Exception:
                pass  # queue hiccup; the next beat retries

        phase_started = time.monotonic()
        with PeriodicBeat(max(1.0, self.lease_seconds / 3.0),
                          _extend, name=f"lease-{job.id}"):
            campaign.run_local(spec.workers, runner=runner)
        self._phase_done("campaign", phase_started)
        phase_started = time.monotonic()
        # The job's one read of its results: usage and the result
        # digest both fold these.
        results = read_results(share_dir)
        self._phase_done("collect", phase_started)
        if len(results) != spec.experiments:
            raise RuntimeError(
                f"job {job.id}: {len(results)} results for "
                f"{spec.experiments} experiments")
        records = [result.record for result in results]
        self._record_usage(job, records)
        phase_started = time.monotonic()
        result_digest = digest_bytes(
            canonical_json_bytes(canonical_results(records)))
        self._phase_done("report", phase_started)
        return result_digest

    # -- request-rooted tracing -----------------------------------------------

    def _trace_request(self, job: Job, share_dir: str) -> dict | None:
        """For a traced job, write the originating-request span and
        return the context (``{"span", "id"}``) that ``publish``
        records for ``run_local``'s campaign root."""
        if not job.spec.trace:
            return None
        context = TraceContext(job.spec.seed)
        request = {"span": context.span_id(REQUEST_PATH)}
        if job.request_id:
            request["id"] = job.request_id
        tracer = Tracer(context,
                        sink=JsonlSpanSink(
                            span_log_path(share_dir, "service")),
                        worker="service")
        attrs = {"kind": "request", "job": job.id,
                 "tenant": job.tenant}
        if job.request_id:
            attrs["request_id"] = job.request_id
        # Retro-recorded: the request span covers submit -> lease,
        # timestamps the queue already persisted.
        tracer.record("request", t0=job.submitted,
                      t1=job.started if job.started is not None
                      else self._clock(), **attrs)
        tracer.close()
        return request

    # -- usage metering -------------------------------------------------------

    def _record_usage(self, job: Job, results: list[dict]) -> None:
        """Meter the completed campaign against its tenant, from the
        *raw* results (canonicalisation strips wall_seconds)."""
        try:
            host = HostTime()
            for entry in results:
                host.add(entry)
            self.queue.record_usage(
                job.tenant, jobs=1, experiments=len(results),
                instructions=host.instructions,
                wall_seconds=host.wall_total)
        except Exception:
            pass  # metering must never fail the job

    # -- the dispatch loop ----------------------------------------------------

    def poll_once(self) -> bool:
        """Recover expired leases, then lease and run at most one job.
        Returns True when a job was processed."""
        self.queue.requeue_expired()
        job = self.queue.lease(self.owner,
                               lease_seconds=self.lease_seconds)
        if job is None:
            return False
        try:
            result_digest = self.run_job(job)
        except Exception as exc:
            if self.observer is not None:
                self.observer.inc("jobs.executed", outcome="failed")
            try:
                self.queue.fail(job.id,
                                error=f"{type(exc).__name__}: {exc}",
                                owner=self.owner)
            except LeaseError:
                pass  # lease already reassigned; its holder decides
            return True
        if self.observer is not None:
            self.observer.inc("jobs.executed", outcome="done")
        try:
            self.queue.complete(job.id, owner=self.owner,
                                result_digest=result_digest)
        except LeaseError:
            pass  # ran past our lease; the re-run's verdict wins
        return True

    def run_forever(self, stop: threading.Event) -> None:
        """Dispatch until *stop* is set.  An empty queue parks the loop
        on the queue's wake-up event, which a submit or requeue in this
        process sets; ``poll_seconds`` only bounds the wait, for lease
        expiry and for jobs queued by other processes.  Whoever sets
        *stop* must also set the event to end a wait early."""
        wakeup = self.queue.wakeup
        while not stop.is_set():
            # Cleared before the lease looks, so a job queued after
            # that look leaves the event set and the wait returns.
            wakeup.clear()
            if not self.poll_once():
                wakeup.wait(self.poll_seconds)
