"""The campaign service API and its composition root.

ProFIPy-style FIaaS surface over the job queue and the dispatcher::

    GET    /v1/healthz               liveness + queue summary
    POST   /v1/jobs                  submit a workload+fault-config job
    GET    /v1/jobs[?tenant=]        list jobs + per-tenant state counts
    GET    /v1/jobs/{id}             one job
    DELETE /v1/jobs/{id}             cancel (queued jobs only)
    GET    /v1/jobs/{id}/status      job + live campaign share status
    GET    /v1/jobs/{id}/events      chunked JSONL: status + watchdog
                                     alerts until the job is terminal
    GET    /v1/jobs/{id}/report      outcome report (md/html)
    GET    /v1/jobs/{id}/results     canonical result set (JSON),
                                     checked against result_digest
    GET    /v1/jobs/{id}/summary     campaign summary of the share
    GET    /v1/blobs/{digest}        the result set with this digest
    GET    /v1/usage[?tenant=]       persisted per-tenant metering
    GET    /v1/baselines             named baselines
    POST   /v1/baselines             tag a done job as a baseline
    GET    /v1/compare?base=&head=   significance-tested campaign diff
                                     (operands: job ids or baselines)
    GET    /metrics                  OpenMetrics exposition
    GET    /ui/...                   the embedded web console (opt-in)

Status and event streams are the existing telemetry health plane —
``read_status`` and the watchdog rules — evaluated over the job's
private share directory; the service adds no second source of truth.
Results, reports, summaries and compares are derived the same way,
from the job's share, and a job without one answers 404.  The result
set is canonicalised on every read and checked against the job's
``result_digest``: a share edited after its job finished answers 409.
The same discipline holds for ``/metrics``: every counter is hung off
one shared :class:`~repro.service.observability.ServiceObserver` by
the layer that owns the event (HTTP handler, queue, dispatcher), and
the handler only refreshes the point-in-time gauges (queue depth,
usage totals) at scrape time.

:class:`Service` wires queue + dispatcher + HTTP server into one
deployable unit (``gemfi serve``).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time

from ..telemetry.campaign import (
    canonical_json_bytes,
    digest_bytes,
    read_results,
    read_status,
)
from ..telemetry.export import (
    OPENMETRICS_CONTENT_TYPE,
    render_openmetrics,
)
from ..telemetry.watchdog import evaluate_alerts
from .dispatcher import Dispatcher
from .http import (
    HTTPError,
    Request,
    Response,
    Router,
    bound_port,
    start_http_server,
)
from .jobs import JobSpec, JobSpecError, canonical_results, is_integer
from .observability import HELP_TEXTS, LOG_DIR, ServiceObserver
from .queue import USAGE_FIELDS, JobQueue, QuotaExceeded, UnknownJobError

_HEX = frozenset("0123456789abcdef")


def _jsonl(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def _query_int(request: Request, name: str,
               default: int | None = None) -> int | None:
    """An integer query parameter, or a clean 400 (never an unhandled
    500) on garbage input."""
    raw = request.query.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise HTTPError(
            400, f"{name} must be an integer, got {raw!r}") from None


def _query_float(request: Request, name: str,
                 default: float | None = None) -> float | None:
    """A finite float query parameter, or a clean 400."""
    raw = request.query.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = float(raw)
    except ValueError:
        raise HTTPError(
            400, f"{name} must be a number, got {raw!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise HTTPError(400, f"{name} must be finite, got {raw!r}")
    return value


class ServiceApp:
    """Endpoint handlers over a job queue."""

    def __init__(self, queue: JobQueue,
                 observer: ServiceObserver | None = None,
                 ui: bool = False,
                 clock=time.time) -> None:
        self.queue = queue
        self.observer = observer
        self._clock = clock
        self.router = Router()
        add = self.router.add
        add("GET", "/v1/healthz", self.healthz)
        add("POST", "/v1/jobs", self.submit)
        add("GET", "/v1/jobs", self.list_jobs)
        add("GET", "/v1/jobs/{id}", self.job_detail)
        add("DELETE", "/v1/jobs/{id}", self.cancel)
        add("GET", "/v1/jobs/{id}/status", self.job_status)
        add("GET", "/v1/jobs/{id}/events", self.job_events)
        add("GET", "/v1/jobs/{id}/report", self.job_report)
        add("GET", "/v1/jobs/{id}/results", self.job_results)
        add("GET", "/v1/jobs/{id}/coverage", self.job_coverage)
        add("GET", "/v1/jobs/{id}/summary", self.job_summary)
        add("GET", "/v1/blobs/{digest}", self.blob)
        add("GET", "/v1/usage", self.usage)
        add("GET", "/v1/baselines", self.baselines_index)
        add("POST", "/v1/baselines", self.tag_baseline)
        add("GET", "/v1/compare", self.compare)
        add("GET", "/metrics", self.metrics)
        self.console = None
        if ui:
            from .console import Console
            self.console = Console(self)
            self.console.register(self.router)

    # -- helpers --------------------------------------------------------------

    def _job(self, request: Request):
        try:
            return self.queue.get(request.params["id"])
        except UnknownJobError:
            raise HTTPError(404,
                            f"no such job: {request.params['id']}") \
                from None

    @staticmethod
    def _share(job) -> str | None:
        if job.share_dir and os.path.isdir(job.share_dir):
            return job.share_dir
        return None

    # -- handlers -------------------------------------------------------------

    async def healthz(self, request: Request) -> Response:
        return Response.json({
            "ok": True,
            "queue_depth": self.queue.depth(),
            "tenants": self.queue.tenant_counts(),
        })

    async def submit(self, request: Request) -> Response:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HTTPError(400, "job submission must be a JSON "
                                 "object")
        # The X-Tenant header and the body's "tenant" may both name the
        # tenant, but not two different ones.
        tenant = request.headers.get("x-tenant") or None
        if "tenant" in payload:
            named = payload.pop("tenant")
            if not isinstance(named, str) or not named:
                raise HTTPError(400, "tenant must be a non-empty string")
            if tenant is not None and named != tenant:
                raise HTTPError(400, f"tenant '{named}' differs from "
                                     f"the X-Tenant header '{tenant}'")
            tenant = named
        tenant = tenant or "default"
        priority = payload.pop("priority", 0)
        reuse = payload.pop("reuse", True)
        if not is_integer(priority):
            raise HTTPError(400, "priority must be an integer")
        if not isinstance(reuse, bool):
            raise HTTPError(400, "reuse must be a boolean")
        try:
            spec = JobSpec.from_dict(payload)
        except JobSpecError as exc:
            raise HTTPError(400, str(exc)) from None
        try:
            job = self.queue.submit(spec, tenant=tenant,
                                    priority=priority, reuse=reuse,
                                    request_id=request.id or None)
        except QuotaExceeded as exc:
            raise HTTPError(429, str(exc)) from None
        # A dedup hit is born done (200); fresh submissions are 201.
        status = 200 if job.state == "done" else 201
        return Response.json({"job": job.as_dict()}, status=status)

    async def list_jobs(self, request: Request) -> Response:
        tenant = request.query.get("tenant")
        jobs = self.queue.list_jobs(tenant=tenant)
        return Response.json({
            "jobs": [job.as_dict() for job in jobs],
            "tenants": self.queue.tenant_counts(),
            "queue_depth": self.queue.depth(),
        })

    async def job_detail(self, request: Request) -> Response:
        return Response.json({"job": self._job(request).as_dict()})

    async def cancel(self, request: Request) -> Response:
        job = self._job(request)
        if not self.queue.cancel(job.id):
            raise HTTPError(
                409, f"job {job.id} is {job.state}; only queued jobs "
                     f"can be cancelled")
        return Response.json(
            {"job": self.queue.get(job.id).as_dict()})

    async def job_status(self, request: Request) -> Response:
        job = self._job(request)
        payload = {"job": job.as_dict()}
        share = self._share(job)
        if share is not None:
            payload["campaign"] = read_status(
                share, clock=self._clock).as_dict()
        return Response.json(payload)

    async def job_events(self, request: Request) -> Response:
        job = self._job(request)
        poll = max(0.05, _query_float(request, "poll", 0.5))
        limit = _query_int(request, "max", 0)
        queue = self.queue
        clock = self._clock

        async def stream():
            seen_alerts: set[tuple] = set()
            frames = 0
            while True:
                current = queue.get(job.id)
                frame = {"type": "status", "job": current.id,
                         "state": current.state, "time": clock()}
                share = self._share(current)
                alerts = []
                if share is not None:
                    # One snapshot feeds both the status and the rules.
                    snap, alerts = evaluate_alerts(share, clock=clock)
                    frame["campaign"] = snap.status.as_dict()
                yield _jsonl(frame)
                for alert in alerts:
                    if alert.key in seen_alerts:
                        continue
                    seen_alerts.add(alert.key)
                    entry = alert.as_dict()
                    entry["type"] = "alert"
                    entry["job"] = current.id
                    yield _jsonl(entry)
                frames += 1
                if current.terminal:
                    yield _jsonl({"type": "end", "job": current.id,
                                  "state": current.state,
                                  "result_digest":
                                      current.result_digest})
                    return
                if limit and frames >= limit:
                    return
                await asyncio.sleep(poll)

        return Response.streaming(stream())

    async def job_report(self, request: Request) -> Response:
        job = self._job(request)
        fmt = request.query.get("format", "md")
        if fmt not in ("md", "html"):
            raise HTTPError(400, "format must be md or html")
        share = self._share(job)
        if share is not None:
            from ..telemetry.report import load_share, render_report
            text = render_report(load_share(share), fmt=fmt)
            content_type = "text/html; charset=utf-8" \
                if fmt == "html" else "text/markdown; charset=utf-8"
            return Response.text(text, content_type=content_type)
        raise HTTPError(404, f"no report for job {job.id} yet")

    def _result_set(self, job) -> Response:
        """The canonical result set of *job*'s share, whose SHA-256 must
        be the job's ``result_digest``: the digest is a checked claim
        about the share, so an edited share answers 409, not bytes."""
        share = self._share(job)
        if not job.result_digest or share is None:
            raise HTTPError(404, f"no result set for job {job.id}")
        data = canonical_json_bytes(canonical_results(
            [result.record for result in read_results(share)]))
        actual = digest_bytes(data)
        if actual != job.result_digest:
            raise HTTPError(409, f"job {job.id}: share hashes to "
                                 f"{actual}, not {job.result_digest}")
        return Response.binary(data, content_type="application/json")

    async def job_results(self, request: Request) -> Response:
        return self._result_set(self._job(request))

    async def blob(self, request: Request) -> Response:
        """The result set with this digest: that of the newest done job
        that ran (not a dedup twin) and recorded it."""
        digest = request.params["digest"]
        if len(digest) != 64 or not set(digest) <= _HEX:
            raise HTTPError(400, f"not a digest: {digest}")
        job = self.queue.job_for_result(digest)
        if job is None:
            raise HTTPError(404, f"no result set {digest}")
        return self._result_set(job)

    async def job_coverage(self, request: Request) -> Response:
        """Fault-space coverage analytics for one job's share: space
        visited, per-dimension outcome heatmaps with Wilson-interval
        cells, margin convergence (repro.analysis.coverage)."""
        job = self._job(request)
        share = self._share(job)
        if share is None:
            raise HTTPError(404, f"no campaign share for job {job.id} "
                                 f"yet")
        from ..analysis.coverage import coverage_from_share
        payload = coverage_from_share(share).as_dict()
        return Response.json({"job": job.id, "coverage": payload})

    # -- summaries, baselines and differential analytics ---------------------

    def _summary_payload(self, ref: str) -> dict:
        """Resolve *ref* (a job id or baseline name) to the campaign
        summary payload of the job's share."""
        job_id = self.queue.resolve_baseline(ref) or ref
        try:
            job = self.queue.get(job_id)
        except UnknownJobError:
            raise HTTPError(404, f"no baseline or job: {ref}") from None
        share = self._share(job)
        if share is None:
            raise HTTPError(404, f"no campaign share for job {job.id}")
        from ..analysis.diff import CampaignSummary
        return CampaignSummary.from_share(share, name=job.id).payload

    async def job_summary(self, request: Request) -> Response:
        # The ref may be a baseline name, so resolve it the same way
        # /v1/compare does instead of requiring a literal job id.
        ref = request.params["id"]
        summary = self._summary_payload(ref)
        job_id = self.queue.resolve_baseline(ref) or ref
        return Response.json({"job": job_id, "summary": summary})

    async def baselines_index(self, request: Request) -> Response:
        return Response.json({"baselines": self.queue.baselines()})

    async def tag_baseline(self, request: Request) -> Response:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HTTPError(400, "baseline tagging must be a JSON "
                                 "object")
        name = payload.get("name")
        job_id = payload.get("job")
        if not isinstance(name, str) or not name:
            raise HTTPError(400, "baseline needs a non-empty name")
        if not isinstance(job_id, str) or not job_id:
            raise HTTPError(400, "baseline needs a job id")
        try:
            self.queue.tag_baseline(name, job_id)
        except UnknownJobError:
            raise HTTPError(404, f"no such job: {job_id}") from None
        except ValueError as exc:
            raise HTTPError(409, str(exc)) from None
        return Response.json(
            {"baseline": {"name": name, "job": job_id}}, status=201)

    def compare_payload(self, base: str, head: str,
                        confidence: float, margin: float) -> dict:
        """One code path for `/v1/compare` and the console's compare
        page, so both always show exactly the same numbers."""
        from ..analysis.diff import CampaignDiff, CampaignSummary
        try:
            diff = CampaignDiff(
                CampaignSummary.from_payload(
                    self._summary_payload(base)),
                CampaignSummary.from_payload(
                    self._summary_payload(head)),
                confidence=confidence, margin=margin)
        except ValueError as exc:
            raise HTTPError(400, str(exc)) from None
        return diff.payload

    async def compare(self, request: Request) -> Response:
        confidence = _query_float(request, "confidence", 0.95)
        margin = _query_float(request, "margin", 0.02)
        base = request.query.get("base")
        head = request.query.get("head")
        if not base or not head:
            raise HTTPError(400, "compare needs base= and head= "
                                 "(job ids or baseline names)")
        return Response.json({"compare": self.compare_payload(
            base, head, confidence, margin)})

    async def usage(self, request: Request) -> Response:
        tenant = request.query.get("tenant")
        return Response.json({"usage": self.queue.usage(tenant=tenant)})

    # -- metrics --------------------------------------------------------------

    def _refresh_gauges(self) -> None:
        """Point-in-time families recomputed at scrape time (counters
        and histograms accumulate where the events happen)."""
        observer = self.observer
        registry = observer.registry
        with observer._lock:
            for prefix in ("queue.depth", "queue.tenant_active",
                           "queue.tenant_quota", "usage.jobs",
                           "usage.experiments", "usage.instructions",
                           "usage.wall_seconds", "usage.kips"):
                registry.prune(prefix)
        observer.set_gauge("queue.depth", self.queue.depth())
        for tenant, states in sorted(self.queue.tenant_counts().items()):
            active = states.get("queued", 0) + states.get("leased", 0)
            observer.set_gauge("queue.tenant_active", active,
                               tenant=tenant)
            observer.set_gauge("queue.tenant_quota",
                               self.queue.quota(tenant), tenant=tenant)
        for tenant, totals in sorted(self.queue.usage().items()):
            for field in USAGE_FIELDS:
                observer.set_gauge(f"usage.{field}", totals[field],
                                   tenant=tenant)
            # Aggregate sim rate per tenant (KIPS, the paper's unit),
            # derived from the persisted metering so it survives
            # service restarts.
            wall = totals.get("wall_seconds") or 0.0
            if wall > 0:
                observer.set_gauge(
                    "usage.kips",
                    totals.get("instructions", 0) / wall / 1000.0,
                    tenant=tenant)

    async def metrics(self, request: Request) -> Response:
        if self.observer is None:
            raise HTTPError(404, "metrics are not enabled on this "
                                 "service")
        self._refresh_gauges()
        with self.observer._lock:
            text = render_openmetrics(self.observer.registry,
                                      help_texts=HELP_TEXTS)
        return Response.text(text,
                             content_type=OPENMETRICS_CONTENT_TYPE)


class Service:
    """queue + dispatcher + HTTP server, one data directory::

        data_dir/
          queue.db      the persistent job queue (SQLite WAL)
          shares/<job>  one campaign share per job: its only result set
          logs/         JSONL access + error logs (observability)

    A data dir written by an older version also holds ``store/``, a
    copy of each result set; nothing reads it.

    *ui* registers the embedded web console under ``GET /ui``; it never
    writes inside a job share, so same-seed campaign results stay
    byte-identical with the console enabled.
    """

    def __init__(self, data_dir: str, host: str = "127.0.0.1",
                 port: int = 0, default_quota: int = 0,
                 lease_seconds: float = 600.0,
                 poll_seconds: float = 0.5,
                 ui: bool = False,
                 clock=time.time) -> None:
        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        self.host = host
        self.requested_port = port
        self.port: int | None = None
        self.observer = ServiceObserver(
            log_dir=os.path.join(data_dir, LOG_DIR), clock=clock)
        self.queue = JobQueue(os.path.join(data_dir, "queue.db"),
                              default_quota=default_quota,
                              observer=self.observer, clock=clock)
        self.dispatcher = Dispatcher(
            self.queue, data_dir,
            lease_seconds=lease_seconds, poll_seconds=poll_seconds,
            observer=self.observer, clock=clock)
        self.app = ServiceApp(self.queue, observer=self.observer,
                              ui=ui, clock=clock)
        self._stop = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._http_thread: threading.Thread | None = None
        self._dispatch_thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------------

    def start_http(self) -> "Service":
        """Bind and serve the API on a daemon thread with its own
        event loop; returns once the port is bound."""
        started = threading.Event()
        failure: list[BaseException] = []

        def _serve() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                server = loop.run_until_complete(start_http_server(
                    self.app.router, self.host, self.requested_port,
                    observer=self.observer, closing=self._stop))
            except BaseException as exc:
                failure.append(exc)
                started.set()
                loop.close()
                return
            self.port = bound_port(server)
            started.set()
            try:
                loop.run_forever()
            finally:
                server.close()
                loop.run_until_complete(server.wait_closed())
                # Keep-alive connections may still be parked in
                # read_request; cancel their handler tasks so the
                # transports close while the loop can still run.
                tasks = asyncio.all_tasks(loop)
                for task in tasks:
                    task.cancel()
                if tasks:
                    loop.run_until_complete(asyncio.gather(
                        *tasks, return_exceptions=True))
                loop.close()

        self._http_thread = threading.Thread(
            target=_serve, name="service-http", daemon=True)
        self._http_thread.start()
        started.wait(timeout=10.0)
        if failure:
            raise RuntimeError(
                f"could not bind {self.host}:{self.requested_port}: "
                f"{failure[0]}") from failure[0]
        if self.port is None:
            raise RuntimeError("HTTP server did not start")
        return self

    def start_dispatcher(self) -> "Service":
        """Run the dispatch loop on a background thread (tests and
        embedded use; `gemfi serve` dispatches on the main thread so
        worker processes fork from there)."""
        self._dispatch_thread = threading.Thread(
            target=self.dispatcher.run_forever, args=(self._stop,),
            name="service-dispatcher", daemon=True)
        self._dispatch_thread.start()
        return self

    def start(self) -> "Service":
        return self.start_http().start_dispatcher()

    def dispatch_forever(self) -> None:
        """Blocking dispatch loop for the CLI main thread."""
        self.dispatcher.run_forever(self._stop)

    def stop(self) -> None:
        self._stop.set()
        self.queue.wakeup.set()     # end an idle dispatcher's wait
        if self._dispatch_thread is not None:
            self._dispatch_thread.join(timeout=30.0)
            self._dispatch_thread = None
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._http_thread is not None:
            self._http_thread.join(timeout=10.0)
            self._http_thread = None
