"""The service's observability plane: metrics, request ids, logs.

One :class:`ServiceObserver` is shared by every layer of the service —
the HTTP connection handler, the endpoint handlers, the job queue and
the dispatcher all hang their counters off the same
:class:`~repro.telemetry.metrics.MetricsRegistry`, which ``GET
/metrics`` renders as OpenMetrics text
(:func:`repro.telemetry.export.render_openmetrics`).

Beyond metrics, the observer owns:

* **request ids** — every HTTP request gets one (inbound
  ``X-Request-Id`` is honoured, else a fresh ``req-...`` is minted),
  echoed in the response header, stamped into the access log, carried
  by 500 bodies, and — for traced jobs — seeded into the campaign
  trace so the job's span tree roots at the request that created it;
* **structured logs** — JSONL access and error logs under
  ``data_dir/logs/``; the error log carries the full traceback that
  the (deliberately generic) 500 response body does not.

Everything is optional: the HTTP layer and the queue accept
``observer=None`` / ``metrics=None`` and pay only a pointer test when
observability is off — the same zero-overhead-when-disabled discipline
as the tracer and the profiler.
"""

from __future__ import annotations

import json
import os
import threading
import time
import traceback
import uuid

from ..telemetry.export import labelled
from ..telemetry.metrics import MetricsRegistry

LOG_DIR = "logs"
ACCESS_LOG = "access.jsonl"
ERROR_LOG = "error.jsonl"

#: request-latency buckets (seconds) — a control plane serving small
#: JSON documents, so sub-second resolution dominates.
LATENCY_BOUNDS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                  0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: job-phase buckets (seconds) — campaign phases run far longer.
PHASE_BOUNDS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
                120.0, 300.0, 600.0)

#: HELP text per rendered family name (post-sanitization).
HELP_TEXTS = {
    "http_requests": "HTTP requests served, by method/route/status "
                     "class.",
    "http_request_duration_seconds": "HTTP request latency by route.",
    "http_requests_in_flight": "Requests currently being handled.",
    "http_connections": "TCP connections accepted.",
    "http_connections_open": "TCP connections currently open.",
    "http_errors": "Requests that hit an unhandled exception (500).",
    "queue_jobs_submitted": "Jobs accepted into the queue, by tenant.",
    "queue_dedup_hits": "Submissions answered born-done from an "
                        "identical finished job.",
    "queue_quota_rejections": "Submissions rejected by tenant quota.",
    "queue_leases": "Jobs leased to a dispatcher.",
    "queue_requeued": "Expired leases returned to the queue.",
    "queue_jobs_finished": "Jobs reaching a terminal state, by state.",
    "queue_depth": "Jobs waiting for a dispatcher.",
    "queue_tenant_active": "Active (queued+leased) jobs, by tenant.",
    "queue_tenant_quota": "Active-job quota, by tenant (0 = "
                          "unlimited).",
    "job_phase_seconds": "Wall seconds per dispatcher job phase.",
    "jobs_executed": "Jobs executed by this dispatcher, by outcome.",
    "usage_jobs": "Completed jobs, by tenant (persisted metering).",
    "usage_experiments": "Completed experiments, by tenant.",
    "usage_instructions": "Simulated instructions, by tenant.",
    "usage_wall_seconds": "Campaign wall seconds, by tenant.",
    "usage_kips": "Aggregate simulation rate (simulated kilo-"
                  "instructions per campaign wall second), by tenant.",
    "queue_baselines_tagged": "Baseline tags created or moved.",
}


def new_request_id() -> str:
    return f"req-{uuid.uuid4().hex[:12]}"


class ServiceObserver:
    """Shared metrics registry + request-scoped logging.

    Thread-safe: the HTTP event loop, the dispatcher thread and test
    threads all report through one instance (the registry's own
    get-or-create is not locked, so the observer serialises it).
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 log_dir: str | None = None,
                 clock=time.time) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.log_dir = log_dir
        self._clock = clock
        self._lock = threading.Lock()
        self._in_flight = 0
        self._open_connections = 0

    # -- counters -------------------------------------------------------------

    def inc(self, name: str, amount: int = 1, **labels) -> None:
        with self._lock:
            self.registry.counter(labelled(name, **labels)).inc(amount)

    def observe(self, name: str, value: float,
                bounds: tuple[float, ...] = LATENCY_BOUNDS,
                **labels) -> None:
        with self._lock:
            self.registry.histogram(labelled(name, **labels),
                                    bounds).record(value)

    def set_gauge(self, name: str, value, **labels) -> None:
        with self._lock:
            self.registry.set(labelled(name, **labels), value)

    # -- HTTP lifecycle -------------------------------------------------------

    def connection_opened(self) -> None:
        with self._lock:
            self.registry.counter("http.connections").inc()
            self._open_connections += 1
            self.registry.set("http.connections_open",
                              self._open_connections)

    def connection_closed(self) -> None:
        with self._lock:
            self._open_connections = max(0, self._open_connections - 1)
            self.registry.set("http.connections_open",
                              self._open_connections)

    def request_started(self) -> None:
        with self._lock:
            self._in_flight += 1
            self.registry.set("http.requests_in_flight",
                              self._in_flight)

    def request_finished(self) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            self.registry.set("http.requests_in_flight",
                              self._in_flight)

    def observe_request(self, request_id: str, method: str, route: str,
                        status: int, seconds: float,
                        path: str | None = None,
                        tenant: str | None = None) -> None:
        """One served request: counters, latency histogram, access
        log.  *route* is the matched path template (``/v1/jobs/{id}``),
        keeping label cardinality bounded no matter what clients put
        in the URL."""
        code_class = f"{status // 100}xx"
        self.inc("http.requests", method=method.upper(), route=route,
                 code=code_class)
        self.observe("http.request_duration_seconds", seconds,
                     route=route)
        entry = {"time": self._clock(), "request_id": request_id,
                 "method": method.upper(), "route": route,
                 "status": status,
                 "seconds": round(seconds, 6)}
        if path is not None and path != route:
            entry["path"] = path
        if tenant:
            entry["tenant"] = tenant
        self._append(ACCESS_LOG, entry)

    def observe_error(self, request_id: str, exc: BaseException,
                      method: str = "?", path: str = "?") -> None:
        """An unhandled handler exception: counted, and journalled
        with its full traceback (the client sees only the generic 500
        body plus the request id to quote back at the operator)."""
        self.inc("http.errors", type=type(exc).__name__)
        self._append(ERROR_LOG, {
            "time": self._clock(), "request_id": request_id,
            "method": method, "path": path,
            "type": type(exc).__name__, "message": str(exc),
            "traceback": "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__)),
        })

    # -- logs -----------------------------------------------------------------

    def _append(self, name: str, entry: dict) -> None:
        if self.log_dir is None:
            return
        line = json.dumps(entry, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with self._lock:
            try:
                os.makedirs(self.log_dir, exist_ok=True)
                with open(os.path.join(self.log_dir, name), "a",
                          encoding="utf-8") as handle:
                    handle.write(line)
            except OSError:
                pass  # a full disk must not take the service down

    def log_path(self, name: str) -> str | None:
        if self.log_dir is None:
            return None
        return os.path.join(self.log_dir, name)
