"""Campaign-as-a-service: HTTP API, job queue, content-addressed store.

ProFIPy frames software fault injection as-a-Service (submit / monitor
/ report endpoints); FINJ ships a client/server engine with task
queues for HPC fault-injection workloads.  This package is that layer
for the GemFI reproduction: campaigns stop being ad-hoc shared
directories and become **jobs** submitted to a long-lived service —

* :mod:`repro.service.http` — a minimal asyncio HTTP/1.1 layer
  (stdlib only: request parsing, routing, chunked JSONL streaming);
* :mod:`repro.service.queue` — a crash-safe persistent job queue
  (SQLite WAL) with per-tenant quotas, priorities and lease-based
  dispatch;
* :mod:`repro.service.store` — a content-addressed store (SHA-256 of
  canonical bytes) holding each job's canonical result set once;
* :mod:`repro.service.dispatcher` — leases jobs and runs each as the
  paper's shared-dir NoW protocol, through
  :meth:`~repro.campaign.now.SharedDirCampaign.run_local` as
  ``gemfi campaign --share-dir`` does;
* :mod:`repro.service.api` — the endpoint handlers plus the
  :class:`~repro.service.api.Service` composition root behind
  ``gemfi serve``;
* :mod:`repro.service.client` — the stdlib client behind
  ``gemfi submit`` / ``gemfi jobs`` / ``gemfi fetch``;
* :mod:`repro.service.observability` — the shared
  :class:`~repro.service.observability.ServiceObserver`: one metrics
  registry behind ``GET /metrics`` (OpenMetrics), request ids, and
  JSONL access/error logs;
* :mod:`repro.service.console` — the embedded web console
  (``gemfi serve --ui``): stdlib-rendered HTML pages at ``GET /ui``
  over the API — live job explorer, SVG timelines, the merged alerts
  feed and inlined reports.

The existing heartbeat/span/watchdog machinery is the service's
health plane: job status streams reuse ``read_status`` and the
watchdog rules over each job's private share directory.
"""

from .api import Service, ServiceApp
from .client import ServiceClient, ServiceError
from .console import Console
from .dispatcher import Dispatcher
from .jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    Job,
    JobSpec,
    JobSpecError,
    canonical_results,
)
from .observability import ServiceObserver, new_request_id
from .queue import JobQueue, LeaseError, QuotaExceeded, UnknownJobError
from .store import ContentStore, canonical_json_bytes, digest_bytes

__all__ = [
    "Console", "ContentStore", "Dispatcher", "JOB_STATES", "Job",
    "JobQueue",
    "JobSpec", "JobSpecError", "LeaseError", "QuotaExceeded",
    "Service", "ServiceApp", "ServiceClient", "ServiceError",
    "ServiceObserver", "TERMINAL_STATES", "UnknownJobError",
    "canonical_json_bytes", "canonical_results", "digest_bytes",
    "new_request_id",
]
