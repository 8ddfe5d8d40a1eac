"""Crash-safe persistent job queue: SQLite WAL, quotas, priorities,
leases.

FINJ-style dispatch discipline over a single SQLite database:

* **submit** — validated specs enter ``queued`` unless the tenant is
  over its active-job quota; re-submitting a spec that already ran to
  ``done`` short-circuits straight to ``done`` on that job's share
  (dedup, surfaced at the queue layer);
* **lease** — dispatchers atomically take the highest-priority oldest
  job (``BEGIN IMMEDIATE``, single winner even with several dispatcher
  processes on one queue) and must finish or extend the lease before
  it expires;
* **recovery** — a dispatcher that dies mid-job simply stops
  extending; :meth:`JobQueue.requeue_expired` returns its jobs to
  ``queued`` with the attempt recorded, so a crash loses no work;
* **wake-up** — every transition into ``queued`` sets
  :attr:`JobQueue.wakeup`, so a dispatcher sharing the instance leases
  the job at once instead of at its next poll;
* **baselines** — a name for a ``done`` job, usable wherever a job id
  is accepted for comparison.

A finished job row records ``share_dir`` (the campaign share) and
``result_digest`` (the SHA-256 of the share's canonical result set).
Every view of the job is derived from the share, and the result set
is checked against the digest on every read.

The database lives in WAL mode, so the HTTP API (readers) and the
dispatcher (writer) share it without blocking each other, and
``gemfi status`` can read queue depth from any process that can see
the file.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid
from contextlib import closing

from .jobs import Job, JobSpec

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id              TEXT PRIMARY KEY,
    tenant          TEXT NOT NULL,
    priority        INTEGER NOT NULL DEFAULT 0,
    state           TEXT NOT NULL,
    spec            TEXT NOT NULL,
    spec_digest     TEXT NOT NULL,
    submitted       REAL NOT NULL,
    started         REAL,
    finished        REAL,
    lease_owner     TEXT,
    lease_expires   REAL,
    attempts        INTEGER NOT NULL DEFAULT 0,
    result_digest   TEXT,
    error           TEXT,
    share_dir       TEXT,
    reused_from     TEXT
);
CREATE INDEX IF NOT EXISTS jobs_dispatch
    ON jobs (state, priority DESC, submitted ASC);
CREATE INDEX IF NOT EXISTS jobs_spec ON jobs (spec_digest);
CREATE TABLE IF NOT EXISTS tenants (
    tenant      TEXT PRIMARY KEY,
    max_active  INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS usage (
    tenant       TEXT PRIMARY KEY,
    jobs         INTEGER NOT NULL DEFAULT 0,
    experiments  INTEGER NOT NULL DEFAULT 0,
    instructions INTEGER NOT NULL DEFAULT 0,
    wall_seconds REAL NOT NULL DEFAULT 0.0
);
CREATE TABLE IF NOT EXISTS baselines (
    name    TEXT PRIMARY KEY,
    job_id  TEXT NOT NULL,
    tagged  REAL NOT NULL
);
"""

USAGE_FIELDS = ("jobs", "experiments", "instructions", "wall_seconds")


class QuotaExceeded(Exception):
    """The tenant already has its quota of active (queued or leased)
    jobs."""


class UnknownJobError(KeyError):
    """No job with that id."""


class LeaseError(RuntimeError):
    """A lease-guarded transition found the job in another state (the
    lease expired and was re-dispatched, or the job was cancelled)."""


class JobQueue:
    """The persistent queue.  Every method opens its own short-lived
    connection, so one instance is safe to share across the API
    threads and the dispatcher (and across processes)."""

    def __init__(self, path: str, default_quota: int = 0,
                 observer=None, clock=time.time) -> None:
        self.path = path
        #: max active (queued+leased) jobs per tenant; 0 = unlimited.
        self.default_quota = default_quota
        #: optional ServiceObserver; every hook is a pointer test.
        self.observer = observer
        self._clock = clock
        #: set whenever a job becomes ``queued``; dispatchers in this
        #: process wait on it (other processes still poll).
        self.wakeup = threading.Event()
        with closing(self._connect()) as conn:
            conn.executescript(_SCHEMA)
            self._migrate(conn)
            conn.commit()

    @staticmethod
    def _migrate(conn: sqlite3.Connection) -> None:
        """Columns added after PR 6: ``CREATE TABLE IF NOT EXISTS``
        leaves pre-existing databases alone, so new columns need an
        explicit (idempotent) ALTER on open.  Columns and tables that
        only older databases have (the stored report and checkpoint
        digests, the summary table) stay, unread."""
        columns = {row[1] for row in
                   conn.execute("PRAGMA table_info(jobs)")}
        if "request_id" not in columns:
            conn.execute("ALTER TABLE jobs ADD COLUMN request_id TEXT")

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    # -- submission -----------------------------------------------------------

    def submit(self, spec: JobSpec, tenant: str = "default",
               priority: int = 0, reuse: bool = True,
               request_id: str | None = None) -> Job:
        """Enqueue *spec* for *tenant*.

        With *reuse* (the default), a spec whose digest already has a
        result — an identical campaign completed earlier — creates a
        job that is born ``done``, carrying the donor's result digest
        and share (the share holds the one copy).
        Raises :class:`QuotaExceeded` when the tenant's active jobs are
        at quota (reused jobs are never active, so they always
        succeed).
        *request_id* records the HTTP request that created the job
        (request-to-campaign tracing).
        """
        spec.validate()
        now = self._clock()
        job_id = f"job-{uuid.uuid4().hex[:12]}"
        spec_digest = spec.digest()
        spec_json = json.dumps(spec.as_dict(), sort_keys=True)
        with closing(self._connect()) as conn:
            donor = None
            if reuse:
                # The donor is a job that ran, never another twin.
                donor = conn.execute(
                    "SELECT * FROM jobs WHERE spec_digest = ? AND "
                    "state = 'done' AND result_digest IS NOT NULL "
                    "AND reused_from IS NULL "
                    "ORDER BY finished DESC LIMIT 1",
                    (spec_digest,)).fetchone()
            if donor is not None:
                conn.execute(
                    "INSERT INTO jobs (id, tenant, priority, state, "
                    "spec, spec_digest, submitted, started, finished, "
                    "attempts, result_digest, share_dir, reused_from, "
                    "request_id) "
                    "VALUES (?, ?, ?, 'done', ?, ?, ?, ?, ?, 0, "
                    "?, ?, ?, ?)",
                    (job_id, tenant, priority, spec_json, spec_digest,
                     now, now, now, donor["result_digest"],
                     donor["share_dir"], donor["id"], request_id))
                conn.commit()
                if self.observer is not None:
                    self.observer.inc("queue.dedup_hits")
                    self.observer.inc("queue.jobs_submitted",
                                      tenant=tenant)
                return self.get(job_id)
            quota = self._quota(conn, tenant)
            if quota > 0:
                active = conn.execute(
                    "SELECT COUNT(*) FROM jobs WHERE tenant = ? AND "
                    "state IN ('queued', 'leased')",
                    (tenant,)).fetchone()[0]
                if active >= quota:
                    if self.observer is not None:
                        self.observer.inc("queue.quota_rejections",
                                          tenant=tenant)
                    raise QuotaExceeded(
                        f"tenant '{tenant}' already has {active} "
                        f"active job(s) (quota {quota})")
            conn.execute(
                "INSERT INTO jobs (id, tenant, priority, state, spec, "
                "spec_digest, submitted, request_id) "
                "VALUES (?, ?, ?, 'queued', ?, ?, ?, ?)",
                (job_id, tenant, priority, spec_json, spec_digest,
                 now, request_id))
            conn.commit()
        self.wakeup.set()
        if self.observer is not None:
            self.observer.inc("queue.jobs_submitted", tenant=tenant)
        return self.get(job_id)

    def _quota(self, conn: sqlite3.Connection, tenant: str) -> int:
        row = conn.execute(
            "SELECT max_active FROM tenants WHERE tenant = ?",
            (tenant,)).fetchone()
        return row[0] if row is not None else self.default_quota

    def set_quota(self, tenant: str, max_active: int) -> None:
        with closing(self._connect()) as conn:
            conn.execute(
                "INSERT INTO tenants (tenant, max_active) "
                "VALUES (?, ?) ON CONFLICT(tenant) "
                "DO UPDATE SET max_active = excluded.max_active",
                (tenant, max_active))
            conn.commit()

    def quota(self, tenant: str) -> int:
        with closing(self._connect()) as conn:
            return self._quota(conn, tenant)

    # -- dispatch -------------------------------------------------------------

    def lease(self, owner: str,
              lease_seconds: float = 600.0) -> Job | None:
        """Atomically take the next job: highest priority first, then
        oldest submission.  Returns None when the queue is drained."""
        now = self._clock()
        with closing(self._connect()) as conn:
            conn.isolation_level = None
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT id FROM jobs WHERE state = 'queued' "
                    "ORDER BY priority DESC, submitted ASC, id ASC "
                    "LIMIT 1").fetchone()
                if row is None:
                    conn.execute("COMMIT")
                    return None
                conn.execute(
                    "UPDATE jobs SET state = 'leased', "
                    "lease_owner = ?, lease_expires = ?, "
                    "started = COALESCE(started, ?), "
                    "attempts = attempts + 1 WHERE id = ?",
                    (owner, now + lease_seconds, now, row["id"]))
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        if self.observer is not None:
            self.observer.inc("queue.leases")
        return self.get(row["id"])

    def extend_lease(self, job_id: str, owner: str,
                     lease_seconds: float = 600.0) -> bool:
        """Refresh a held lease; False when the lease is no longer
        ours (expired and re-dispatched, or the job was cancelled)."""
        now = self._clock()
        with closing(self._connect()) as conn:
            cursor = conn.execute(
                "UPDATE jobs SET lease_expires = ? WHERE id = ? AND "
                "state = 'leased' AND lease_owner = ?",
                (now + lease_seconds, job_id, owner))
            conn.commit()
            return cursor.rowcount > 0

    def requeue_expired(self) -> list[str]:
        """Return expired leases to the queue (crash recovery): a
        dispatcher that died mid-job stops extending its lease, and
        its jobs become claimable again instead of being lost."""
        now = self._clock()
        with closing(self._connect()) as conn:
            conn.isolation_level = None
            conn.execute("BEGIN IMMEDIATE")
            try:
                rows = conn.execute(
                    "SELECT id FROM jobs WHERE state = 'leased' AND "
                    "lease_expires IS NOT NULL AND lease_expires < ? "
                    "ORDER BY id", (now,)).fetchall()
                ids = [row["id"] for row in rows]
                if ids:
                    conn.executemany(
                        "UPDATE jobs SET state = 'queued', "
                        "lease_owner = NULL, lease_expires = NULL "
                        "WHERE id = ? AND state = 'leased'",
                        [(job_id,) for job_id in ids])
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        if ids:
            self.wakeup.set()
            if self.observer is not None:
                self.observer.inc("queue.requeued", amount=len(ids))
        return ids

    # -- completion -----------------------------------------------------------

    def complete(self, job_id: str, owner: str | None = None,
                 result_digest: str | None = None) -> Job:
        """Mark a leased job done, recording its result set's digest."""
        return self._finish(job_id, owner, "done",
                            result_digest=result_digest)

    def fail(self, job_id: str, error: str,
             owner: str | None = None, retry: bool = False) -> Job:
        """Mark a leased job failed (or, with *retry*, requeue it)."""
        if retry:
            with closing(self._connect()) as conn:
                cursor = conn.execute(
                    "UPDATE jobs SET state = 'queued', "
                    "lease_owner = NULL, lease_expires = NULL, "
                    "error = ? WHERE id = ? AND state = 'leased'"
                    + ("" if owner is None else " AND lease_owner = ?"),
                    (error, job_id) + (() if owner is None
                                       else (owner,)))
                conn.commit()
                if cursor.rowcount == 0:
                    raise LeaseError(
                        f"job {job_id} is not leased"
                        + (f" by {owner}" if owner else ""))
            self.wakeup.set()
            return self.get(job_id)
        return self._finish(job_id, owner, "failed", error=error)

    def _finish(self, job_id: str, owner: str | None, state: str,
                result_digest: str | None = None,
                error: str | None = None) -> Job:
        now = self._clock()
        with closing(self._connect()) as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = ?, finished = ?, "
                "result_digest = COALESCE(?, result_digest), "
                "error = ?, lease_owner = NULL, lease_expires = NULL "
                "WHERE id = ? AND state = 'leased'"
                + ("" if owner is None else " AND lease_owner = ?"),
                (state, now, result_digest, error, job_id)
                + (() if owner is None else (owner,)))
            conn.commit()
            if cursor.rowcount == 0:
                self.get(job_id)  # raises UnknownJobError if absent
                raise LeaseError(
                    f"job {job_id} is not leased"
                    + (f" by {owner}" if owner else ""))
        if self.observer is not None:
            self.observer.inc("queue.jobs_finished", state=state)
        return self.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; running or finished jobs are left
        alone (False)."""
        with closing(self._connect()) as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = 'cancelled', finished = ? "
                "WHERE id = ? AND state = 'queued'",
                (self._clock(), job_id))
            conn.commit()
            if cursor.rowcount == 0:
                self.get(job_id)  # raises UnknownJobError if absent
                return False
        if self.observer is not None:
            self.observer.inc("queue.jobs_finished",
                              state="cancelled")
        return True

    # -- tenant usage metering ------------------------------------------------

    def record_usage(self, tenant: str, jobs: int = 0,
                     experiments: int = 0, instructions: int = 0,
                     wall_seconds: float = 0.0) -> None:
        """Accumulate metered work for *tenant*.  Lives in the queue
        database, so usage survives service restarts alongside the
        jobs it accounts for."""
        with closing(self._connect()) as conn:
            conn.execute(
                "INSERT INTO usage (tenant, jobs, experiments, "
                "instructions, wall_seconds) VALUES (?, ?, ?, ?, ?) "
                "ON CONFLICT(tenant) DO UPDATE SET "
                "jobs = jobs + excluded.jobs, "
                "experiments = experiments + excluded.experiments, "
                "instructions = instructions + excluded.instructions, "
                "wall_seconds = wall_seconds + excluded.wall_seconds",
                (tenant, jobs, experiments, instructions,
                 wall_seconds))
            conn.commit()

    def usage(self, tenant: str | None = None
              ) -> dict[str, dict[str, float]]:
        """Accumulated usage per tenant (or just *tenant*)."""
        query = "SELECT * FROM usage"
        params: tuple = ()
        if tenant is not None:
            query += " WHERE tenant = ?"
            params = (tenant,)
        query += " ORDER BY tenant"
        with closing(self._connect()) as conn:
            rows = conn.execute(query, params).fetchall()
        return {row["tenant"]: {
            "jobs": row["jobs"],
            "experiments": row["experiments"],
            "instructions": row["instructions"],
            "wall_seconds": round(row["wall_seconds"], 6),
        } for row in rows}

    # -- baselines ------------------------------------------------------------

    def tag_baseline(self, name: str, job_id: str) -> None:
        """Name a ``done`` job as a comparison baseline.  Raises
        :class:`UnknownJobError` for an unknown job and
        :class:`ValueError` for a job in any other state."""
        job = self.get(job_id)  # raises UnknownJobError
        if job.state != "done":
            raise ValueError(f"job {job_id} is {job.state}; only done "
                             f"jobs can be baselines")
        with closing(self._connect()) as conn:
            conn.execute(
                "INSERT INTO baselines (name, job_id, tagged) "
                "VALUES (?, ?, ?) ON CONFLICT(name) DO UPDATE SET "
                "job_id = excluded.job_id, tagged = excluded.tagged",
                (name, job_id, self._clock()))
            conn.commit()
        if self.observer is not None:
            self.observer.inc("queue.baselines_tagged")

    def baselines(self) -> dict[str, str]:
        """``{baseline name: job id}`` for every tagged baseline."""
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT name, job_id FROM baselines ORDER BY name"
            ).fetchall()
        return {row["name"]: row["job_id"] for row in rows}

    def resolve_baseline(self, name: str) -> str | None:
        """The job id a baseline name points at, or None."""
        with closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT job_id FROM baselines WHERE name = ?",
                (name,)).fetchone()
        return row["job_id"] if row is not None else None

    def record_share(self, job_id: str, share_dir: str) -> None:
        with closing(self._connect()) as conn:
            conn.execute("UPDATE jobs SET share_dir = ? WHERE id = ?",
                         (share_dir, job_id))
            conn.commit()

    # -- reading --------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with closing(self._connect()) as conn:
            row = conn.execute("SELECT * FROM jobs WHERE id = ?",
                               (job_id,)).fetchone()
        if row is None:
            raise UnknownJobError(job_id)
        return Job.from_row(row)

    def job_for_result(self, result_digest: str) -> Job | None:
        """The newest done job that ran (not a dedup twin) with this
        result digest, or None."""
        with closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE result_digest = ? AND "
                "state = 'done' AND reused_from IS NULL "
                "ORDER BY finished DESC LIMIT 1",
                (result_digest,)).fetchone()
        return Job.from_row(row) if row is not None else None

    def list_jobs(self, tenant: str | None = None,
                  states: tuple[str, ...] | None = None) -> list[Job]:
        query = "SELECT * FROM jobs"
        clauses, params = [], []
        if tenant is not None:
            clauses.append("tenant = ?")
            params.append(tenant)
        if states:
            clauses.append(
                f"state IN ({', '.join('?' * len(states))})")
            params.extend(states)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY submitted ASC, id ASC"
        with closing(self._connect()) as conn:
            rows = conn.execute(query, params).fetchall()
        return [Job.from_row(row) for row in rows]

    def tenant_counts(self) -> dict[str, dict[str, int]]:
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT tenant, state, COUNT(*) AS n FROM jobs "
                "GROUP BY tenant, state").fetchall()
        counts: dict[str, dict[str, int]] = {}
        for row in rows:
            counts.setdefault(row["tenant"], {})[row["state"]] = \
                row["n"]
        return counts

    def depth(self) -> int:
        """Jobs waiting for a dispatcher."""
        with closing(self._connect()) as conn:
            return conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE state = 'queued'"
            ).fetchone()[0]
