"""Campaign-as-a-service tests: store, queue, HTTP API, dispatch."""

import asyncio
import hashlib
import json
import logging
import os
import sqlite3
import threading
import time
from contextlib import closing

import pytest

from repro.campaign import CampaignRunner, SEUGenerator, SharedDirCampaign
from repro.service import (
    ContentStore,
    Dispatcher,
    JobQueue,
    JobSpec,
    JobSpecError,
    LeaseError,
    QuotaExceeded,
    Service,
    ServiceClient,
    ServiceError,
    UnknownJobError,
    canonical_json_bytes,
    canonical_results,
    digest_bytes,
)
from repro.service.http import HTTPError, Request, Response, Router
from repro.telemetry import PeriodicBeat
from repro.workloads import build


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- content store ------------------------------------------------------------


class TestContentStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ContentStore(str(tmp_path))
        digest = store.put_bytes(b"hello")
        assert digest == hashlib.sha256(b"hello").hexdigest()
        assert store.get(digest) == b"hello"
        assert store.has(digest)
        assert store.verify(digest)

    def test_put_is_idempotent_dedup(self, tmp_path):
        store = ContentStore(str(tmp_path))
        first = store.put_bytes(b"same bytes")
        second = store.put_bytes(b"same bytes")
        assert first == second
        assert store.stats() == {"objects": 1,
                                 "bytes": len(b"same bytes")}

    def test_canonical_json_is_order_insensitive(self, tmp_path):
        store = ContentStore(str(tmp_path))
        a = store.put_json({"b": 2, "a": 1})
        b = store.put_json({"a": 1, "b": 2})
        assert a == b
        assert store.get_json(a) == {"a": 1, "b": 2}

    def test_missing_object_raises_keyerror(self, tmp_path):
        store = ContentStore(str(tmp_path))
        with pytest.raises(KeyError):
            store.get("0" * 64)

    def test_malformed_digest_raises_valueerror(self, tmp_path):
        store = ContentStore(str(tmp_path))
        with pytest.raises(ValueError):
            store.get("../../etc/passwd")
        with pytest.raises(ValueError):
            store.path("abc")

    def test_stats_counts_objects_and_bytes(self, tmp_path):
        store = ContentStore(str(tmp_path))
        store.put_bytes(b"x" * 10)
        store.put_bytes(b"y" * 20)
        assert store.stats() == {"objects": 2, "bytes": 30}


# -- job specs ----------------------------------------------------------------


class TestJobSpec:
    def test_digest_is_stable_across_field_order(self):
        a = JobSpec.from_dict({"workload": "pi", "seed": 3})
        b = JobSpec.from_dict({"seed": 3, "workload": "pi"})
        assert a.digest() == b.digest()

    def test_digest_changes_with_seed(self):
        a = JobSpec.from_dict({"workload": "pi", "seed": 1})
        b = JobSpec.from_dict({"workload": "pi", "seed": 2})
        assert a.digest() != b.digest()

    @pytest.mark.parametrize("payload", [
        {},                                        # no workload
        {"workload": "nope"},                      # unknown workload
        {"workload": "pi", "scale": "galactic"},   # unknown scale
        {"workload": "pi", "experiments": 0},      # too few
        {"workload": "pi", "experiments": "ten"},  # wrong type
        {"workload": "pi", "seed": "zero"},        # wrong type
        {"workload": "pi", "location": "moon"},    # unknown location
        {"workload": "pi", "workers": -1},         # negative
        {"workload": "pi", "backend": "carrier-pigeon"},
        {"workload": "pi", "frobnicate": True},    # unknown field
        {"workload": "pi", "experiments": True},   # bool for an int
        {"workload": "pi", "seed": False},         # bool for an int
        {"workload": "pi", "workers": True},       # bool for an int
    ])
    def test_invalid_specs_rejected(self, payload):
        with pytest.raises(JobSpecError):
            JobSpec.from_dict(payload)

    def test_canonical_results_strips_host_fields(self):
        results = [{"outcome": "sdc", "wall_seconds": 1.23,
                    "phases": {"run": 1.0}, "instructions": 42}]
        assert canonical_results(results) == [
            {"outcome": "sdc", "instructions": 42}]


# -- job queue ----------------------------------------------------------------


def _spec(seed=0, **kwargs):
    return JobSpec.from_dict({"workload": "pi", "experiments": 2,
                              "seed": seed, **kwargs})


class TestJobQueue:
    def test_submit_and_get(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        job = queue.submit(_spec(), tenant="alice")
        assert job.state == "queued"
        assert queue.get(job.id).tenant == "alice"
        assert queue.depth() == 1
        with pytest.raises(UnknownJobError):
            queue.get("job-doesnotexist")

    def test_priority_ordering_then_fifo(self, tmp_path):
        clock = FakeClock()
        queue = JobQueue(str(tmp_path / "q.db"), clock=clock)
        low = queue.submit(_spec(seed=1), priority=0)
        clock.advance(1)
        high = queue.submit(_spec(seed=2), priority=5)
        clock.advance(1)
        low2 = queue.submit(_spec(seed=3), priority=0)
        order = [queue.lease("w").id for _ in range(3)]
        assert order == [high.id, low.id, low2.id]
        assert queue.lease("w") is None

    def test_quota_enforced_on_active_jobs(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"), default_quota=2)
        queue.submit(_spec(seed=1), tenant="alice")
        queue.submit(_spec(seed=2), tenant="alice")
        with pytest.raises(QuotaExceeded):
            queue.submit(_spec(seed=3), tenant="alice")
        # other tenants have their own budget
        queue.submit(_spec(seed=3), tenant="bob")

    def test_quota_frees_up_when_jobs_finish(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"), default_quota=1)
        first = queue.submit(_spec(seed=1), tenant="alice")
        leased = queue.lease("w")
        queue.complete(leased.id, owner="w",
                       result_digest="0" * 64)
        # done jobs no longer count against the quota
        queue.submit(_spec(seed=2), tenant="alice")
        assert queue.get(first.id).state == "done"

    def test_per_tenant_quota_override(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"), default_quota=1)
        queue.set_quota("vip", 3)
        for seed in range(3):
            queue.submit(_spec(seed=seed), tenant="vip")
        with pytest.raises(QuotaExceeded):
            queue.submit(_spec(seed=9), tenant="vip")

    def test_crash_recovery_requeues_expired_lease(self, tmp_path):
        clock = FakeClock()
        queue = JobQueue(str(tmp_path / "q.db"), clock=clock)
        job = queue.submit(_spec())
        leased = queue.lease("crashed-worker", lease_seconds=60)
        assert leased.id == job.id
        assert queue.lease("other") is None  # nothing left to lease
        clock.advance(61)
        assert queue.requeue_expired() == [job.id]
        recovered = queue.lease("other", lease_seconds=60)
        assert recovered.id == job.id
        assert recovered.attempts == 2  # both leases counted

    def test_lease_extension_prevents_requeue(self, tmp_path):
        clock = FakeClock()
        queue = JobQueue(str(tmp_path / "q.db"), clock=clock)
        job = queue.submit(_spec())
        queue.lease("w", lease_seconds=60)
        clock.advance(50)
        queue.extend_lease(job.id, "w", 60)
        clock.advance(50)  # past the original expiry, not the new one
        assert queue.requeue_expired() == []
        assert queue.get(job.id).state == "leased"

    def test_queue_survives_reopen(self, tmp_path):
        path = str(tmp_path / "q.db")
        job = JobQueue(path).submit(_spec(), tenant="alice",
                                    priority=7)
        reopened = JobQueue(path)  # a fresh process would do this
        restored = reopened.get(job.id)
        assert restored.state == "queued"
        assert restored.priority == 7
        assert restored.spec.as_dict() == _spec().as_dict()

    def test_complete_requires_the_lease(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        job = queue.submit(_spec())
        with pytest.raises(LeaseError):
            queue.complete(job.id, owner="w")  # never leased
        queue.lease("w")
        with pytest.raises(LeaseError):
            queue.complete(job.id, owner="thief")
        queue.complete(job.id, owner="w", result_digest="0" * 64)
        assert queue.get(job.id).state == "done"

    def test_fail_with_retry_requeues(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        job = queue.submit(_spec())
        queue.lease("w")
        queue.fail(job.id, error="boom", owner="w", retry=True)
        assert queue.get(job.id).state == "queued"
        queue.lease("w")
        queue.fail(job.id, error="boom again", owner="w")
        failed = queue.get(job.id)
        assert failed.state == "failed"
        assert "boom again" in failed.error

    def test_cancel_only_queued_jobs(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        job = queue.submit(_spec())
        assert queue.cancel(job.id) is True
        assert queue.get(job.id).state == "cancelled"
        other = queue.submit(_spec(seed=1))
        queue.lease("w")
        assert queue.cancel(other.id) is False  # already leased

    def test_dedup_reuses_finished_identical_spec(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        first = queue.submit(_spec())
        queue.lease("w")
        queue.complete(first.id, owner="w", result_digest="a" * 64)
        again = queue.submit(_spec())
        assert again.id != first.id
        assert again.state == "done"
        assert again.reused_from == first.id
        assert again.result_digest == "a" * 64
        # and dedup can be declined
        fresh = queue.submit(_spec(), reuse=False)
        assert fresh.state == "queued"

    def test_every_dedup_twin_names_the_job_that_ran(self, tmp_path):
        """A twin is done and finished later than its donor, yet the
        next resubmit still reuses the donor, not the twin."""
        clock = FakeClock()
        queue = JobQueue(str(tmp_path / "q.db"), clock=clock)
        first = queue.submit(_spec())
        queue.lease("w")
        queue.complete(first.id, owner="w", result_digest="a" * 64)
        twins = []
        for _ in range(2):
            clock.advance(5)
            twins.append(queue.submit(_spec()))
        assert [twin.state for twin in twins] == ["done", "done"]
        assert [twin.reused_from for twin in twins] == [first.id] * 2

    def test_wakeup_is_set_by_every_transition_into_queued(self,
                                                          tmp_path):
        clock = FakeClock()
        queue = JobQueue(str(tmp_path / "q.db"), clock=clock)
        assert not queue.wakeup.is_set()
        job = queue.submit(_spec())
        assert queue.wakeup.is_set()
        queue.wakeup.clear()
        queue.lease("w", lease_seconds=60)
        queue.complete(job.id, owner="w", result_digest="a" * 64)
        assert queue.submit(_spec()).state == "done"  # born done
        assert not queue.wakeup.is_set()
        queue.submit(_spec(seed=1))
        queue.lease("w", lease_seconds=60)
        queue.wakeup.clear()
        clock.advance(61)
        assert len(queue.requeue_expired()) == 1
        assert queue.wakeup.is_set()
        job = queue.lease("w", lease_seconds=60)
        queue.wakeup.clear()
        queue.fail(job.id, error="boom", owner="w", retry=True)
        assert queue.wakeup.is_set()

    def test_tenant_counts(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        queue.submit(_spec(seed=1), tenant="alice")
        queue.submit(_spec(seed=2), tenant="alice")
        queue.submit(_spec(seed=3), tenant="bob")
        queue.lease("w")
        counts = queue.tenant_counts()
        assert counts["alice"] in ({"queued": 1, "leased": 1},
                                   {"queued": 2},)
        assert sum(counts["alice"].values()) == 2
        assert counts["bob"] == {"queued": 1}


class CountingObserver:
    """Just enough of ServiceObserver for queue metric assertions."""

    def __init__(self):
        self.counts = {}

    def inc(self, name, amount=1, **labels):
        self.counts[name] = self.counts.get(name, 0) + amount

    def set_gauge(self, name, value, **labels):
        pass


class TestConcurrentLeaseExpiry:
    def test_expired_lease_requeued_exactly_once(self, tmp_path):
        """Racing dispatchers sweeping the same expired lease must
        hand the job back exactly once — SQLite's BEGIN IMMEDIATE
        serialises the sweep, and the requeue metric reflects one
        recovery, not one per sweeper."""
        clock = FakeClock()
        observer = CountingObserver()
        queue = JobQueue(str(tmp_path / "q.db"), clock=clock,
                         observer=observer)
        job = queue.submit(_spec())
        assert queue.lease("dead-worker", lease_seconds=60).id == job.id
        clock.advance(61)

        sweepers = 6
        barrier = threading.Barrier(sweepers)
        outcomes = []
        lock = threading.Lock()

        def sweep():
            barrier.wait()
            ids = queue.requeue_expired()
            with lock:
                outcomes.append(ids)

        threads = [threading.Thread(target=sweep)
                   for _ in range(sweepers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        claimed = [ids for ids in outcomes if ids]
        assert claimed == [[job.id]]  # exactly one sweeper won
        assert observer.counts["queue.requeued"] == 1
        # The job is claimable again, with both leases on record.
        recovered = queue.lease("live-worker", lease_seconds=60)
        assert recovered.id == job.id
        assert recovered.attempts == 2
        assert observer.counts["queue.leases"] == 2


class TestCampaignArchive:
    """Baselines name done jobs; the summaries they resolve to are
    derived from each job's share or stored result set."""

    def test_baseline_tagging(self, tmp_path):
        path = str(tmp_path / "q.db")
        queue = JobQueue(path)
        job = queue.submit(_spec())
        with pytest.raises(ValueError):
            queue.tag_baseline("release", job.id)  # not done yet
        queue.lease("w")
        queue.complete(job.id, owner="w", result_digest="a" * 64)
        queue.tag_baseline("release", job.id)
        assert queue.baselines() == {"release": job.id}
        assert queue.resolve_baseline("release") == job.id
        assert queue.resolve_baseline("nope") is None
        # Retagging moves the name to the newer job.
        other = queue.submit(_spec(seed=5))
        queue.lease("w")
        queue.complete(other.id, owner="w", result_digest="c" * 64)
        queue.tag_baseline("release", other.id)
        assert queue.baselines() == {"release": other.id}
        with pytest.raises(UnknownJobError):
            queue.tag_baseline("release", "job-nope")
        # A dedup twin is born done, so it can be tagged at once.
        twin = queue.submit(_spec(seed=5))
        assert twin.reused_from == other.id
        queue.tag_baseline("twin", twin.id)
        assert JobQueue(path).baselines() == {"release": other.id,
                                              "twin": twin.id}


# -- periodic beat ------------------------------------------------------------


class TestPeriodicBeat:
    def test_beats_and_joins_on_exit(self):
        before = threading.active_count()
        ticks = []
        with PeriodicBeat(0.01, lambda: ticks.append(1)) as beat:
            assert beat.alive
            deadline = threading.Event()
            deadline.wait(0.08)
        assert not beat.alive
        assert ticks  # it beat at least once
        assert threading.active_count() == before  # joined, not leaked

    def test_no_thread_accumulation_across_many_uses(self):
        before = threading.active_count()
        for _ in range(10):
            with PeriodicBeat(0.01, lambda: None):
                pass
        assert threading.active_count() == before


# -- HTTP plumbing ------------------------------------------------------------


class TestRouter:
    def _router(self):
        async def handler(request):
            return request
        router = Router()
        router.add("GET", "/v1/jobs/{id}/status", handler)
        router.add("GET", "/v1/jobs", handler)
        router.add("POST", "/v1/jobs", handler)
        return router

    def test_template_binds_params(self):
        router = self._router()
        _, params = router.match("GET", "/v1/jobs/job-abc/status")
        assert params == {"id": "job-abc"}

    def test_unknown_path_is_404(self):
        with pytest.raises(HTTPError) as err:
            self._router().match("GET", "/nope")
        assert err.value.status == 404

    def test_wrong_method_is_405(self):
        with pytest.raises(HTTPError) as err:
            self._router().match("DELETE", "/v1/jobs")
        assert err.value.status == 405

    def test_request_json_rejects_garbage(self):
        request = Request(method="POST", path="/", body=b"not json")
        with pytest.raises(HTTPError) as err:
            request.json()
        assert err.value.status == 400


# -- the API over a live server -----------------------------------------------


@pytest.fixture
def api_service(tmp_path):
    """HTTP API only — no dispatcher thread; tests drive dispatch."""
    service = Service(str(tmp_path / "data"), default_quota=3)
    service.start_http()
    yield service
    service.stop()


class TestServiceApi:
    def test_healthz(self, api_service):
        client = ServiceClient(api_service.url)
        health = client.healthz()
        assert health["ok"] is True
        assert health["queue_depth"] == 0

    def test_submit_validates_and_lists(self, api_service):
        client = ServiceClient(api_service.url, tenant="alice")
        job = client.submit({"workload": "pi", "experiments": 2})
        assert job["state"] == "queued"
        assert job["tenant"] == "alice"
        listing = client.jobs(tenant="alice")
        assert [j["id"] for j in listing["jobs"]] == [job["id"]]
        assert listing["tenants"]["alice"] == {"queued": 1}

    def test_submit_bad_spec_is_400(self, api_service):
        client = ServiceClient(api_service.url)
        with pytest.raises(ServiceError) as err:
            client.submit({"workload": "nope"})
        assert err.value.status == 400
        assert "unknown workload" in err.value.message
        for kwargs, message in (
                ({"priority": True}, "priority must be an integer"),
                ({"reuse": "false"}, "reuse must be a boolean")):
            with pytest.raises(ServiceError) as err:
                client.submit({"workload": "pi"}, **kwargs)
            assert err.value.status == 400
            assert err.value.message == message
        # A body tenant must be a non-empty string (no X-Tenant header:
        # ServiceClient always sends one).
        for tenant in (["x"], {"name": "x"}, 7, "", None):
            status, body = _post_job(
                api_service, {"workload": "pi", "tenant": tenant})
            assert status == 400
            assert body == {"error": "tenant must be a non-empty string"}
        # ... and may not contradict the header.
        alice = ServiceClient(api_service.url, tenant="alice")
        with pytest.raises(ServiceError) as err:
            alice.submit({"workload": "pi", "tenant": "bob"})
        assert err.value.status == 400
        assert err.value.message == ("tenant 'bob' differs from the "
                                     "X-Tenant header 'alice'")
        assert ServiceClient(api_service.url).jobs()["jobs"] == []

    def test_submit_tenant_from_header_body_or_both(self, api_service):
        alice = ServiceClient(api_service.url, tenant="alice")
        agreed = alice.submit({"workload": "pi", "tenant": "alice"})
        assert agreed["tenant"] == "alice"
        status, body = _post_job(api_service,
                                 {"workload": "pi", "seed": 1,
                                  "tenant": "bob"})
        assert status == 201
        assert body["job"]["tenant"] == "bob"

    def test_submit_naming_backend_is_400(self, api_service):
        """``backend`` was dropped from the spec: there is one way to
        run a campaign."""
        client = ServiceClient(api_service.url)
        with pytest.raises(ServiceError) as err:
            client.submit({"workload": "pi", "backend": "shared-dir"})
        assert err.value.status == 400
        assert err.value.message == \
            "unknown job spec field(s): backend"

    def test_stored_spec_naming_backend_lists_and_dispatches(
            self, api_service):
        """A queue row stored while specs still had a ``backend``
        field loads: the listing shows it and the dispatcher runs it."""
        queue = api_service.queue
        job = queue.submit(JobSpec.from_dict(
            {"workload": "pi", "scale": "tiny", "experiments": 1}))
        stored = json.dumps(dict(job.spec.as_dict(),
                                 backend="shared-dir"), sort_keys=True)
        with closing(sqlite3.connect(queue.path)) as conn:
            conn.execute("UPDATE jobs SET spec = ? WHERE id = ?",
                         (stored, job.id))
            conn.commit()
        listing = ServiceClient(api_service.url).jobs()
        assert [j["id"] for j in listing["jobs"]] == [job.id]
        assert "backend" not in listing["jobs"][0]["spec"]
        assert api_service.dispatcher.poll_once() is True
        assert queue.get(job.id).state == "done"

    def test_stored_spec_with_booleans_lists_and_dispatches(
            self, api_service):
        """A queue row stored while booleans passed for integers
        loads with 1/0 in their place, and the dispatcher runs it."""
        queue = api_service.queue
        job = queue.submit(JobSpec.from_dict(
            {"workload": "pi", "scale": "tiny", "experiments": 1}))
        stored = json.dumps(dict(job.spec.as_dict(), experiments=True,
                                 seed=False, workers=True),
                            sort_keys=True)
        with closing(sqlite3.connect(queue.path)) as conn:
            conn.execute("UPDATE jobs SET spec = ? WHERE id = ?",
                         (stored, job.id))
            conn.commit()
        listing = ServiceClient(api_service.url).jobs()
        spec = listing["jobs"][0]["spec"]
        values = [spec[name] for name in ("experiments", "seed",
                                          "workers")]
        assert values == [1, 0, 1]
        assert not any(isinstance(value, bool) for value in values)
        assert api_service.dispatcher.poll_once() is True
        assert queue.get(job.id).state == "done"

    def test_quota_exhaustion_is_429(self, api_service):
        client = ServiceClient(api_service.url, tenant="greedy")
        for seed in range(3):
            client.submit({"workload": "pi", "seed": seed})
        with pytest.raises(ServiceError) as err:
            client.submit({"workload": "pi", "seed": 99})
        assert err.value.status == 429

    def test_unknown_job_is_404(self, api_service):
        client = ServiceClient(api_service.url)
        with pytest.raises(ServiceError) as err:
            client.job("job-missing")
        assert err.value.status == 404

    def test_cancel_queued_then_conflict(self, api_service):
        client = ServiceClient(api_service.url)
        job = client.submit({"workload": "pi"})
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        with pytest.raises(ServiceError) as err:
            client.cancel(job["id"])  # already terminal
        assert err.value.status == 409

    def test_results_missing_is_404(self, api_service):
        client = ServiceClient(api_service.url)
        job = client.submit({"workload": "pi"})
        with pytest.raises(ServiceError) as err:
            client.results(job["id"])
        assert err.value.status == 404

    def test_blob_validation(self, api_service):
        client = ServiceClient(api_service.url)
        with pytest.raises(ServiceError) as err:
            client.fetch("zz")
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.fetch("0" * 64)
        assert err.value.status == 404

    def test_coverage_before_share_is_404(self, api_service):
        """A queued job has no campaign share yet — coverage is 404,
        exactly like status/timeline on an undispatched job."""
        client = ServiceClient(api_service.url)
        job = client.submit({"workload": "pi"})
        conn = _http_conn(api_service)
        try:
            conn.request("GET", f"/v1/jobs/{job['id']}/coverage")
            response = conn.getresponse()
            body = response.read()
            assert response.status == 404
            assert "no campaign share" in json.loads(body)["error"]
            conn.request("GET", "/v1/jobs/job-missing/coverage")
            response = conn.getresponse()
            response.read()
            assert response.status == 404
        finally:
            conn.close()

    def test_events_stream_ends_on_terminal_job(self, api_service):
        client = ServiceClient(api_service.url)
        job = client.submit({"workload": "pi"})
        client.cancel(job["id"])
        frames = list(client.events(job["id"], poll=0.05))
        assert [f["type"] for f in frames] == ["status", "end"]
        assert frames[-1]["state"] == "cancelled"

    @pytest.mark.parametrize("path", [
        "/v1/compare?confidence=nan",
        "/v1/compare?confidence=inf",
        "/v1/compare?margin=soon",
    ])
    def test_bad_query_params_are_400(self, api_service, path):
        conn = _http_conn(api_service)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "must be" in body["error"]
        finally:
            conn.close()

    def test_bad_events_params_are_400(self, api_service):
        client = ServiceClient(api_service.url)
        job = client.submit({"workload": "pi"})
        client.close()
        conn = _http_conn(api_service)
        try:
            conn.request("GET",
                         f"/v1/jobs/{job['id']}/events?max=lots")
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()


# -- summaries, baselines + compare over the API ------------------------------


class TestArchiveAndCompareApi:
    @pytest.fixture
    def archived_pair(self, api_service, tmp_path):
        """Two done jobs whose shares hold synthetic results: base
        mixed outcomes, head all-SDC (a clear regression).  Their
        summaries are what the service derives from those shares."""
        from repro.analysis.diff import CampaignSummary
        from test_coverage import synthetic_results
        client = ServiceClient(api_service.url, tenant="cmp")
        try:
            base = client.submit({"workload": "pi", "seed": 1})
            head = client.submit({"workload": "pi", "seed": 2})
        finally:
            client.close()
        results = synthetic_results(30)
        shifted = [dict(entry) for entry in results]
        for entry in shifted:
            entry["outcome"] = "sdc"
        queue = api_service.queue
        summaries = {}
        for job, records in ((base, results), (head, shifted)):
            share = tmp_path / "shares" / job["id"]
            (share / "results").mkdir(parents=True)
            for index, record in enumerate(records):
                (share / "results" / f"exp_{index:04d}.json").write_text(
                    json.dumps(record))
            queue.record_share(job["id"], str(share))
            summaries[job["id"]] = CampaignSummary.from_share(
                str(share), name=job["id"])
        for _ in range(2):
            queue.complete(queue.lease("test").id, owner="test")
        return (base["id"], head["id"], summaries[base["id"]],
                summaries[head["id"]])

    def test_summary_endpoint_serves_archive(self, api_service,
                                             archived_pair):
        base_id, _, base_summary, _ = archived_pair
        client = ServiceClient(api_service.url)
        try:
            assert client.summary(base_id) == base_summary.payload
            api_service.queue.tag_baseline("golden", base_id)
            assert client.summary("golden") == base_summary.payload
            with pytest.raises(ServiceError) as err:
                client.summary("job-nope")
        finally:
            client.close()
        assert err.value.status == 404

    def test_archive_index_and_baselines(self, api_service,
                                         archived_pair):
        """There is no archive index: baselines name done jobs."""
        base_id, head_id, _, _ = archived_pair
        conn = _http_conn(api_service)
        try:
            conn.request("GET", "/v1/archive")
            response = conn.getresponse()
            response.read()
            assert response.status == 404
        finally:
            conn.close()
        client = ServiceClient(api_service.url)
        try:
            assert client.baselines() == {}
            tagged = client.tag_baseline("release", base_id)
            assert tagged == {"name": "release", "job": base_id}
            assert client.baselines() == {"release": base_id}
        finally:
            client.close()

    def test_tag_baseline_error_codes(self, api_service,
                                      archived_pair):
        client = ServiceClient(api_service.url)
        try:
            job = client.submit({"workload": "pi", "seed": 9})
            with pytest.raises(ServiceError) as err:
                client.tag_baseline("rel", job["id"])  # not done
            assert err.value.status == 409
            with pytest.raises(ServiceError) as err:
                client.tag_baseline("rel", "job-nope")
            assert err.value.status == 404
        finally:
            client.close()

    def test_compare_matches_local_diff(self, api_service,
                                        archived_pair):
        """The server's /v1/compare numbers are exactly what a local
        CampaignDiff of the same summaries computes — one shared
        implementation, no drift between CLI and service."""
        from repro.analysis.diff import CampaignDiff
        base_id, head_id, base_summary, head_summary = archived_pair
        client = ServiceClient(api_service.url)
        try:
            client.tag_baseline("golden", base_id)
            served = client.compare("golden", head_id)
        finally:
            client.close()
        local = CampaignDiff(base_summary, head_summary).payload
        assert served == local
        assert served["verdict"] == "regressed"
        assert served["outcomes"]["sdc"]["significant"]

    def test_compare_param_validation(self, api_service,
                                      archived_pair):
        base_id, head_id, _, _ = archived_pair
        client = ServiceClient(api_service.url)
        try:
            with pytest.raises(ServiceError) as err:
                client.compare(base_id, "job-nope")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.compare(base_id, head_id, confidence=2.0)
            assert err.value.status == 400
            conn = _http_conn(api_service)
            try:
                conn.request("GET", "/v1/compare?base=only")
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 400
                assert "base= and head=" in body["error"]
            finally:
                conn.close()
        finally:
            client.close()


# -- dispatch + end-to-end ----------------------------------------------------


class TestDispatcherAndE2E:
    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("svc")
        service = Service(str(root / "data")).start()
        yield service
        service.stop()

    @pytest.fixture(scope="class")
    def done_job(self, service):
        client = ServiceClient(service.url, tenant="e2e")
        job = client.submit({"workload": "pi", "scale": "tiny",
                             "experiments": 3, "seed": 11})
        return client.wait(job["id"], timeout=180)

    def test_job_completes_with_digests(self, service, done_job):
        assert done_job["state"] == "done"
        assert done_job["error"] is None
        assert done_job["result_digest"]
        # The result set is the one stored artifact of a job.
        assert "report_digest" not in done_job
        assert "checkpoint_digest" not in done_job
        assert ServiceClient(service.url).store_stats()["objects"] == 1

    def test_results_digest_round_trip(self, service, done_job):
        client = ServiceClient(service.url)
        blob = client.fetch(done_job["result_digest"])
        assert hashlib.sha256(blob).hexdigest() \
            == done_job["result_digest"]
        results = json.loads(blob)
        assert len(results) == 3
        assert all("wall_seconds" not in entry for entry in results)

    def test_service_results_match_direct_campaign(
            self, service, done_job, tmp_path):
        """The acceptance bar: the service's stored result set is
        byte-identical to a direct SharedDirCampaign run of the same
        spec and seed on this machine."""
        runner = CampaignRunner(build("pi", "tiny"))
        campaign = SharedDirCampaign(str(tmp_path / "share"),
                                     "pi", "tiny")
        faults = SEUGenerator(runner.golden.profile,
                              seed=11).batch(3)
        campaign.publish(runner, faults, seed=11)
        campaign.worker_loop("direct", runner)
        direct = canonical_json_bytes(
            canonical_results(campaign.collect()))
        served = ServiceClient(service.url).fetch(
            done_job["result_digest"])
        assert served == direct
        assert digest_bytes(direct) == done_job["result_digest"]

    def test_resubmit_same_spec_reuses_result(self, service,
                                              done_job):
        client = ServiceClient(service.url, tenant="e2e")
        again = client.submit({"workload": "pi", "scale": "tiny",
                               "experiments": 3, "seed": 11})
        assert again["state"] == "done"
        assert again["reused_from"] == done_job["id"]
        assert again["result_digest"] == done_job["result_digest"]

    def test_dedup_twin_can_be_a_baseline(self, service, done_job):
        """A twin is born done on its donor's share and result set, so
        it can be tagged at once, and its summary is the donor's under
        its own name."""
        client = ServiceClient(service.url, tenant="e2e")
        twin = client.submit({"workload": "pi", "scale": "tiny",
                              "experiments": 3, "seed": 11})
        assert twin["state"] == "done" and twin["reused_from"]
        assert client.tag_baseline("twin", twin["id"]) == \
            {"name": "twin", "job": twin["id"]}
        donor = client.summary(twin["reused_from"])
        summary = client.summary("twin")
        assert summary.pop("name") == twin["id"]
        assert donor.pop("name") == twin["reused_from"]
        assert summary == donor
        verdict = client.compare(done_job["id"], "twin")["verdict"]
        assert verdict == "unchanged"

    def test_same_seed_rerun_lands_on_same_digest(self, service,
                                                  done_job):
        """Digest stability: forcing a full re-run (reuse=False) of
        the same seed must produce the same content address, and the
        store keeps a single deduplicated object."""
        client = ServiceClient(service.url, tenant="e2e")
        before = client.store_stats()["objects"]
        job = client.submit({"workload": "pi", "scale": "tiny",
                             "experiments": 3, "seed": 11},
                            reuse=False)
        assert job["state"] != "done" or not job["reused_from"]
        final = client.wait(job["id"], timeout=180)
        assert final["state"] == "done"
        assert final["result_digest"] == done_job["result_digest"]
        # The result set is the only stored object, and it dedupes.
        assert client.store_stats()["objects"] == before

    def test_job_status_exposes_campaign_share(self, service,
                                               done_job):
        client = ServiceClient(service.url)
        status = client.status(done_job["id"])
        assert status["job"]["state"] == "done"
        assert status["campaign"]["completed"] == 3
        assert status["campaign"]["service"]["job"] == done_job["id"]

    def test_summary_is_derived_from_the_share(self, service,
                                               done_job):
        """The summary endpoint serves the payload the share folds
        to, byte for byte what a stored summary of the job held."""
        from repro.analysis.diff import CampaignSummary
        client = ServiceClient(service.url)
        share = client.job(done_job["id"])["share_dir"]
        assert client.summary(done_job["id"]) == CampaignSummary \
            .from_share(share, name=done_job["id"]).payload

    def test_report_renders(self, service, done_job):
        client = ServiceClient(service.url)
        report = client.report(done_job["id"])
        assert "Campaign report" in report
        html = client.report(done_job["id"], fmt="html")
        assert html.lstrip().startswith("<")

    def test_failed_job_records_error(self, tmp_path):
        """A job whose campaign collapses must land in 'failed' with
        the cause, not wedge the dispatcher."""
        queue = JobQueue(str(tmp_path / "q.db"))
        store = ContentStore(str(tmp_path / "store"))
        dispatcher = Dispatcher(queue, store, str(tmp_path),
                                lease_seconds=60)

        spec = JobSpec.from_dict({"workload": "pi",
                                  "experiments": 2})
        job = queue.submit(spec)

        def exploding(job):
            raise RuntimeError("simulated worker loss")
        dispatcher.run_job = exploding
        assert dispatcher.poll_once() is True
        failed = queue.get(job.id)
        assert failed.state == "failed"
        assert "simulated worker loss" in failed.error

    def test_dead_workers_fail_the_job_once(self, tmp_path,
                                            monkeypatch):
        """Forked workers that cannot load golden.pkl exit before
        running anything: the job fails on its first attempt with the
        shortfall in its error, and lease recovery leaves it failed."""
        publish = SharedDirCampaign.publish

        def publish_then_corrupt(self, *args, **kwargs):
            publish(self, *args, **kwargs)
            with open(os.path.join(self.share_dir, "golden.pkl"),
                      "wb") as handle:
                handle.write(b"not a pickle")

        monkeypatch.setattr(SharedDirCampaign, "publish",
                            publish_then_corrupt)
        now = [1000.0]
        clock = lambda: now[0]  # noqa: E731 - steppable clock
        queue = JobQueue(str(tmp_path / "q.db"), clock=clock)
        dispatcher = Dispatcher(queue,
                                ContentStore(str(tmp_path / "store")),
                                str(tmp_path), lease_seconds=60,
                                clock=clock)
        job = queue.submit(JobSpec.from_dict(
            {"workload": "pi", "scale": "tiny", "experiments": 2,
             "workers": 2}))
        assert dispatcher.poll_once() is True
        failed = queue.get(job.id)
        assert failed.state == "failed"
        assert failed.attempts == 1
        assert "0 results for 2 experiments" in failed.error
        now[0] += 3600.0  # long past any lease
        assert queue.requeue_expired() == []
        assert dispatcher.poll_once() is False
        assert queue.get(job.id).state == "failed"

    def test_submit_wakes_an_idle_dispatcher(self, tmp_path):
        """The dispatcher's 60 s poll never comes round: the submit
        itself wakes it."""
        service = Service(str(tmp_path / "data"),
                          poll_seconds=60).start()
        try:
            time.sleep(0.2)  # the dispatcher found the queue empty
            job = ServiceClient(service.url).submit(
                {"workload": "pi", "scale": "tiny", "experiments": 1})
            deadline = time.monotonic() + 5.0
            while service.queue.get(job["id"]).state == "queued":
                assert time.monotonic() < deadline, "never leased"
                time.sleep(0.01)
        finally:
            service.stop()

    def test_idle_service_stops_promptly(self, tmp_path):
        service = Service(str(tmp_path / "data"),
                          poll_seconds=60).start()
        time.sleep(0.2)  # the dispatcher is waiting out its poll
        started = time.monotonic()
        service.stop()
        assert time.monotonic() - started < 2.0

    def test_dispatcher_marks_share_for_status(self, service,
                                               done_job):
        """gemfi status on a service-run share names its job and
        tenant (the service.json marker); queue numbers come from
        GET /v1/jobs, not from the share."""
        from repro.telemetry import read_status
        share = ServiceClient(service.url).job(
            done_job["id"])["share_dir"]
        with open(os.path.join(share, "service.json"),
                  encoding="utf-8") as handle:
            assert json.load(handle) == {"job": done_job["id"],
                                         "tenant": "e2e"}
        status = read_status(share)
        assert status.service == {"job": done_job["id"],
                                  "tenant": "e2e"}


# -- data directories written before derived views -----------------------------

#: The queue schema of data directories written while finished jobs also
#: stored a report, a checkpoint and an archived summary.
OLD_QUEUE_SCHEMA = """
CREATE TABLE jobs (
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
    report_digest   TEXT,
    checkpoint_digest TEXT,
    error           TEXT,
    share_dir       TEXT,
    reused_from     TEXT,
    request_id      TEXT
);
CREATE INDEX jobs_dispatch ON jobs (state, priority DESC, submitted ASC);
CREATE INDEX jobs_spec ON jobs (spec_digest);
CREATE TABLE tenants (tenant TEXT PRIMARY KEY,
                      max_active INTEGER NOT NULL);
CREATE TABLE usage (
    tenant       TEXT PRIMARY KEY,
    jobs         INTEGER NOT NULL DEFAULT 0,
    experiments  INTEGER NOT NULL DEFAULT 0,
    instructions INTEGER NOT NULL DEFAULT 0,
    wall_seconds REAL NOT NULL DEFAULT 0.0
);
CREATE TABLE archive (
    job_id          TEXT PRIMARY KEY,
    tenant          TEXT NOT NULL,
    spec_digest     TEXT NOT NULL,
    summary_digest  TEXT NOT NULL,
    summary         TEXT NOT NULL,
    archived        REAL NOT NULL
);
CREATE INDEX archive_tenant ON archive (tenant);
CREATE TABLE baselines (name TEXT PRIMARY KEY, job_id TEXT NOT NULL,
                        tagged REAL NOT NULL);
"""


class TestOlderDataDir:
    def test_old_queue_db_lists_dispatches_and_serves(self, tmp_path):
        """A queue.db holding archive rows and both digest columns
        opens, lists and dispatches; its done job's summary, report
        and compares are derived from its share."""
        from repro.analysis.diff import CampaignSummary
        from repro.telemetry.report import load_share, render_report
        data = tmp_path / "data"
        old_id = "job-000000000001"
        share = data / "shares" / old_id
        spec = JobSpec.from_dict({"workload": "pi", "scale": "tiny",
                                  "experiments": 2, "seed": 3})
        runner = CampaignRunner(build("pi", "tiny"))
        campaign = SharedDirCampaign(str(share), "pi", "tiny")
        campaign.publish(runner, SEUGenerator(runner.golden.profile,
                                              seed=3).batch(2), seed=3)
        campaign.worker_loop("ws0", runner)
        store = ContentStore(str(data / "store"))
        report = render_report(load_share(str(share)), fmt="md")
        summary = CampaignSummary.from_share(str(share), name=old_id)
        digests = (
            store.put_json(canonical_results(campaign.collect())),
            store.put_bytes(report.encode("utf-8")),
            store.put_bytes(runner.golden.checkpoint))
        queued = JobSpec.from_dict({"workload": "pi", "scale": "tiny",
                                    "experiments": 1, "seed": 5})
        with closing(sqlite3.connect(str(data / "queue.db"))) as conn:
            conn.executescript(OLD_QUEUE_SCHEMA)
            conn.execute(
                "INSERT INTO jobs (id, tenant, priority, state, spec, "
                "spec_digest, submitted, started, finished, attempts, "
                "result_digest, report_digest, checkpoint_digest, "
                "share_dir) VALUES (?, 'old', 0, 'done', ?, ?, 1.0, "
                "1.0, 2.0, 1, ?, ?, ?, ?)",
                (old_id, json.dumps(spec.as_dict(), sort_keys=True),
                 spec.digest(), *digests, str(share)))
            conn.execute(
                "INSERT INTO jobs (id, tenant, priority, state, spec, "
                "spec_digest, submitted) "
                "VALUES ('job-000000000002', 'old', 0, 'queued', ?, ?, "
                "3.0)",
                (json.dumps(queued.as_dict(), sort_keys=True),
                 queued.digest()))
            conn.execute(
                "INSERT INTO archive VALUES (?, 'old', ?, ?, ?, 2.0)",
                (old_id, spec.digest(), summary.digest(),
                 json.dumps(summary.payload, sort_keys=True)))
            conn.execute("INSERT INTO baselines VALUES ('v1', ?, 2.0)",
                         (old_id,))
            conn.commit()

        service = Service(str(data)).start_http()
        client = ServiceClient(service.url)
        try:
            listing = client.jobs()["jobs"]
            assert [job["id"] for job in listing] == \
                [old_id, "job-000000000002"]
            assert all("report_digest" not in job for job in listing)
            assert service.dispatcher.poll_once() is True
            new = client.job("job-000000000002")
            assert new["state"] == "done"
            assert client.summary(old_id) == summary.payload
            assert client.summary("v1") == summary.payload
            assert client.report(old_id) == report
            assert client.compare("v1", old_id)["verdict"] == "unchanged"
            assert client.compare(old_id, new["id"])["base"]["name"] \
                == old_id
            assert client.tag_baseline("v2", new["id"])["job"] == \
                new["id"]
            twin = client.submit(spec.as_dict())
            assert twin["reused_from"] == old_id
            assert client.results(twin["id"]) == \
                json.loads(store.get(digests[0]))
        finally:
            client.close()
            service.stop()


# -- observability plane -------------------------------------------------------


def _http_conn(service):
    import http.client
    return http.client.HTTPConnection(service.host, service.port,
                                      timeout=10.0)


def _post_job(service, body):
    """POST /v1/jobs without an X-Tenant header: (status, JSON body)."""
    conn = _http_conn(service)
    try:
        conn.request("POST", "/v1/jobs", body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestKeepAliveAndRequestIds:
    def test_connection_is_reused_across_requests(self, api_service):
        conn = _http_conn(api_service)
        try:
            conn.request("GET", "/v1/healthz")
            first = conn.getresponse()
            first.read()
            assert first.getheader("Connection") == "keep-alive"
            sock = conn.sock
            conn.request("GET", "/v1/healthz")
            second = conn.getresponse()
            second.read()
            assert conn.sock is sock  # same socket, no reconnect
        finally:
            conn.close()

    def test_connection_close_is_honoured(self, api_service):
        conn = _http_conn(api_service)
        try:
            conn.request("GET", "/v1/healthz",
                         headers={"Connection": "close"})
            response = conn.getresponse()
            response.read()
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_request_id_is_minted_and_echoed(self, api_service):
        conn = _http_conn(api_service)
        try:
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            response.read()
            minted = response.getheader("X-Request-Id")
            assert minted and minted.startswith("req-")
            conn.request("GET", "/v1/healthz",
                         headers={"X-Request-Id": "req-mine-123"})
            response = conn.getresponse()
            response.read()
            assert response.getheader("X-Request-Id") == "req-mine-123"
        finally:
            conn.close()

    def test_service_client_pools_its_connection(self, api_service):
        client = ServiceClient(api_service.url)
        try:
            client.healthz()
            assert client._conn is not None
            sock = client._conn.sock
            client.healthz()
            assert client._conn.sock is sock
        finally:
            client.close()
        assert client._conn is None

    def test_stop_with_an_open_keep_alive_connection_is_clean(
            self, tmp_path, capfd, caplog):
        """A client still parked on its pooled connection when the
        service stops is closed quietly: no asyncio traceback on
        stderr, nothing logged."""
        service = Service(str(tmp_path / "data")).start_http()
        client = ServiceClient(service.url)
        try:
            client.jobs()
            service.stop()
        finally:
            client.close()
        assert capfd.readouterr().err == ""
        assert [record for record in caplog.records
                if record.levelno >= logging.WARNING] == []

    def test_errors_keep_the_connection_alive(self, api_service):
        """A 404 is a valid routed response; only parse errors force
        Connection: close."""
        conn = _http_conn(api_service)
        try:
            conn.request("GET", "/v1/jobs/job-nope")
            response = conn.getresponse()
            response.read()
            assert response.status == 404
            assert response.getheader("Connection") == "keep-alive"
        finally:
            conn.close()


class TestGeneric500:
    def test_internal_error_is_generic_and_journalled(self,
                                                      api_service):
        async def boom(request):
            raise RuntimeError("secret internal detail 42")

        api_service.app.router.add("GET", "/boom", boom)
        conn = _http_conn(api_service)
        try:
            conn.request("GET", "/boom",
                         headers={"X-Request-Id": "req-boom-1"})
            response = conn.getresponse()
            body = response.read().decode("utf-8")
        finally:
            conn.close()
        assert response.status == 500
        payload = json.loads(body)
        # The client sees only a generic body + the request id.
        assert payload == {"error": "internal server error",
                           "request_id": "req-boom-1"}
        assert "secret" not in body
        # The operator gets the full traceback in the error log.
        error_log = api_service.observer.log_path("error.jsonl")
        with open(error_log, "r", encoding="utf-8") as handle:
            entries = [json.loads(line) for line in handle]
        entry = entries[-1]
        assert entry["request_id"] == "req-boom-1"
        assert entry["type"] == "RuntimeError"
        assert "secret internal detail 42" in entry["traceback"]
        assert "handle_connection" not in body


class TestMetricsEndpoint:
    def test_scrape_parses_and_request_counter_advances(
            self, api_service):
        from repro.telemetry.export import parse_openmetrics
        client = ServiceClient(api_service.url)
        try:
            client.healthz()
            first = parse_openmetrics(client.metrics_text())
            client.healthz()
            client.healthz()
            second = parse_openmetrics(client.metrics_text())
        finally:
            client.close()

        def healthz_count(families):
            return sum(
                value for sample, labels, value
                in families["http_requests"]["samples"]
                if sample == "http_requests_total"
                and labels.get("route") == "/v1/healthz")

        assert healthz_count(second) == healthz_count(first) + 2
        assert first["http_requests"]["type"] == "counter"
        assert "queue_depth" in second
        assert "http_request_duration_seconds" in second

    def test_scrape_carries_openmetrics_content_type(self,
                                                     api_service):
        conn = _http_conn(api_service)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            response.read()
            assert "openmetrics-text" \
                in response.getheader("Content-Type")
        finally:
            conn.close()

    def test_submissions_and_quota_are_counted(self, api_service):
        from repro.telemetry.export import parse_openmetrics
        client = ServiceClient(api_service.url, tenant="metered")
        try:
            for seed in range(3):
                client.submit({"workload": "pi", "seed": seed})
            with pytest.raises(ServiceError):
                client.submit({"workload": "pi", "seed": 99})
            families = parse_openmetrics(client.metrics_text())
        finally:
            client.close()
        submitted = {
            labels.get("tenant"): value
            for _, labels, value
            in families["queue_jobs_submitted"]["samples"]}
        assert submitted["metered"] == 3
        assert families["queue_quota_rejections"]["samples"]
        active = {labels.get("tenant"): value for _, labels, value
                  in families["queue_tenant_active"]["samples"]}
        assert active["metered"] == 3

    def test_access_log_records_route_template(self, api_service):
        client = ServiceClient(api_service.url)
        try:
            job = client.submit({"workload": "pi"})
            client.job(job["id"])
        finally:
            client.close()
        access_log = api_service.observer.log_path("access.jsonl")
        # The access entry lands just after the response bytes do;
        # give the event loop a moment.
        import time as _time
        for _ in range(100):
            with open(access_log, "r", encoding="utf-8") as handle:
                entries = [json.loads(line) for line in handle]
            if any(e["route"] == "/v1/jobs/{id}" for e in entries):
                break
            _time.sleep(0.02)
        routes = [entry["route"] for entry in entries]
        # The matched template, not the raw path: cardinality stays
        # bounded no matter how many jobs exist.
        assert "/v1/jobs/{id}" in routes
        assert all(job["id"] not in route for route in routes)
        detail = [e for e in entries if e["route"] == "/v1/jobs/{id}"]
        assert detail[-1]["path"] == f"/v1/jobs/{job['id']}"
        assert detail[-1]["request_id"].startswith("req-")


class TestUsageAndDashboardEndpoints:
    def test_usage_empty_before_any_job_ran(self, api_service):
        client = ServiceClient(api_service.url)
        try:
            assert client.usage() == {}
        finally:
            client.close()

    def test_submit_records_request_id_on_the_job(self, api_service):
        client = ServiceClient(api_service.url)
        try:
            job = client.submit({"workload": "pi"})
        finally:
            client.close()
        assert job["request_id"] and job["request_id"].startswith(
            "req-")



class TestE2EObservability:
    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("svc-obs")
        service = Service(str(root / "data")).start()
        yield service
        service.stop()

    @pytest.fixture(scope="class")
    def done_job(self, service):
        client = ServiceClient(service.url, tenant="e2e")
        job = client.submit({"workload": "pi", "scale": "tiny",
                             "experiments": 3, "seed": 11})
        final = client.wait(job["id"], timeout=180)
        client.close()
        assert final["state"] == "done"
        return final

    def test_usage_metered_per_tenant(self, service, done_job):
        client = ServiceClient(service.url)
        try:
            usage = client.usage()
        finally:
            client.close()
        assert usage["e2e"]["jobs"] >= 1
        assert usage["e2e"]["experiments"] >= 3
        assert usage["e2e"]["instructions"] > 0
        assert usage["e2e"]["wall_seconds"] > 0

    def test_usage_survives_queue_reopen(self, service, done_job):
        reopened = JobQueue(service.queue.path)
        usage = reopened.usage()
        assert usage["e2e"]["experiments"] >= 3

    def test_metrics_reflect_dispatch_and_store(self, service,
                                                done_job):
        from repro.telemetry.export import parse_openmetrics
        client = ServiceClient(service.url)
        try:
            families = parse_openmetrics(client.metrics_text())
        finally:
            client.close()
        executed = {labels.get("outcome"): value for _, labels, value
                    in families["jobs_executed"]["samples"]}
        assert executed.get("done", 0) >= 1
        assert families["job_phase_seconds"]["type"] == "histogram"
        phases = {labels.get("phase") for _, labels, _
                  in families["job_phase_seconds"]["samples"]}
        assert {"golden", "publish", "campaign", "collect",
                "report"} <= phases
        store_writes = sum(
            value for _, _, value
            in families["store_writes"]["samples"])
        assert store_writes >= 1
        usage_exp = {labels.get("tenant"): value
                     for _, labels, value
                     in families["usage_experiments"]["samples"]}
        assert usage_exp["e2e"] >= 3
        leases = sum(value for _, _, value
                     in families["queue_leases"]["samples"])
        assert leases >= 1

    def test_dashboard_route_answers_404(self, service, done_job):
        """A job's live view is its ``/events`` stream (and the console
        job page); there is no server-rendered dashboard frame."""
        conn = _http_conn(service)
        try:
            conn.request("GET", f"/v1/jobs/{done_job['id']}/dashboard")
            response = conn.getresponse()
            response.read()
            assert response.status == 404
            conn.request("GET", f"/v1/jobs/{done_job['id']}/events")
            response = conn.getresponse()
            frames = [json.loads(line) for line
                      in response.read().decode("utf-8").splitlines()]
            assert response.status == 200
        finally:
            conn.close()
        assert frames[0]["campaign"]["completed"] == 3
        assert frames[-1]["type"] == "end"

    def test_traced_job_roots_at_the_request(self, service, capsys):
        self._assert_traced_job_roots_at_the_request(service, capsys,
                                                     workers=1)

    def test_traced_forked_job_roots_at_the_request(self, service,
                                                    capsys):
        """The forked workers of a ``workers: 2`` job write the same
        span tree as the in-process worker."""
        self._assert_traced_job_roots_at_the_request(service, capsys,
                                                     workers=2)

    @staticmethod
    def _assert_traced_job_roots_at_the_request(service, capsys,
                                                workers):
        from repro.cli import main
        from repro.telemetry.spans import TraceContext, load_spans
        client = ServiceClient(service.url, tenant="traced")
        try:
            job = client.submit({"workload": "pi", "scale": "tiny",
                                 "experiments": 2, "seed": 17,
                                 "trace": True, "workers": workers})
            job = client.wait(job["id"], timeout=180)
        finally:
            client.close()
        assert job["state"] == "done"
        share = job["share_dir"]
        finished, opened = load_spans(share)
        assert opened == []
        context = TraceContext(17)
        by_name = {}
        for record in finished:
            by_name.setdefault(record["name"], record)
        request = by_name["request"]
        assert request["span"] == context.span_id("/request")
        assert request["parent"] is None
        assert request["worker"] == "service"
        assert request["attrs"]["request_id"] == job["request_id"]
        assert request["attrs"]["job"] == job["id"]
        campaign = by_name["campaign"]
        # The campaign root hangs off the request span, but keeps the
        # id an unrooted run would compute — workers' id arithmetic
        # is untouched.
        assert campaign["span"] == context.span_id("/campaign")
        assert campaign["parent"] == context.span_id("/request")
        experiments = [r for r in finished
                       if r["name"].startswith("exp_")]
        assert experiments
        assert all(r["parent"] == context.span_id("/campaign")
                   for r in experiments)
        # gemfi timeline --tree renders the rooted tree.
        assert main(["timeline", share, "--tree"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("request ")
        assert lines[1].startswith("  campaign ")
        assert any(line.startswith("    exp_") for line in lines)



# -- response hygiene: content types, caching, 405 ----------------------------


class TestResponseHeaders:
    def test_json_carries_charset_and_no_store(self, api_service):
        conn = _http_conn(api_service)
        try:
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            response.read()
            assert response.getheader("Content-Type") \
                == "application/json; charset=utf-8"
            assert response.getheader("Cache-Control") == "no-store"
        finally:
            conn.close()

    def test_metrics_scrape_is_never_cached(self, api_service):
        conn = _http_conn(api_service)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            response.read()
            assert "charset=utf-8" \
                in response.getheader("Content-Type")
            assert response.getheader("Cache-Control") == "no-store"
        finally:
            conn.close()

    def test_event_stream_content_type(self, api_service):
        client = ServiceClient(api_service.url)
        try:
            job = client.submit({"workload": "pi"})
            client.cancel(job["id"])
        finally:
            client.close()
        conn = _http_conn(api_service)
        try:
            conn.request("GET", f"/v1/jobs/{job['id']}/events")
            response = conn.getresponse()
            response.read()
            assert response.getheader("Content-Type") \
                == "application/jsonl; charset=utf-8"
            assert response.getheader("Transfer-Encoding") == "chunked"
            assert response.getheader("Cache-Control") == "no-store"
        finally:
            conn.close()

    def test_error_bodies_are_json_with_charset(self, api_service):
        conn = _http_conn(api_service)
        try:
            conn.request("GET", "/v1/jobs/job-nope")
            response = conn.getresponse()
            response.read()
            assert response.status == 404
            assert response.getheader("Content-Type") \
                == "application/json; charset=utf-8"
        finally:
            conn.close()

    def test_wrong_method_is_405_with_allow(self, api_service):
        conn = _http_conn(api_service)
        try:
            conn.request("DELETE", "/v1/healthz")
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 405
            assert response.getheader("Allow") == "GET"
            assert "DELETE" in body["error"]
            # Both registered methods are advertised.
            conn.request("PUT", "/v1/jobs")
            response = conn.getresponse()
            response.read()
            assert response.status == 405
            assert response.getheader("Allow") == "GET, POST"
        finally:
            conn.close()

    def test_unknown_path_is_still_404(self, api_service):
        conn = _http_conn(api_service)
        try:
            conn.request("GET", "/v1/nope")
            response = conn.getresponse()
            response.read()
            assert response.status == 404
            assert response.getheader("Allow") is None
        finally:
            conn.close()


# -- client disconnect mid-stream ---------------------------------------------


def _gauge(service, name):
    """One gauge as ``/metrics`` would render it (read under the
    observer's lock, since the HTTP thread writes concurrently)."""
    with service.observer._lock:
        return service.observer.registry.as_flat_dict().get(name)


def _wait_for_gauge(service, name, value, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if _gauge(service, name) == value:
            return True
        time.sleep(0.02)
    return False


class TestStreamDisconnect:
    def test_disconnect_mid_events_stream_unwinds(self, api_service):
        """Closing the socket mid-stream must cancel the producer and
        return the in-flight/connection gauges to zero — no leaked
        stream task polling a queued job forever."""
        client = ServiceClient(api_service.url)
        try:
            job = client.submit({"workload": "pi"})
        finally:
            client.close()
        assert _wait_for_gauge(api_service,
                               "http.requests_in_flight", 0)
        conn = _http_conn(api_service)
        conn.request("GET",
                     f"/v1/jobs/{job['id']}/events?poll=0.05")
        response = conn.getresponse()
        assert response.status == 200
        first = response.read(10)
        assert first  # the stream is live, and accounted for
        assert _gauge(api_service, "http.requests_in_flight") == 1
        conn.close()  # abrupt client disconnect; job still queued
        assert _wait_for_gauge(api_service,
                               "http.requests_in_flight", 0)
        assert _wait_for_gauge(api_service,
                               "http.connections_open", 0)

    def test_disconnect_finalises_the_generator(self, api_service):
        """The producer generator's ``finally`` runs on disconnect, so
        lease heartbeats / file handles owned by a stream are
        released deterministically."""
        finalised = threading.Event()

        async def endless(request):
            async def stream():
                try:
                    while True:
                        yield b'{"tick":1}\n'
                        await asyncio.sleep(0.02)
                finally:
                    finalised.set()

            return Response.streaming(stream())

        api_service.app.router.add("GET", "/endless", endless)
        conn = _http_conn(api_service)
        conn.request("GET", "/endless")
        response = conn.getresponse()
        assert response.read(8)
        conn.close()
        assert finalised.wait(timeout=10.0)
        assert _wait_for_gauge(api_service,
                               "http.requests_in_flight", 0)

    def test_clean_stream_end_also_finalises(self, api_service):
        client = ServiceClient(api_service.url)
        try:
            job = client.submit({"workload": "pi"})
            client.cancel(job["id"])
            frames = list(client.events(job["id"], poll=0.05))
        finally:
            client.close()
        assert frames[-1]["type"] == "end"
        assert _wait_for_gauge(api_service,
                               "http.requests_in_flight", 0)
