"""The embedded web console (``gemfi serve --ui``) and its renderers:
SVG timeline lanes and the merged alerts feed."""

import http.client
import json
import os
import re

import pytest

from repro.cli import main
from repro.service import Service, ServiceClient
from repro.telemetry import (
    Alert,
    alerts_feed,
    append_alerts,
    render_timeline_svg,
)
from repro.telemetry.timeline import OUTCOME_COLORS

# -- plumbing -----------------------------------------------------------------

_ISLAND = re.compile(
    r'<script type="application/json" id="gemfi-data">(.*?)</script>',
    re.S)


def _get(service, path, method="GET"):
    conn = http.client.HTTPConnection(service.host, service.port,
                                      timeout=10.0)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), \
            response.read()
    finally:
        conn.close()


def _island(body: bytes) -> dict:
    match = _ISLAND.search(body.decode("utf-8"))
    assert match, "page has no gemfi-data JSON island"
    # "</" arrives escaped as "<\/" — a valid JSON escape, so the
    # island parses as-is, exactly like CI does it.
    return json.loads(match.group(1))


@pytest.fixture
def ui_service(tmp_path):
    """HTTP API with the console enabled — no dispatcher thread."""
    service = Service(str(tmp_path / "data"), ui=True)
    service.start_http()
    yield service
    service.stop()


# -- the pages ----------------------------------------------------------------


class TestConsolePages:
    def test_ui_is_opt_in(self, tmp_path):
        service = Service(str(tmp_path / "noui")).start_http()
        try:
            status, _, _ = _get(service, "/ui")
            assert status == 404
        finally:
            service.stop()

    def test_index_lists_jobs_with_live_payload(self, ui_service):
        client = ServiceClient(ui_service.url, tenant="alice")
        try:
            job = client.submit({"workload": "pi", "experiments": 2,
                                 "seed": 5})
        finally:
            client.close()
        status, headers, body = _get(ui_service, "/ui")
        assert status == 200
        assert headers["Content-Type"] == "text/html; charset=utf-8"
        assert headers["Cache-Control"] == "no-store"
        text = body.decode("utf-8")
        assert "<!doctype html>" in text
        assert "Campaign explorer" in text
        payload = _island(body)
        assert payload["queue_depth"] == 1
        assert [j["id"] for j in payload["jobs"]] == [job["id"]]
        assert payload["jobs"][0]["tenant"] == "alice"
        assert payload["tenants"]["alice"] == {"queued": 1}

    def test_job_page_embeds_the_job_record(self, ui_service):
        client = ServiceClient(ui_service.url)
        try:
            job = client.submit({"workload": "dct", "experiments": 4,
                                 "seed": 9})
        finally:
            client.close()
        status, _, body = _get(ui_service, f"/ui/jobs/{job['id']}")
        assert status == 200
        payload = _island(body)
        assert payload["job"]["id"] == job["id"]
        assert payload["job"]["spec"]["workload"] == "dct"
        text = body.decode("utf-8")
        assert f"/v1/jobs/{job['id']}/status" in text
        assert 'id="events"' in text  # the live stream target

    def test_unknown_job_page_is_404(self, ui_service):
        status, _, body = _get(ui_service, "/ui/jobs/job-missing")
        assert status == 404
        assert "no such job" in json.loads(body)["error"]

    def test_coverage_page_empty_state(self, ui_service):
        """No dispatched jobs yet: the coverage page still renders,
        with an empty island instead of a 404."""
        status, _, body = _get(ui_service, "/ui/coverage")
        assert status == 200
        payload = _island(body)
        assert payload["job"] is None
        assert payload["jobs"] == []
        assert payload["coverage"] is None

    def test_nav_links_the_coverage_page(self, ui_service):
        _, _, body = _get(ui_service, "/ui")
        text = body.decode("utf-8")
        assert 'href="/ui/coverage"' in text
        assert 'href="/ui/compare"' in text

    def test_compare_page_empty_state(self, ui_service):
        """No dispatched campaigns yet: the compare page
        renders an empty island instead of erroring."""
        status, _, body = _get(ui_service, "/ui/compare")
        assert status == 200
        payload = _island(body)
        assert payload["jobs"] == []
        assert payload["compare"] is None
        assert "nothing to compare yet" in body.decode("utf-8")

    def test_alerts_page_healthy(self, ui_service):
        status, _, body = _get(ui_service, "/ui/alerts")
        assert status == 200
        assert _island(body) == {"alerts": []}
        assert "no alerts" in body.decode("utf-8")
        # journal-only mode is one query param away
        status, _, body = _get(ui_service, "/ui/alerts?live=0")
        assert status == 200
        assert "journal only" in body.decode("utf-8")

    def test_no_metrics_history_surface(self, ui_service):
        """Trends come from scraping /metrics: the service keeps no
        history store, endpoint or chart page of its own."""
        for path in ("/v1/history", "/ui/metrics"):
            status, _, _ = _get(ui_service, path)
            assert status == 404
        assert not os.path.exists(
            os.path.join(ui_service.data_dir, "history.db"))
        _, _, body = _get(ui_service, "/ui")
        assert "/ui/metrics" not in body.decode("utf-8")

    def test_timeline_and_report_404_before_dispatch(self, ui_service):
        client = ServiceClient(ui_service.url)
        try:
            job = client.submit({"workload": "pi"})
        finally:
            client.close()
        status, _, _ = _get(ui_service,
                            f"/ui/jobs/{job['id']}/timeline")
        assert status == 404
        status, _, _ = _get(ui_service,
                            f"/ui/jobs/{job['id']}/report")
        assert status == 404


# -- UI traffic shows up in the observability plane ---------------------------


class TestUiObservability:
    def test_ui_routes_appear_in_openmetrics(self, ui_service):
        from repro.telemetry.export import parse_openmetrics
        _get(ui_service, "/ui")
        _get(ui_service, "/ui/alerts")
        client = ServiceClient(ui_service.url)
        try:
            families = parse_openmetrics(client.metrics_text())
        finally:
            client.close()
        routes = {labels.get("route")
                  for sample, labels, _
                  in families["http_requests"]["samples"]
                  if sample == "http_requests_total"}
        assert "/ui" in routes
        assert "/ui/alerts" in routes


# -- machine-readable CLI surfaces --------------------------------------------


class TestCliJsonOutput:
    def test_jobs_json(self, ui_service, capsys):
        client = ServiceClient(ui_service.url, tenant="cli")
        try:
            job = client.submit({"workload": "pi", "seed": 3})
        finally:
            client.close()
        assert main(["jobs", "--url", ui_service.url, "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["queue_depth"] == 1
        assert [j["id"] for j in listing["jobs"]] == [job["id"]]
        assert listing["jobs"][0]["spec"]["seed"] == 3
        # and the human table renders the same job
        assert main(["jobs", "--url", ui_service.url]) == 0
        table = capsys.readouterr().out
        assert job["id"] in table
        assert "# queue depth: 1" in table

    def test_usage_json(self, ui_service, capsys):
        assert main(["usage", "--url", ui_service.url, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {}
        assert main(["usage", "--url", ui_service.url]) == 0
        assert "no metered usage" in capsys.readouterr().out

    def test_cli_errors_cleanly_with_no_service(self, capsys):
        assert main(["jobs", "--url", "http://127.0.0.1:9"]) == 2
        assert "error:" in capsys.readouterr().err


# -- over a dispatched job ----------------------------------------------------


class TestConsoleEndToEnd:
    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("console-e2e")
        service = Service(str(root / "data"), ui=True).start()
        yield service
        service.stop()

    @pytest.fixture(scope="class")
    def done_job(self, service):
        client = ServiceClient(service.url, tenant="console")
        try:
            job = client.submit({"workload": "pi", "scale": "tiny",
                                 "experiments": 2, "seed": 17,
                                 "trace": True})
            return client.wait(job["id"], timeout=180)
        finally:
            client.close()

    def test_timeline_page_renders_svg_lanes(self, service,
                                             done_job):
        status, _, body = _get(
            service, f"/ui/jobs/{done_job['id']}/timeline")
        assert status == 200
        text = body.decode("utf-8")
        assert "<svg " in text
        assert "Span tree" in text
        assert "request " in text  # tree roots at the submit request
        payload = _island(body)
        assert payload["job"] == done_job["id"]
        assert payload["events"] > 0
        assert payload["otherData"]["timebase"] == "host"

    def test_report_page_inlines_the_markdown(self, service,
                                              done_job):
        status, _, body = _get(
            service, f"/ui/jobs/{done_job['id']}/report")
        assert status == 200
        text = body.decode("utf-8")
        assert "outcome" in text.lower()
        assert f"/v1/jobs/{done_job['id']}/report?format=html" in text

    def test_job_page_links_the_timeline(self, service, done_job):
        status, _, body = _get(service,
                               f"/ui/jobs/{done_job['id']}")
        assert status == 200
        assert f"/ui/jobs/{done_job['id']}/timeline" \
            in body.decode("utf-8")
        assert _island(body)["job"]["state"] == "done"

    def test_coverage_endpoint_returns_full_payload(self, service,
                                                    done_job):
        status, _, body = _get(
            service, f"/v1/jobs/{done_job['id']}/coverage")
        assert status == 200
        payload = json.loads(body)
        assert payload["job"] == done_job["id"]
        coverage = payload["coverage"]
        assert coverage["accounted"]["experiments"] == 2
        assert coverage["space"]["covered_sites"] <= \
            coverage["space"]["total"]
        assert set(coverage["heatmaps"]) == {
            "location", "bit", "time_decile", "register", "pc_region"}

    def test_coverage_page_renders_svg_heatmaps(self, service,
                                                done_job):
        status, _, body = _get(service, "/ui/coverage")
        assert status == 200
        text = body.decode("utf-8")
        assert "<svg " in text
        assert f"/v1/jobs/{done_job['id']}/coverage" in text
        payload = _island(body)
        assert payload["job"] == done_job["id"]
        assert payload["coverage"]["accounted"]["experiments"] == 2

    def test_coverage_page_unknown_job_is_404(self, service,
                                              done_job):
        status, _, _ = _get(service, "/ui/coverage?job=job-missing")
        assert status == 404

    def _scrape(self, service, family: str) -> dict:
        """``{labels: value}`` of one family from a /metrics scrape."""
        from repro.telemetry.export import parse_openmetrics
        status, _, body = _get(service, "/metrics")
        assert status == 200
        families = parse_openmetrics(body.decode("utf-8"))
        return {tuple(sorted(labels.items())): value
                for _, labels, value in families[family]["samples"]}

    def test_usage_kips_counts_simulated_instructions(self, service,
                                                      done_job):
        """The metering behind usage.kips counts what was simulated,
        not the replay and tail the checkpoint ladder skipped."""
        from repro.telemetry.campaign import simulated_instructions
        share = service.queue.get(done_job["id"]).share_dir
        results = []
        for name in sorted(os.listdir(os.path.join(share, "results"))):
            with open(os.path.join(share, "results", name),
                      encoding="utf-8") as handle:
                results.append(json.load(handle))
        usage = service.queue.usage(tenant="console")["console"]
        assert usage["instructions"] == sum(
            simulated_instructions(entry) for entry in results)
        assert usage["instructions"] < sum(
            entry["instructions"] for entry in results)
        kips = self._scrape(service, "usage_kips")
        assert kips[(("tenant", "console"),)] == pytest.approx(
            usage["instructions"] / usage["wall_seconds"] / 1000.0)

    def test_compare_page_matches_v1_compare(self, service,
                                             done_job):
        """The console page and /v1/compare render the same diff —
        a self-compare of the only finished job, verdict unchanged."""
        job_id = done_job["id"]
        status, _, body = _get(
            service, f"/ui/compare?base={job_id}&head={job_id}")
        assert status == 200
        island = _island(body)
        assert island["base"] == job_id
        assert island["head"] == job_id
        status, _, raw = _get(
            service, f"/v1/compare?base={job_id}&head={job_id}")
        assert status == 200
        assert island["compare"] == json.loads(raw)["compare"]
        assert island["compare"]["verdict"] == "unchanged"
        assert all(row["verdict"] == "unchanged" for row in
                   island["compare"]["outcomes"].values())
        text = body.decode("utf-8")
        assert "<svg " in text  # outcome bars render

    def test_compare_page_defaults_to_newest_jobs(self, service,
                                                  done_job):
        status, _, body = _get(service, "/ui/compare")
        assert status == 200
        island = _island(body)
        assert island["head"] in island["jobs"]
        assert island["compare"] is not None

    def test_metrics_repeat_no_coverage_or_compare_view(self, service,
                                                        done_job):
        """/metrics carries no coverage_* or compare_* family, even
        after a coverage request and a compare: those views are served
        by their own endpoints."""
        from repro.telemetry.export import parse_openmetrics
        job_id = done_job["id"]
        for path in (f"/v1/jobs/{job_id}/coverage",
                     f"/v1/compare?base={job_id}&head={job_id}",
                     f"/ui/coverage?job={job_id}",
                     f"/ui/compare?base={job_id}&head={job_id}"):
            assert _get(service, path)[0] == 200
        status, _, body = _get(service, "/metrics")
        assert status == 200
        families = parse_openmetrics(body.decode("utf-8"))
        assert "usage_kips" in families
        assert [name for name in families
                if name.startswith(("coverage_", "compare_"))] == []


# -- SVG lane rendering -------------------------------------------------------


def _trace():
    return {
        "traceEvents": [
            {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
             "args": {"name": "w0"}},
            {"name": "exp_0000", "cat": "experiment", "ph": "X",
             "ts": 0, "dur": 1_000_000, "pid": 1, "tid": 0,
             "args": {"outcome": "sdc"}},
            {"name": "boot", "cat": "phase", "ph": "X", "ts": 0,
             "dur": 400_000, "pid": 1, "tid": 0},
            {"name": "injection", "cat": "injection", "ph": "i",
             "s": "t", "ts": 600_000, "pid": 1, "tid": 0,
             "args": {"tick": 42}},
        ],
        "displayTimeUnit": "ms",
        "otherData": {"timebase": "host"},
    }


class TestRenderTimelineSvg:
    def test_renders_lanes_bars_and_markers(self):
        svg = render_timeline_svg(_trace())
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert ">w0</text>" in svg
        assert OUTCOME_COLORS["sdc"] in svg      # outcome fill
        assert "exp_0000" in svg                 # hover tooltip
        assert "injection @ 42" in svg           # instant marker
        assert "1.00 s" in svg                   # host-time axis

    def test_deterministic_output(self):
        assert render_timeline_svg(_trace()) \
            == render_timeline_svg(_trace())

    def test_escapes_markup_in_names(self):
        trace = _trace()
        trace["traceEvents"][1]["name"] = "<script>alert(1)</script>"
        svg = render_timeline_svg(trace)
        assert "<script>" not in svg
        assert "&lt;script&gt;" in svg

    def test_empty_trace_is_still_an_svg(self):
        svg = render_timeline_svg({"traceEvents": [],
                                   "otherData": {"timebase": "host"}})
        assert svg.startswith("<svg ")


# -- merged alerts feed -------------------------------------------------------


class TestAlertsFeed:
    def _alert(self, rule, when, severity="warning", worker=None):
        return Alert(rule=rule, severity=severity, worker=worker,
                     message=f"{rule} fired", time=when)

    def test_merges_journals_newest_first(self, tmp_path):
        share_a = tmp_path / "a"
        share_b = tmp_path / "b"
        share_a.mkdir()
        share_b.mkdir()
        append_alerts(str(share_a),
                      [self._alert("dead_worker", 10.0,
                                   severity="critical", worker="w0")])
        append_alerts(str(share_b),
                      [self._alert("outcome_drift", 20.0)])
        feed = alerts_feed({"job-a": str(share_a),
                            "job-b": str(share_b)})
        assert [(e["share"], e["rule"]) for e in feed] \
            == [("job-b", "outcome_drift"), ("job-a", "dead_worker")]
        assert all("live" not in e for e in feed)

    def test_missing_share_contributes_nothing(self, tmp_path):
        feed = alerts_feed({"gone": str(tmp_path / "nope")})
        assert feed == []

    def test_limit_caps_the_feed(self, tmp_path):
        share = tmp_path / "s"
        share.mkdir()
        append_alerts(str(share), [
            self._alert("dead_worker", 1.0, worker=f"w{n}")
            for n in range(5)])
        assert len(alerts_feed({"j": str(share)}, limit=2)) == 2

    def test_live_evaluation_is_read_only(self, tmp_path):
        share = tmp_path / "s"
        share.mkdir()
        feed = alerts_feed({"j": str(share)}, live=True)
        # An empty share fires nothing and must not grow a journal.
        assert feed == []
        assert not (share / "alerts.jsonl").exists()
