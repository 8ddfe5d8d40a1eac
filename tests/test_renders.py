"""Render oracle: every campaign-analysis surface over one fixed share.

Two hand-built shares (``head`` and ``base``) with a fixed clock and
fixed file mtimes feed every view of a campaign — ``gemfi report``,
``coverage``, ``compare``, ``status``, one dashboard frame and the
campaign summary — and each output is compared byte for byte with a
file under ``tests/data/renders/``.  The console pages' JSON islands
and the inlined report page are pinned the same way.

The results carry every field the folds read, and one canonical
record has ``wall_seconds`` and ``phases`` stripped, the shape
``/v1/jobs/{id}/results`` serves.
"""

from __future__ import annotations

import asyncio
import builtins
import collections
import contextlib
import html
import io
import json
import os
import re
import uuid
from unittest import mock

import pytest

from repro.analysis.diff import CampaignSummary
from repro.cli import main
from repro.service.api import ServiceApp
from repro.service.http import Request
from repro.service.jobs import JobSpec
from repro.service.queue import JobQueue
from repro.telemetry import (
    read_status,
    render_dashboard,
    render_status,
)

EXPECTED_DIR = os.path.join(os.path.dirname(__file__), "data", "renders")

#: the fixed "now" of every clock-dependent view
NOW = 1_700_000_000.0
#: FI window length the results' time fractions invert to
WINDOW = 200

FAULT_TEMPLATES = (
    "RegisterInjectedFault Inst:{t} Flip:{b} Threadid:0 system.cpu0 "
    "occ:1 int {r}",
    "RegisterInjectedFault Inst:{t} Flip:{b} Threadid:0 system.cpu0 "
    "occ:1 fp {r}",
    "PCInjectedFault Inst:{t} Xor:0x7ff8 Threadid:0 system.cpu0 occ:1",
    "FetchStageInjectedFault Inst:{t} Flip:{b} Threadid:0 system.cpu0 "
    "occ:1",
    "DecodeStageInjectedFault Inst:{t} Flip:{b} Threadid:0 system.cpu0 "
    "occ:1 src 0",
    "ExecutionStageInjectedFault Inst:{t} Flip:{b} Threadid:0 "
    "system.cpu0 occ:1",
    "MemoryInjectedFault Inst:{t} Flip:{b} Threadid:0 system.cpu0 "
    "occ:1",
)

HEAD_OUTCOMES = ("sdc", "correct", "crashed", "strictly_correct",
                 "non_propagated", "correct", "sdc")
BASE_OUTCOMES = ("correct", "correct", "crashed", "strictly_correct",
                 "non_propagated", "correct")


def _record(index: int, outcomes: tuple) -> dict:
    """One result record; every field a fold reads, all derived from
    *index* so the share is reproducible."""
    time = 7 + 13 * index
    wall = round(0.05 + 0.01 * ((index * 7) % 11), 4)
    boot = round(wall * 0.1, 6)
    window = round(wall * 0.3, 6)
    entry = {
        "fault": f"fault #{index}",
        "workload": "pi",
        "seed": 7,
        "fault_file": FAULT_TEMPLATES[index % len(FAULT_TEMPLATES)]
        .format(t=time, b=(5 * index) % 32, r=1 + index % 5) + "\n",
        "outcome": outcomes[index % len(outcomes)],
        "injected": True,
        "instructions": 20_000 + 500 * index,
        "ticks": 1_000_000 + 1000 * index,
        "wall_seconds": wall,
        "time_fraction": time / WINDOW,
        "injection_pc": 0x1000 + 4 * ((index * 7) % 23),
        "predicted": index % 5 == 4,
        "divergence": None if index % 3 == 2 else {
            "kind": ("register", "control")[index % 2],
            "latency": 3 * index},
        "phases": {"boot": boot, "window": window, "injection": 0.0,
                   "drain": round(wall - boot - window, 6)},
        "replay_start": (0, 4096, 8192)[index % 3],
        "early_exit": 15_000 if index % 4 == 1 else None,
    }
    return entry


def _write_json(path, payload, mtime=None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    if mtime is not None:
        os.utime(path, (mtime, mtime))


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def build_share(root: str, name: str, outcomes: tuple, completed: int,
                queued: int = 0, service: dict | None = None) -> str:
    """A share left behind by a two-worker campaign: every fault file
    in todo/, *completed* results (the last one canonical, wall and
    phases stripped), one in-flight claim of a silent worker among the
    *queued* experiments, heartbeats and fixed mtimes throughout."""
    share = os.path.join(root, name)
    for sub in ("todo", "results", "claims", "heartbeats",
                "manifests"):
        os.makedirs(os.path.join(share, sub))
    _write_json(os.path.join(share, "workload.json"),
                {"name": "pi", "scale": "tiny", "seed": 7,
                 "flight": 32})
    if service is not None:
        _write_json(os.path.join(share, "service.json"), service)
    for index in range(completed):
        experiment = f"exp_{index:04d}"
        worker = ("ws0", "ws1")[index % 2]
        entry = _record(index, outcomes)
        if index == completed - 1:
            del entry["wall_seconds"], entry["phases"]
        claimed_at = NOW - 400 + 20 * index
        _write_json(os.path.join(share, "results", f"{experiment}.json"),
                    entry, mtime=claimed_at + 15)
        _write_text(os.path.join(share, "todo", f"{experiment}.txt"),
                    entry["fault_file"])
        _write_json(os.path.join(share, "claims",
                                 f"{experiment}.txt.claim"),
                    {"worker": worker, "pid": 100 + index % 2,
                     "time": claimed_at})
    if queued:
        # One experiment in flight on ws1, whose heartbeat stopped long
        # ago: a stale claim and a dead worker holding it.
        experiment = f"exp_{completed:04d}"
        _write_text(os.path.join(share, "todo", f"{experiment}.txt"),
                    "x\n")
        _write_json(os.path.join(share, "claims",
                                 f"{experiment}.txt.claim"),
                    {"worker": "ws1", "pid": 101, "time": NOW - 900})
        for index in range(completed + 1, completed + queued):
            _write_text(os.path.join(share, "todo",
                                     f"exp_{index:04d}.txt"), "x\n")
    _write_json(os.path.join(share, "heartbeats", "ws0.json"),
                {"worker": "ws0", "pid": 100, "hostname": "node-a",
                 "time": NOW - 5, "completed": (completed + 1) // 2})
    _write_json(os.path.join(share, "heartbeats", "ws1.json"),
                {"worker": "ws1", "pid": 101, "hostname": "node-b",
                 "time": NOW - (500 if queued else 30),
                 "completed": completed // 2})
    return share


def build_shares(root: str) -> tuple[str, str]:
    """(head, base): a running campaign and a finished baseline."""
    head = build_share(root, "head", HEAD_OUTCOMES, completed=14,
                       queued=3, service={"job": "job-fixture",
                                          "tenant": "alice"})
    base = build_share(root, "base", BASE_OUTCOMES, completed=12)
    return head, base


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _clock() -> float:
    return NOW


def _status(share: str, coverage: bool = False):
    return read_status(share, clock=_clock, coverage=coverage)


def _records(share: str) -> list[dict]:
    directory = os.path.join(share, "results")
    records = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as f:
            records.append(json.load(f))
    return records


_ISLAND = re.compile(
    r'<script type="application/json" id="gemfi-data">(.*?)</script>',
    re.S)


def _console_pages(root: str, head: str, base: str) -> dict[str, str]:
    """Console pages over the two shares as jobs of one service.  Job
    ids come from a counting uuid4, so they are fixed too."""
    queue = JobQueue(os.path.join(root, "queue.db"))
    app = ServiceApp(queue, ui=True, clock=_clock)
    ids = iter(range(1, 100))
    with mock.patch("repro.service.queue.uuid.uuid4",
                    lambda: uuid.UUID(int=next(ids) << 80)):
        jobs = [queue.submit(JobSpec.from_dict({"workload": "pi"}),
                             tenant="alice", reuse=False)
                for _ in (base, head)]
    for job, share in zip(jobs, (base, head)):
        queue.record_share(job.id, share)
    base_id, head_id = (job.id for job in jobs)

    def page(handler, query=None, params=None) -> str:
        request = Request(method="GET", path="/ui", query=query or {},
                          params=params or {})
        return asyncio.run(handler(request)).body.decode("utf-8")

    coverage = page(app.console.coverage_page, {"job": head_id})
    compare = page(app.console.compare_page,
                   {"base": base_id, "head": head_id})
    report = page(app.console.report_page, params={"id": head_id})
    return {
        "console_coverage_island.json":
            _ISLAND.search(coverage).group(1) + "\n",
        "console_compare_island.json":
            _ISLAND.search(compare).group(1) + "\n",
        "console_report.html": report + "\n",
    }


def render_all(root: str) -> dict[str, str]:
    """Every pinned output, by expected-file name."""
    head, base = build_shares(root)
    status = _status(head)
    covered = _status(head, coverage=True)
    outputs = {
        "report.md": _cli("report", head),
        "report.html": _cli("report", head, "--format", "html"),
        "report_baseline.md": _cli("report", head, "--baseline", base),
        "coverage.txt": _cli("coverage", head),
        "coverage_location.txt": _cli("coverage", head, "--dimension",
                                      "location"),
        "coverage.md": _cli("coverage", head, "--format", "md"),
        "coverage.json": _cli("coverage", head, "--json"),
        "compare.txt": _cli("compare", base, head),
        "compare.md": _cli("compare", base, head, "--md"),
        "compare.json": _cli("compare", base, head, "--json"),
        "status.txt": render_status(status) + "\n",
        "status.json": json.dumps(status.as_dict(), indent=2,
                                  sort_keys=True) + "\n",
        "status_coverage.txt": render_status(covered) + "\n",
        "status_coverage.json": json.dumps(covered.as_dict(), indent=2,
                                           sort_keys=True) + "\n",
        "dashboard.txt": render_dashboard(head, clock=_clock)[0] + "\n",
        "summary.json": CampaignSummary.from_share(head)
        .canonical_bytes().decode("utf-8") + "\n",
    }
    outputs.update(_console_pages(root, head, base))
    return outputs


@pytest.fixture(scope="module")
def rendered(tmp_path_factory) -> dict[str, str]:
    return render_all(str(tmp_path_factory.mktemp("renders")))


def _expected_names() -> list[str]:
    return sorted(os.listdir(EXPECTED_DIR))


@pytest.mark.parametrize("name", _expected_names())
def test_render_matches_recorded_bytes(rendered, name):
    with open(os.path.join(EXPECTED_DIR, name), encoding="utf-8",
              newline="") as handle:
        expected = handle.read()
    assert rendered[name] == expected


def test_every_render_is_pinned(rendered):
    assert sorted(rendered) == _expected_names()


def test_html_report_carries_every_markdown_heading_and_line(rendered):
    """Each heading and prose line of the Markdown report appears in
    the HTML report, as a heading or a paragraph."""
    page = rendered["report.html"]
    missing = []
    fenced = False
    for line in rendered["report.md"].splitlines():
        if line.startswith("```"):
            fenced = not fenced
            continue
        if fenced or not line or line.startswith("|"):
            continue
        if line.startswith("#"):
            text = html.escape(line.lstrip("#").strip(), quote=False)
            found = re.search(rf"<h\d>{re.escape(text)}</h\d>", page)
        else:
            found = f"<p>{html.escape(line, quote=False)}</p>" in page
        if not found:
            missing.append(line)
    assert missing == []


# -- one read per view --------------------------------------------------------


def _count_result_reads(monkeypatch, action) -> collections.Counter:
    """Run *action*, counting how often each ``results/*.json`` is
    opened for reading."""
    reads: collections.Counter = collections.Counter()
    real_open = builtins.open

    def counting_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and mode.startswith("r"):
            path = os.fspath(file)
            if path.endswith(".json") and \
                    os.path.basename(os.path.dirname(path)) == "results":
                reads[os.path.basename(path)] += 1
        return real_open(file, mode, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", counting_open)
        action()
    return reads


class TestOneReadPerView:
    """Each view reads every result file of its share exactly once."""

    @pytest.fixture
    def head(self, tmp_path):
        return build_shares(str(tmp_path))[0]

    def _assert_read_once(self, share, reads):
        names = sorted(os.listdir(os.path.join(share, "results")))
        assert reads == {name: 1 for name in names}

    def test_report(self, monkeypatch, head):
        reads = _count_result_reads(monkeypatch,
                                    lambda: _cli("report", head))
        self._assert_read_once(head, reads)

    def test_status_coverage(self, monkeypatch, head):
        reads = _count_result_reads(
            monkeypatch, lambda: _cli("status", head, "--coverage"))
        self._assert_read_once(head, reads)

    def test_dashboard_once(self, monkeypatch, head):
        reads = _count_result_reads(
            monkeypatch, lambda: _cli("dashboard", head, "--once"))
        self._assert_read_once(head, reads)

    def test_event_frame(self, monkeypatch, head, tmp_path):
        queue = JobQueue(str(tmp_path / "queue.db"))
        app = ServiceApp(queue, clock=_clock)
        job = queue.submit(JobSpec.from_dict({"workload": "pi"}))
        queue.record_share(job.id, head)
        request = Request(method="GET", path="/", query={"max": "1"},
                          params={"id": job.id})

        async def one_frame():
            response = await app.job_events(request)
            return [chunk async for chunk in response.stream]

        chunks = []
        reads = _count_result_reads(
            monkeypatch, lambda: chunks.extend(asyncio.run(one_frame())))
        assert json.loads(chunks[0])["campaign"]["completed"] == 14
        self._assert_read_once(head, reads)

    def test_dispatched_job(self, monkeypatch, tmp_path):
        self._assert_dispatched_job_reads_once(monkeypatch, tmp_path,
                                               workers=1)

    def test_dispatched_forked_job(self, monkeypatch, tmp_path):
        """Forked workers write the results; the dispatcher still opens
        each one once."""
        self._assert_dispatched_job_reads_once(monkeypatch, tmp_path,
                                               workers=2)

    def _assert_dispatched_job_reads_once(self, monkeypatch, tmp_path,
                                          workers):
        from repro.service import Dispatcher
        queue = JobQueue(str(tmp_path / "queue.db"))
        dispatcher = Dispatcher(queue, str(tmp_path))
        job = queue.submit(JobSpec.from_dict(
            {"workload": "pi", "experiments": 3, "seed": 4,
             "workers": workers}))
        reads = _count_result_reads(monkeypatch, dispatcher.poll_once)
        job = queue.get(job.id)
        assert job.state == "done"
        self._assert_read_once(job.share_dir, reads)
        # GET /v1/jobs/{id}/report is the one `gemfi report` renders.
        app = ServiceApp(queue)
        request = Request(method="GET", path="/", query={},
                          params={"id": job.id})
        served = asyncio.run(app.job_report(request)).body
        assert served.decode("utf-8") == _cli("report", job.share_dir)

    def test_results_route(self, monkeypatch, head, tmp_path):
        """``/v1/jobs/{id}/results`` derives the result set from the
        share and checks it against ``result_digest`` in one read."""
        from repro.service import (canonical_json_bytes,
                                   canonical_results, digest_bytes)
        expected = canonical_json_bytes(canonical_results(_records(head)))
        queue = JobQueue(str(tmp_path / "queue.db"))
        job = queue.submit(JobSpec.from_dict({"workload": "pi"}))
        queue.lease("test")
        queue.record_share(job.id, head)
        queue.complete(job.id, owner="test",
                       result_digest=digest_bytes(expected))
        app = ServiceApp(queue)
        request = Request(method="GET", path="/", query={},
                          params={"id": job.id})
        responses = []
        reads = _count_result_reads(
            monkeypatch,
            lambda: responses.append(asyncio.run(app.job_results(request))))
        assert (responses[0].status, responses[0].body) == (200, expected)
        self._assert_read_once(head, reads)


def _count_claim_reads(monkeypatch, action) -> collections.Counter:
    """Run *action*, counting how often each ``claims/*.claim`` is
    opened for reading."""
    reads: collections.Counter = collections.Counter()
    real_open = builtins.open

    def counting_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and mode.startswith("r"):
            path = os.fspath(file)
            if path.endswith(".claim") and \
                    os.path.basename(os.path.dirname(path)) == "claims":
                reads[os.path.basename(path)] += 1
        return real_open(file, mode, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", counting_open)
        action()
    return reads


class TestOneClaimReadPerFrame:
    """A watchdog frame opens every claim file of its share once: the
    in-flight claims come from the status it already read."""

    @pytest.fixture
    def head(self, tmp_path):
        return build_shares(str(tmp_path))[0]

    def _assert_read_once(self, share, reads):
        names = sorted(os.listdir(os.path.join(share, "claims")))
        assert reads == {name: 1 for name in names}

    def test_dashboard_once(self, monkeypatch, head):
        reads = _count_claim_reads(
            monkeypatch, lambda: _cli("dashboard", head, "--once"))
        self._assert_read_once(head, reads)

    def test_event_frame(self, monkeypatch, head, tmp_path):
        queue = JobQueue(str(tmp_path / "queue.db"))
        app = ServiceApp(queue, clock=_clock)
        job = queue.submit(JobSpec.from_dict({"workload": "pi"}))
        queue.record_share(job.id, head)
        request = Request(method="GET", path="/", query={"max": "1"},
                          params={"id": job.id})

        async def one_frame():
            response = await app.job_events(request)
            return [chunk async for chunk in response.stream]

        chunks = []
        reads = _count_claim_reads(
            monkeypatch, lambda: chunks.extend(asyncio.run(one_frame())))
        assert json.loads(chunks[0])["campaign"]["claimed"] == 1
        self._assert_read_once(head, reads)


# -- every result counted once ------------------------------------------------

#: ``gemfi coverage --json`` and the campaign summary of the ``head``
#: share as the v1 format wrote them: every record carried
#: ``weight: 1.0``, and the payloads carried weight tallies and Kish
#: effective sample sizes beside the counts.
V1_DIR = os.path.join(os.path.dirname(__file__), "data", "v1")


def _load_v1(name: str) -> dict:
    with open(os.path.join(V1_DIR, name), encoding="utf-8") as handle:
        return json.load(handle)


def _as_v2(node):
    """A v1 payload as v2 writes it: no ``weight``, ``effective_n`` or
    ``sampled_weight`` key, a per-outcome ``weight`` read as its
    ``count``, and the v2 schema name."""
    if isinstance(node, list):
        return [_as_v2(item) for item in node]
    if not isinstance(node, dict):
        return node
    out = {}
    for key, value in node.items():
        if key == "weight" and "rate" in node and "count" not in node:
            out["count"] = int(value)
        elif key == "schema":
            out[key] = value.replace(".v1", ".v2")
        elif key not in ("weight", "effective_n", "sampled_weight"):
            out[key] = _as_v2(value)
    return out


def _add_weight_key(share: str) -> None:
    """Give every result of *share* the ``weight: 1.0`` key v1 records
    carried."""
    directory = os.path.join(share, "results")
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["weight"] = 1.0
        _write_json(path, entry, mtime=os.stat(path).st_mtime)


def _markdown_table(text: str, heading: str) -> dict[str, list[str]]:
    """{first cell: other cells} of the table under the Markdown
    heading that starts with *heading*."""
    table = text.split(f"\n{heading}", 1)[1].split("\n\n", 2)[1]
    rows = {}
    for line in table.splitlines()[2:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0]] = cells[1:]
    return rows


class TestCountsNotWeights:
    """Every reader counts records; a record's old ``weight`` key
    changes nothing, and v1 data reads to the same numbers."""

    def test_weight_key_changes_nothing(self, tmp_path):
        outputs = []
        for root in ("plain", "weighted"):
            os.makedirs(tmp_path / root)
            head, base = build_shares(str(tmp_path / root))
            if root == "weighted":
                _add_weight_key(head)
                _add_weight_key(base)
            outputs.append((
                _cli("coverage", head, "--json"),
                CampaignSummary.from_share(head).canonical_bytes(),
                _cli("compare", base, head, "--json")))
        assert outputs[0] == outputs[1]

    def test_v1_share_reads_to_the_same_numbers(self, tmp_path):
        head, _ = build_shares(str(tmp_path))
        _add_weight_key(head)
        assert json.loads(_cli("coverage", head, "--json")) == \
            _as_v2(_load_v1("coverage.json"))
        assert CampaignSummary.from_share(head).payload == \
            _as_v2(_load_v1("summary.json"))

    def test_v1_result_set_reads_to_the_same_numbers(self, tmp_path):
        """A stored result set (host fields stripped) of v1 records:
        the same outcome rates and heatmap intervals."""
        from repro.service.jobs import canonical_results
        head, _ = build_shares(str(tmp_path))
        _add_weight_key(head)
        payload = CampaignSummary.from_results(
            canonical_results(_records(head))).payload
        expected = _as_v2(_load_v1("summary.json"))
        assert payload["outcomes"] == expected["outcomes"]
        assert payload["coverage"]["heatmaps"] == \
            expected["coverage"]["heatmaps"]

    def test_v1_summary_is_refused(self):
        with pytest.raises(ValueError,
                           match="'gemfi.campaign_summary.v1'"):
            CampaignSummary.from_payload(_load_v1("summary.json"))

    def test_report_totals_equal_outcome_rates(self, rendered):
        report = rendered["report.md"]
        totals = _markdown_table(report, "## Outcome totals")
        del totals["TOTAL"]
        rates = _markdown_table(report, "### Outcome rates")
        assert {outcome: row[1] for outcome, row in totals.items()} \
            == {outcome: row[0] for outcome, row in rates.items()}
