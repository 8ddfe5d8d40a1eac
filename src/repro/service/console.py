"""The embedded web console: ``GET /ui`` over the service API.

DAVOS ships a web front-end over its fault-injection toolflow and
ProFIPy frames injection as a service you *operate* from a browser;
this module is that surface for the GemFI reproduction — with the
repo's standing constraint: **zero dependencies**.  No npm, no build
step, no static asset directory; every page is one self-contained
HTML document rendered by the same asyncio HTTP layer that serves the
JSON API, with inline CSS and a few hundred bytes of vanilla
JavaScript where liveness needs it.

The console is strictly a *view* over endpoints that already exist —
it never grows a second data plane:

* ``/ui`` — campaign explorer: the job table (tenant / priority /
  queue state) over ``GET /v1/jobs``, refreshed by polling;
* ``/ui/jobs/{id}`` — live job page: the browser consumes the
  chunked-JSONL ``GET /v1/jobs/{id}/events`` stream with a
  ``ReadableStream`` reader — the exact bytes ``curl -N`` sees;
* ``/ui/jobs/{id}/timeline`` — the Perfetto trace-event JSON rendered
  server-side as an SVG lane view plus the request-rooted span tree;
* ``/ui/alerts`` — the merged watchdog journal across every job share;
* ``/ui/jobs/{id}/report`` — the outcome report, inlined;
* ``/ui/compare`` — differential analytics: two job pickers,
  side-by-side outcome bars and delta heatmaps over the same
  ``compare_payload`` code path as ``GET /v1/compare``, so the page
  and the API can never disagree.

Every page embeds its initial payload as a JSON island
(``<script type="application/json" id="gemfi-data">``), so pages are
scriptable (CI parses them) and render useful content before — or
without — JavaScript.  All handlers are read-only: the console never
writes into a job share, so same-seed campaign results stay
byte-identical with the UI enabled.
"""

from __future__ import annotations

import html
import json

from ..telemetry.timeline import (
    build_timeline,
    render_span_tree,
    render_timeline_svg,
)
from ..telemetry.watchdog import alerts_feed
from .http import HTTPError, Request, Response

_CSS = """
:root { color-scheme: light; }
body { font-family: -apple-system, "Segoe UI", sans-serif; margin: 0;
       background: #f5f6f8; color: #1c2733; }
header { background: #1c2733; color: #f5f6f8; padding: 10px 20px;
         display: flex; gap: 18px; align-items: baseline; }
header a { color: #9fc2e8; text-decoration: none; }
header a:hover { text-decoration: underline; }
header .brand { font-weight: 700; letter-spacing: 0.06em; }
main { padding: 16px 20px; max-width: 1100px; }
h1 { font-size: 1.15rem; } h2 { font-size: 0.95rem; margin-top: 1.4em; }
table { border-collapse: collapse; width: 100%; background: #fff;
        font-size: 0.85rem; box-shadow: 0 1px 2px rgba(0,0,0,0.08); }
th, td { text-align: left; padding: 6px 10px;
         border-bottom: 1px solid #e4e7eb; }
th { background: #eef1f4; font-weight: 600; }
tr:hover td { background: #f2f7fc; }
a { color: #20598f; }
code, pre { font-family: ui-monospace, monospace; }
pre { background: #fff; padding: 12px; overflow-x: auto;
      border: 1px solid #e4e7eb; font-size: 0.8rem; }
.badge { display: inline-block; padding: 1px 8px; border-radius: 9px;
         font-size: 0.75rem; color: #fff; background: #8a97a5; }
.badge.queued { background: #b58a2a; }
.badge.leased, .badge.running { background: #2a6fb5; }
.badge.done { background: #2e8b57; }
.badge.failed, .badge.critical { background: #c0392b; }
.badge.cancelled { background: #6b7682; }
.badge.warning { background: #d07f2a; }
.badge.info { background: #5b8bb5; }
.kv { display: grid; grid-template-columns: max-content 1fr;
      gap: 2px 14px; background: #fff; padding: 10px 14px;
      border: 1px solid #e4e7eb; font-size: 0.85rem; }
.kv dt { font-weight: 600; } .kv dd { margin: 0; }
.muted { color: #6b7682; font-size: 0.8rem; }
.chart { background: #fff; border: 1px solid #e4e7eb; padding: 8px;
         margin-bottom: 12px; }
#events { max-height: 340px; overflow-y: auto; }
"""


def _nav() -> str:
    return ('<header><span class="brand">gemfi console</span>'
            '<a href="/ui">jobs</a>'
            '<a href="/ui/coverage">coverage</a>'
            '<a href="/ui/compare">compare</a>'
            '<a href="/ui/alerts">alerts</a>'
            '<span class="muted"><a href="/metrics">/metrics</a> · '
            '<a href="/v1/healthz">healthz</a></span>'
            '</header>')


def _island(data) -> str:
    """The page's initial payload as an inert JSON island.  ``</`` is
    escaped so payload content can never close the script element."""
    text = json.dumps(data, sort_keys=True).replace("</", "<\\/")
    return ('<script type="application/json" id="gemfi-data">'
            f"{text}</script>")


def _page(title: str, body: str, data, script: str = "") -> Response:
    doc = ("<!doctype html><html lang=\"en\"><head>"
           "<meta charset=\"utf-8\">"
           "<meta name=\"viewport\" "
           "content=\"width=device-width, initial-scale=1\">"
           f"<title>{html.escape(title)} · gemfi</title>"
           f"<style>{_CSS}</style></head><body>"
           f"{_nav()}<main>{body}</main>"
           f"{_island(data)}"
           + (f"<script>{script}</script>" if script else "")
           + "</body></html>")
    return Response.html(doc)


def _esc(value) -> str:
    return html.escape("" if value is None else str(value))


def _badge(text) -> str:
    return f'<span class="badge {_esc(text)}">{_esc(text)}</span>'


# -- client-side scripts ------------------------------------------------------

_INDEX_JS = """
'use strict';
function render(payload) {
  const rows = payload.jobs.map(function (job) {
    return '<tr>' +
      '<td><a href="/ui/jobs/' + job.id + '">' + job.id + '</a></td>' +
      '<td>' + job.tenant + '</td>' +
      '<td><span class="badge ' + job.state + '">' + job.state +
      '</span></td>' +
      '<td>' + job.priority + '</td>' +
      '<td>' + job.spec.workload + '/' + job.spec.scale + ' ×' +
      job.spec.experiments + ' seed=' + job.spec.seed + '</td>' +
      '<td>' + (job.result_digest ?
                job.result_digest.slice(0, 12) : '-') + '</td>' +
      '</tr>';
  }).join('');
  document.querySelector('#jobs tbody').innerHTML =
    rows || '<tr><td colspan="6" class="muted">no jobs yet</td></tr>';
  document.getElementById('depth').textContent = payload.queue_depth;
}
async function poll() {
  try {
    const res = await fetch('/v1/jobs');
    if (res.ok) { render(await res.json()); }
  } catch (err) { /* transient; keep the last table */ }
  setTimeout(poll, 3000);
}
render(JSON.parse(
  document.getElementById('gemfi-data').textContent));
setTimeout(poll, 3000);
"""

_JOB_JS = """
'use strict';
const data = JSON.parse(
  document.getElementById('gemfi-data').textContent);
const log = document.getElementById('events');
function set(id, text) {
  const el = document.getElementById(id);
  if (el) { el.textContent = text; }
}
function handle(frame) {
  const line = document.createElement('div');
  line.textContent = JSON.stringify(frame);
  log.appendChild(line);
  log.scrollTop = log.scrollHeight;
  if (frame.type === 'status') {
    set('state', frame.state);
    const el = document.getElementById('statebadge');
    if (el) { el.className = 'badge ' + frame.state; }
    if (frame.campaign) {
      set('progress', frame.campaign.completed + '/' +
          frame.campaign.total + ' done, ' + frame.campaign.claimed +
          ' running, ' + frame.campaign.todo + ' queued');
      set('kips', frame.campaign.kips.toFixed(1));
      set('outcomes', JSON.stringify(frame.campaign.outcomes));
    }
  } else if (frame.type === 'end') {
    set('state', frame.state);
    set('stream', 'stream ended (job ' + frame.state + ')');
  }
}
async function tail() {
  try {
    const res = await fetch('/v1/jobs/' + data.job.id +
                            '/events?poll=1');
    if (!res.ok || !res.body) {
      set('stream', 'event stream unavailable (HTTP ' + res.status +
          ')');
      return;
    }
    set('stream', 'live: streaming /v1/jobs/' + data.job.id +
        '/events');
    const reader = res.body.getReader();
    const decoder = new TextDecoder();
    let buffer = '';
    for (;;) {
      const chunk = await reader.read();
      if (chunk.done) { break; }
      buffer += decoder.decode(chunk.value, {stream: true});
      let cut;
      while ((cut = buffer.indexOf('\\n')) >= 0) {
        const line = buffer.slice(0, cut).trim();
        buffer = buffer.slice(cut + 1);
        if (line) { handle(JSON.parse(line)); }
      }
    }
  } catch (err) {
    set('stream', 'stream error: ' + err);
  }
}
tail();
"""

class Console:
    """Read-only HTML views over a :class:`~repro.service.api.ServiceApp`."""

    def __init__(self, app) -> None:
        self.app = app

    def register(self, router) -> None:
        add = router.add
        add("GET", "/ui", self.index)
        add("GET", "/ui/coverage", self.coverage_page)
        add("GET", "/ui/compare", self.compare_page)
        add("GET", "/ui/alerts", self.alerts_page)
        add("GET", "/ui/jobs/{id}", self.job_page)
        add("GET", "/ui/jobs/{id}/timeline", self.timeline_page)
        add("GET", "/ui/jobs/{id}/report", self.report_page)

    # -- helpers --------------------------------------------------------------

    def _shares(self) -> dict[str, str]:
        """job id -> existing share directory, in submission order."""
        shares: dict[str, str] = {}
        for job in self.app.queue.list_jobs():
            share = self.app._share(job)
            if share is not None:
                shares[job.id] = share
        return shares

    # -- pages ----------------------------------------------------------------

    async def index(self, request: Request) -> Response:
        tenant = request.query.get("tenant")
        jobs = self.app.queue.list_jobs(tenant=tenant)
        payload = {
            "jobs": [job.as_dict() for job in jobs],
            "tenants": self.app.queue.tenant_counts(),
            "queue_depth": self.app.queue.depth(),
        }
        tenants = " ".join(
            f"{_esc(name)}=<code>{_esc(states)}</code>"
            for name, states in sorted(payload["tenants"].items()))
        body = (
            "<h1>Campaign explorer</h1>"
            f'<p class="muted">queue depth <b id="depth">'
            f'{payload["queue_depth"]}</b>'
            + (f" · tenants: {tenants}" if tenants else "")
            + "</p>"
            '<table id="jobs"><thead><tr><th>job</th><th>tenant</th>'
            "<th>state</th><th>prio</th><th>spec</th>"
            "<th>results</th></tr></thead><tbody></tbody></table>"
            '<p class="muted">rows refresh every 3 s from '
            "<code>GET /v1/jobs</code>; click a job for the live "
            "view.</p>")
        return _page("jobs", body, payload, script=_INDEX_JS)

    async def job_page(self, request: Request) -> Response:
        job = self.app._job(request)
        payload = {"job": job.as_dict()}
        share = self.app._share(job)
        spec = job.spec
        rows = [
            ("state", f'<span id="statebadge" class="badge '
                      f'{_esc(job.state)}"><span id="state">'
                      f"{_esc(job.state)}</span></span>"),
            ("tenant", _esc(job.tenant)),
            ("spec", _esc(f"{spec.workload}/{spec.scale} "
                          f"×{spec.experiments} seed={spec.seed} "
                          f"workers={spec.workers}")),
            ("progress", '<span id="progress">-</span>'),
            ("KIPS", '<span id="kips">-</span>'),
            ("outcomes", '<span id="outcomes">-</span>'),
            ("results", _esc(job.result_digest or "-")),
            ("error", _esc(job.error or "-")),
        ]
        kv = "".join(f"<dt>{name}</dt><dd>{value}</dd>"
                     for name, value in rows)
        links = [f'<a href="/ui/jobs/{_esc(job.id)}/report">report</a>',
                 f'<a href="/v1/jobs/{_esc(job.id)}/status">status '
                 f"JSON</a>"]
        if share is not None:
            links.insert(
                0, f'<a href="/ui/coverage?job={_esc(job.id)}">'
                   f"coverage</a>")
            links.insert(
                0, f'<a href="/ui/jobs/{_esc(job.id)}/timeline">'
                   f"timeline</a>")
        body = (
            f"<h1>Job <code>{_esc(job.id)}</code></h1>"
            f'<dl class="kv">{kv}</dl>'
            f"<p>{' · '.join(links)}</p>"
            f'<h2>Event stream <span class="muted" id="stream">'
            f"connecting…</span></h2>"
            '<pre id="events"></pre>')
        return _page(f"job {job.id}", body, payload, script=_JOB_JS)

    async def coverage_page(self, request: Request) -> Response:
        """Fault-space coverage maps: per-dimension outcome heatmaps
        (SVG grids with Wilson-interval tooltips) and the convergence
        summary for one job's share (``?job=`` selects; default is
        the newest job with a share)."""
        from ..analysis.coverage import (
            DIMENSIONS,
            _convergence_line,
            _space_line,
            coverage_from_share,
            render_coverage_svg,
        )
        shares = self._shares()
        job_id = request.query.get("job")
        if job_id and job_id not in shares:
            raise HTTPError(404, f"no campaign share for job "
                                 f"{job_id}")
        if not job_id and shares:
            job_id = next(reversed(shares))  # newest submission
        payload = {"job": job_id, "jobs": sorted(shares),
                   "coverage": None}
        if job_id is None:
            body = ("<h1>Fault-space coverage</h1>"
                    '<p class="muted">no campaign shares yet — '
                    "submit a job and its coverage map appears "
                    "here.</p>")
            return _page("coverage", body, payload)
        coverage = coverage_from_share(shares[job_id]).as_dict()
        payload["coverage"] = coverage
        picker = " ".join(
            f"<b>{_esc(other)}</b>" if other == job_id else
            f'<a href="/ui/coverage?job={_esc(other)}">'
            f"{_esc(other)}</a>"
            for other in payload["jobs"])
        charts = "".join(
            f'<div class="chart">'
            f"{render_coverage_svg(coverage, dimension)}</div>"
            for dimension in DIMENSIONS)
        body = (
            f"<h1>Fault-space coverage "
            f"<code>{_esc(job_id)}</code></h1>"
            f'<p class="muted">jobs: {picker}</p>'
            f"<p>{_esc(_space_line(coverage))}.</p>"
            f"<p>{_esc(_convergence_line(coverage))} · "
            f'<a href="/v1/jobs/{_esc(job_id)}/coverage">JSON</a> · '
            f"cells carry Wilson intervals (hover a box)</p>"
            + charts)
        return _page("coverage", body, payload)

    async def compare_page(self, request: Request) -> Response:
        """Differential analytics: pick a base and head campaign
        (``?base=&head=`` — job ids or baseline names; default is the
        two newest jobs with a share), rendered as side-by-side outcome
        bars and per-dimension delta heatmaps.  The numbers come from
        :meth:`~repro.service.api.ServiceApp.compare_payload` — the
        exact code path behind ``GET /v1/compare``."""
        from ..analysis.diff import (
            DIMENSIONS,
            _verdict_line,
            render_diff_bars,
            render_diff_svg,
        )
        candidates = list(self._shares())
        baselines = self.app.queue.baselines()
        base = request.query.get("base")
        head = request.query.get("head")
        if not head and candidates:
            head = candidates[-1]
        if not base and len(candidates) >= 2:
            base = candidates[-2]
        elif not base:
            base = head
        payload = {"base": base, "head": head, "jobs": candidates,
                   "baselines": baselines, "compare": None}
        if base is None or head is None:
            body = ("<h1>Campaign compare</h1>"
                    '<p class="muted">nothing to compare yet — '
                    "finish two jobs (or one, for a self-compare) "
                    "and pick them here.</p>")
            return _page("compare", body, payload)
        diff = self.app.compare_payload(base, head, 0.95, 0.02)
        payload["compare"] = diff

        def _picker(param: str, chosen: str) -> str:
            other = {"base": head, "head": base}[param]
            names = candidates + sorted(set(baselines)
                                        - set(candidates))
            links = []
            for name in names:
                if name == chosen:
                    links.append(f"<b>{_esc(name)}</b>")
                    continue
                query = {"base": f"base={_esc(name)}&head={_esc(other)}",
                         "head": f"base={_esc(other)}&head={_esc(name)}"}
                links.append(f'<a href="/ui/compare?{query[param]}">'
                             f"{_esc(name)}</a>")
            return " ".join(links)

        charts = "".join(
            f'<div class="chart">{render_diff_svg(diff, dimension)}'
            f"</div>"
            for dimension in DIMENSIONS
            if diff["heatmaps"][dimension]["cells"])
        body = (
            f"<h1>Campaign compare {_badge(diff['verdict'])}</h1>"
            f'<p class="muted">base: {_picker("base", base)}</p>'
            f'<p class="muted">head: {_picker("head", head)}</p>'
            f"<p>{_esc(_verdict_line(diff))} · "
            f'<a href="/v1/compare?base={_esc(base)}&amp;'
            f'head={_esc(head)}">JSON</a> · boxes carry Newcombe '
            f"intervals (hover)</p>"
            f'<div class="chart">{render_diff_bars(diff)}</div>'
            + charts)
        return _page("compare", body, payload)

    async def alerts_page(self, request: Request) -> Response:
        live = request.query.get("live", "1") != "0"
        feed = alerts_feed(self._shares(), live=live, limit=200,
                           clock=self.app._clock)
        payload = {"alerts": feed}
        if feed:
            rows = "".join(
                "<tr>"
                f"<td>{_badge(entry.get('severity'))}</td>"
                f"<td>{_esc(entry.get('rule'))}</td>"
                f'<td><a href="/ui/jobs/{_esc(entry.get("share"))}">'
                f"{_esc(entry.get('share'))}</a></td>"
                f"<td>{_esc(entry.get('worker') or '-')}</td>"
                f"<td>{_esc(entry.get('message'))}"
                + (' <span class="muted">(live, not yet '
                   "journalled)</span>" if entry.get("live") else "")
                + "</td></tr>"
                for entry in feed)
            table = ("<table><thead><tr><th>severity</th><th>rule</th>"
                     "<th>job</th><th>worker</th><th>message</th>"
                     f"</tr></thead><tbody>{rows}</tbody></table>")
        else:
            table = ('<p class="muted">no alerts — every share is '
                     "healthy.</p>")
        body = (
            "<h1>Alerts</h1>"
            '<p class="muted">the watchdog journal '
            "(<code>alerts.jsonl</code>) of every job share, merged; "
            f"{'live rules evaluated too' if live else 'journal only'}"
            f" — <a href=\"/ui/alerts?live={0 if live else 1}\">"
            f"{'journal only' if live else 'evaluate live'}</a></p>"
            + table)
        return _page("alerts", body, payload)

    async def timeline_page(self, request: Request) -> Response:
        job = self.app._job(request)
        share = self.app._share(job)
        if share is None:
            raise HTTPError(404, f"job {job.id} has no share "
                                 "directory (not dispatched yet, or "
                                 "removed)")
        timebase = request.query.get("timebase", "host")
        try:
            trace = build_timeline(share, timebase=timebase)
        except ValueError as exc:
            raise HTTPError(400, str(exc)) from None
        svg = render_timeline_svg(trace)
        tree = render_span_tree(share)
        other = "ticks" if timebase == "host" else "host"
        payload = {"job": job.id, "otherData": trace["otherData"],
                   "events": len(trace["traceEvents"])}
        body = (
            f"<h1>Timeline <code>{_esc(job.id)}</code></h1>"
            f'<p class="muted">{payload["events"]} trace events, '
            f"timebase <b>{_esc(timebase)}</b> — "
            f'<a href="/ui/jobs/{_esc(job.id)}/timeline'
            f'?timebase={other}">switch to {other}</a> · the same '
            f"JSON loads in Perfetto via <code>gemfi timeline</code>"
            "</p>"
            f'<div class="chart">{svg}</div>'
            "<h2>Span tree</h2>"
            f"<pre>{html.escape(tree) or 'no spans recorded'}</pre>")
        return _page(f"timeline {job.id}", body, payload)

    async def report_page(self, request: Request) -> Response:
        job = self.app._job(request)
        share = self.app._share(job)
        payload = {"job": job.id}
        if share is None:
            raise HTTPError(404, f"no report for job {job.id} yet")
        from ..telemetry.report import load_share, render_report
        text = render_report(load_share(share), fmt="md")
        body = (
            f"<h1>Report <code>{_esc(job.id)}</code></h1>"
            f'<p class="muted">the markdown outcome report, inlined '
            f'— <a href="/v1/jobs/{_esc(job.id)}/report?format=html">'
            f"standalone HTML</a></p>"
            f"<pre>{html.escape(text)}</pre>")
        return _page(f"report {job.id}", body, payload)
