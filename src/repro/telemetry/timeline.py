"""Merge per-worker span logs into one Chrome trace-event timeline.

``gemfi timeline <share>`` turns the ``share/spans/*.jsonl`` written by
:mod:`repro.telemetry.spans` into a single JSON document in the Chrome
trace-event format — loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing`` — with one track per workstation slot, one complete
(``ph: "X"``) event per experiment, child events for the
boot/window/injection/drain phase split, and instant (``ph: "i"``)
markers for injections and architectural divergences.

Two timebases:

* ``host`` (default) — real wall-clock: events sit where they actually
  ran, tracks are the real workers, and every experiment's phase
  children partition its duration *exactly* (integer microseconds, the
  last phase absorbs the rounding remainder, so child durations sum to
  the experiment duration which is ``round(wall_seconds * 1e6)``).
* ``ticks`` — fully deterministic: durations are simulated ticks,
  experiments are laid out over ``--slots`` tracks by the paper's
  earliest-free-slot discipline (the same arithmetic as
  :func:`repro.campaign.now.simulate_makespan`), and every field is a
  pure function of the campaign seed — so the merged timeline is
  **byte-identical across reruns**, making traces diffable regression
  artifacts.
"""

from __future__ import annotations

import json
import os

from .campaign import read_heartbeats
from .spans import load_spans

PID = 1
PHASE_NAMES = ("boot", "window", "injection", "drain")


def _experiment_spans(finished: list[dict]) -> list[dict]:
    spans = [r for r in finished
             if r.get("attrs", {}).get("kind") == "experiment"]
    spans.sort(key=lambda r: (r.get("name", ""), r.get("span", "")))
    return spans


def _slot_count(share_dir: str, experiments: list[dict]) -> int:
    """Deterministic slot count: the workers that heartbeated, falling
    back to the distinct workers seen in the span logs."""
    workers = read_heartbeats(share_dir)
    if workers:
        return len(workers)
    seen = {r.get("worker") for r in experiments if r.get("worker")}
    return max(1, len(seen))


def _metadata(track_names: list[str], label: str) -> list[dict]:
    events = [{"ph": "M", "pid": PID, "name": "process_name",
               "args": {"name": label}}]
    for tid, name in enumerate(track_names):
        events.append({"ph": "M", "pid": PID, "tid": tid,
                       "name": "thread_name", "args": {"name": name}})
    return events


def _complete(name: str, cat: str, ts: int, dur: int, tid: int,
              args: dict | None = None) -> dict:
    event = {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
             "pid": PID, "tid": tid}
    if args:
        event["args"] = args
    return event


def _instant(name: str, cat: str, ts: int, tid: int,
             args: dict | None = None) -> dict:
    event = {"name": name, "cat": cat, "ph": "i", "s": "t", "ts": ts,
             "pid": PID, "tid": tid}
    if args:
        event["args"] = args
    return event


def _phase_partition(total_us: int, phases: dict) -> list[tuple[str, int]]:
    """Partition *total_us* across the four phases exactly.

    Each phase rounds independently; the last one absorbs the rounding
    remainder, so the four integer durations always sum to *total_us*.
    """
    out: list[tuple[str, int]] = []
    used = 0
    for index, name in enumerate(PHASE_NAMES):
        if index == len(PHASE_NAMES) - 1:
            dur = total_us - used
        else:
            dur = int(round(float(phases.get(name, 0.0)) * 1e6))
            dur = max(0, min(dur, total_us - used))
        out.append((name, dur))
        used += dur
    return out


def _host_events(experiments: list[dict]) -> list[dict]:
    starts = [r.get("t0") for r in experiments
              if isinstance(r.get("t0"), (int, float))]
    if not starts:
        return _metadata([], "gemfi campaign")
    origin = min(starts)
    workers = sorted({r.get("worker") or "?" for r in experiments})
    track = {worker: tid for tid, worker in enumerate(workers)}
    events = _metadata(workers, "gemfi campaign")
    for record in experiments:
        attrs = record.get("attrs", {})
        worker = record.get("worker") or "?"
        tid = track[worker]
        t0 = record.get("t0")
        if not isinstance(t0, (int, float)):
            continue
        wall = attrs.get("wall_seconds")
        if not isinstance(wall, (int, float)):
            t1 = record.get("t1")
            wall = (t1 - t0) if isinstance(t1, (int, float)) else 0.0
        ts = int(round((t0 - origin) * 1e6))
        dur = max(0, int(round(float(wall) * 1e6)))
        name = attrs.get("experiment") or record.get("name", "?")
        events.append(_complete(name, "experiment", ts, dur, tid, {
            "outcome": attrs.get("outcome"),
            "injected": attrs.get("injected"),
            "worker": worker,
            "wall_seconds": wall,
        }))
        phases = attrs.get("phases") or {}
        parts = _phase_partition(dur, phases) if phases else []
        edge = ts
        for phase, phase_dur in parts:
            events.append(_complete(phase, "phase", edge, phase_dur,
                                    tid, {"seconds": phases.get(phase)}))
            edge += phase_dur
        if attrs.get("injected") and parts:
            inj_ts = ts + parts[0][1] + parts[1][1]
            events.append(_instant("injection", "injection", inj_ts, tid,
                                   {"tick": attrs.get("injection_tick")}))
        div_tick = attrs.get("divergence_tick")
        tick0, tick1 = record.get("tick0"), record.get("tick1")
        if div_tick is not None and isinstance(tick0, int) \
                and isinstance(tick1, int) and tick1 > tick0 and parts:
            # Host time inside the run is not stamped per tick; place
            # the divergence proportionally within the post-boot region.
            boot = parts[0][1]
            frac = (div_tick - tick0) / (tick1 - tick0)
            frac = min(1.0, max(0.0, frac))
            div_ts = ts + boot + int(round(frac * (dur - boot)))
            events.append(_instant("divergence", "divergence", div_ts,
                                   tid, {"tick": div_tick}))
    return events


def _tick_events(experiments: list[dict], slots: int) -> list[dict]:
    slots = max(1, int(slots))
    names = [f"slot{index}" for index in range(slots)]
    events = _metadata(names, "gemfi campaign (ticks)")
    slot_free = [0] * slots
    for record in experiments:
        attrs = record.get("attrs", {})
        tick0 = record.get("tick0")
        tick1 = record.get("tick1")
        if not isinstance(tick0, int) or not isinstance(tick1, int):
            continue
        dur = max(0, tick1 - tick0)
        tid = min(range(slots), key=slot_free.__getitem__)
        ts = slot_free[tid]
        slot_free[tid] += dur
        name = attrs.get("experiment") or record.get("name", "?")
        events.append(_complete(name, "experiment", ts, dur, tid, {
            "outcome": attrs.get("outcome"),
            "injected": attrs.get("injected"),
            "ticks": dur,
            "instructions": attrs.get("instructions"),
        }))
        first = attrs.get("injection_tick")
        last = attrs.get("last_injection_tick")
        if isinstance(first, int) and isinstance(last, int):
            window = max(0, min(dur, first - tick0))
            injection = max(0, min(dur - window, last - first))
            drain = dur - window - injection
        else:
            window, injection, drain = dur, 0, 0
        edge = ts
        for phase, phase_dur in (("window", window),
                                 ("injection", injection),
                                 ("drain", drain)):
            events.append(_complete(phase, "phase", edge, phase_dur,
                                    tid, {"ticks": phase_dur}))
            edge += phase_dur
        if isinstance(first, int):
            events.append(_instant("injection", "injection",
                                   ts + window, tid, {"tick": first}))
        div_tick = attrs.get("divergence_tick")
        if isinstance(div_tick, int) and tick1 > tick0:
            offset = min(dur, max(0, div_tick - tick0))
            events.append(_instant("divergence", "divergence",
                                   ts + offset, tid, {"tick": div_tick}))
    return events


def build_timeline(share_dir: str, timebase: str = "host",
                   slots: int | None = None) -> dict:
    """The merged campaign timeline as a Chrome trace-event dict."""
    finished, _open = load_spans(share_dir)
    experiments = _experiment_spans(finished)
    if timebase == "host":
        events = _host_events(experiments)
    elif timebase == "ticks":
        events = _tick_events(
            experiments, slots if slots else
            _slot_count(share_dir, experiments))
    else:
        raise ValueError(f"unknown timebase '{timebase}' "
                         "(expected 'host' or 'ticks')")
    trace_ids = sorted({r.get("trace") for r in experiments
                        if r.get("trace")})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "gemfi timeline",
            "timebase": timebase,
            "experiments": len(experiments),
            "trace": trace_ids[0] if len(trace_ids) == 1 else trace_ids,
        },
    }


def render_timeline(share_dir: str, timebase: str = "host",
                    slots: int | None = None,
                    indent: int | None = None) -> str:
    """The timeline serialised deterministically (sorted keys, fixed
    separators) — same share, same bytes."""
    payload = build_timeline(share_dir, timebase=timebase, slots=slots)
    if indent is None:
        text = json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))
    else:
        text = json.dumps(payload, sort_keys=True, indent=indent)
    return text + "\n"


# -- validation ---------------------------------------------------------------

_KNOWN_PHASES = {"X", "B", "E", "i", "I", "M", "C", "b", "e", "n"}


def validate_trace(source) -> int:
    """Check *source* is well-formed Chrome trace-event JSON.

    Accepts the JSON text or an already-parsed dict; returns the event
    count, raising :class:`ValueError` on the first malformation.  This
    backs the CI smoke job ("the artifact must load in Perfetto").
    """
    payload = json.loads(source) if isinstance(source, (str, bytes)) \
        else source
    if not isinstance(payload, dict):
        raise ValueError("trace must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace missing 'traceEvents' list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            raise ValueError(f"{where}: unknown ph {phase!r}")
        if "name" not in event:
            raise ValueError(f"{where}: missing name")
        if phase == "X":
            for key in ("ts", "dur"):
                if not isinstance(event.get(key), (int, float)):
                    raise ValueError(f"{where}: non-numeric {key}")
            if event["dur"] < 0:
                raise ValueError(f"{where}: negative dur")
            for key in ("pid", "tid"):
                if key not in event:
                    raise ValueError(f"{where}: missing {key}")
        elif phase == "i":
            if not isinstance(event.get("ts"), (int, float)):
                raise ValueError(f"{where}: non-numeric ts")
            if event.get("s") not in ("t", "p", "g"):
                raise ValueError(f"{where}: bad instant scope")
        elif phase == "M":
            if not isinstance(event.get("args"), dict):
                raise ValueError(f"{where}: metadata without args")
    return len(events)


def render_span_tree(share_dir: str, max_depth: int = 0) -> str:
    """The share's spans as an indented parent/child tree.

    Unlike the Chrome trace (which lays spans on per-worker tracks),
    the tree follows the ``parent`` links directly — so a service job
    traced end to end renders as::

        request POST /v1/jobs [request] worker=service
          campaign [campaign] worker=coordinator
            exp_0000 [experiment] worker=ws0 outcome=masked
              boot [phase]
              ...

    Deterministic: children sort by (name, span id), durations render
    only when both endpoints are stamped.  *max_depth* (0 = unlimited)
    truncates deep phase detail for terminal use.
    """
    finished, opened = load_spans(share_dir)
    records = finished + opened
    by_id: dict[str, dict] = {}
    for record in records:
        span = record.get("span")
        if span and span not in by_id:
            by_id[span] = record
    children: dict[str | None, list[dict]] = {}
    for record in by_id.values():
        parent = record.get("parent")
        key = parent if parent in by_id else None
        children.setdefault(key, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: (r.get("name") or "",
                                     r.get("span") or ""))

    lines: list[str] = []

    def describe(record: dict) -> str:
        attrs = record.get("attrs") or {}
        parts = [record.get("name") or "?"]
        kind = attrs.get("kind")
        if kind:
            parts.append(f"[{kind}]")
        if record.get("worker"):
            parts.append(f"worker={record['worker']}")
        t0, t1 = record.get("t0"), record.get("t1")
        if isinstance(t0, (int, float)) and isinstance(t1, (int, float)):
            parts.append(f"{t1 - t0:.3f}s")
        elif record.get("ev") == "open":
            parts.append("(open)")
        for key in ("request_id", "job", "outcome"):
            if attrs.get(key) is not None:
                parts.append(f"{key}={attrs[key]}")
        return " ".join(parts)

    def walk(record: dict, depth: int) -> None:
        lines.append("  " * depth + describe(record))
        if max_depth and depth + 1 >= max_depth:
            return
        for child in children.get(record.get("span"), []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines) + "\n" if lines else ""


# -- inline SVG lane view ------------------------------------------------------

#: fill per experiment outcome (Section IV.B.1 classes); unknown
#: outcomes (still running, no classification) render neutral blue.
OUTCOME_COLORS = {
    "crashed": "#d62728",
    "sdc": "#b03ad4",
    "non_propagated": "#c8ccd0",
    "strictly_correct": "#2ca02c",
    "correct": "#8fd18f",
}
DEFAULT_COLOR = "#4878b0"
PHASE_COLORS = {"boot": "#aec7e8", "window": "#f2c14e",
                "injection": "#ef8a62", "drain": "#b8b8d1"}
INSTANT_COLORS = {"injection": "#d62728", "divergence": "#7b1fa2"}

_SVG_GUTTER = 110       # left label column, px
_SVG_LANE = 30          # lane pitch, px
_SVG_BAR = 16           # experiment bar height, px
_SVG_STRIP = 5          # phase strip height, px


def _xml(text) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def render_timeline_svg(trace: dict, width: int = 960) -> str:
    """Render a trace-event dict (:func:`build_timeline`) as a
    self-contained SVG lane view — the web console's timeline page.

    One horizontal lane per track (worker or slot), one bar per
    ``ph: "X"`` experiment coloured by outcome, a thin phase strip
    under each bar, and tick markers for injection/divergence
    instants.  Every element carries a ``<title>`` tooltip, so the
    browser shows names/durations on hover with zero JavaScript.
    Deterministic: same trace dict, same bytes."""
    events = trace.get("traceEvents", [])
    lanes: dict[int, str] = {}
    for event in events:
        if event.get("ph") == "M" \
                and event.get("name") == "thread_name":
            lanes[event.get("tid", 0)] = \
                event.get("args", {}).get("name", "?")
    completes = [e for e in events if e.get("ph") == "X"]
    instants = [e for e in events if e.get("ph") == "i"]
    for event in completes + instants:
        tid = event.get("tid", 0)
        lanes.setdefault(tid, f"track{tid}")
    row = {tid: index for index, tid in enumerate(sorted(lanes))}
    extent = max([e["ts"] + e["dur"] for e in completes]
                 + [e.get("ts", 0) for e in instants] + [0])
    extent = max(extent, 1)
    plot = max(100, width - _SVG_GUTTER - 20)

    def x(ts: float) -> float:
        return round(_SVG_GUTTER + ts / extent * plot, 2)

    height = len(row) * _SVG_LANE + 46
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{width}" height="{height}" '
           f'font-family="monospace" font-size="11">',
           f'<rect width="{width}" height="{height}" fill="#ffffff"/>']
    for tid, index in sorted(row.items()):
        y = 8 + index * _SVG_LANE
        out.append(f'<text x="4" y="{y + _SVG_BAR - 3}" '
                   f'fill="#333">{_xml(lanes[tid])}</text>')
        out.append(f'<line x1="{_SVG_GUTTER}" y1="{y + _SVG_LANE - 5}" '
                   f'x2="{width - 10}" y2="{y + _SVG_LANE - 5}" '
                   f'stroke="#eeeeee"/>')
    for event in completes:
        index = row[event.get("tid", 0)]
        y = 8 + index * _SVG_LANE
        x0 = x(event["ts"])
        bar = max(1.0, round(event["dur"] / extent * plot, 2))
        args = event.get("args") or {}
        if event.get("cat") == "phase":
            color = PHASE_COLORS.get(event.get("name"), "#dddddd")
            out.append(
                f'<rect x="{x0}" y="{y + _SVG_BAR + 1}" width="{bar}" '
                f'height="{_SVG_STRIP}" fill="{color}">'
                f'<title>{_xml(event.get("name"))}</title></rect>')
            continue
        color = OUTCOME_COLORS.get(args.get("outcome"), DEFAULT_COLOR)
        tip = _xml(f'{event.get("name")} '
                   f'outcome={args.get("outcome")} '
                   f'{event["dur"] / 1e6:.3f}s')
        out.append(f'<rect x="{x0}" y="{y}" width="{bar}" '
                   f'height="{_SVG_BAR}" fill="{color}" '
                   f'stroke="#555555" stroke-width="0.4">'
                   f'<title>{tip}</title></rect>')
    for event in instants:
        index = row[event.get("tid", 0)]
        y = 8 + index * _SVG_LANE
        x0 = x(event.get("ts", 0))
        color = INSTANT_COLORS.get(event.get("name"), "#000000")
        tip = _xml(f'{event.get("name")} @ '
                   f'{(event.get("args") or {}).get("tick")}')
        out.append(f'<line x1="{x0}" y1="{y - 2}" x2="{x0}" '
                   f'y2="{y + _SVG_BAR + _SVG_STRIP + 2}" '
                   f'stroke="{color}" stroke-width="1.2">'
                   f'<title>{tip}</title></line>')
    axis_y = len(row) * _SVG_LANE + 22
    unit = trace.get("otherData", {}).get("timebase", "host")
    label = f"{extent / 1e6:.2f} s" if unit == "host" \
        else f"{extent} ticks"
    out.append(f'<line x1="{_SVG_GUTTER}" y1="{axis_y}" '
               f'x2="{width - 10}" y2="{axis_y}" stroke="#888888"/>')
    out.append(f'<text x="{_SVG_GUTTER}" y="{axis_y + 14}" '
               f'fill="#555">0</text>')
    out.append(f'<text x="{width - 10}" y="{axis_y + 14}" '
               f'text-anchor="end" fill="#555">{_xml(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def timeline_summary(share_dir: str) -> dict:
    """Quick share-level counts for CLI chatter (no rendering)."""
    finished, opened = load_spans(share_dir)
    experiments = _experiment_spans(finished)
    workers = sorted({r.get("worker") for r in experiments
                      if r.get("worker")})
    return {
        "experiments": len(experiments),
        "spans": len(finished),
        "open_spans": len(opened),
        "workers": workers,
        "span_files": sorted(
            name for name in os.listdir(os.path.join(share_dir, "spans"))
            if name.endswith(".jsonl")) if os.path.isdir(
                os.path.join(share_dir, "spans")) else [],
    }
