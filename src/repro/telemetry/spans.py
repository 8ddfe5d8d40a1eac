"""Distributed span tracing across a NoW campaign.

FINJ-style campaigns need a *causally linked* view of what every
workstation did and when; this module provides it with the smallest
possible mechanism:

* a :class:`TraceContext` derives a **deterministic trace id** from the
  campaign seed, and every span id is a digest of the span's *path*
  within that trace (``/campaign/exp_0003/window``).  Reruns of the same
  seed therefore produce byte-identical span identities, and a worker
  process can compute its parent's span id without ever talking to the
  coordinator — propagating the context across processes is just
  "agree on the seed", which the share's ``workload.json`` already does;
* a :class:`Span` carries host timestamps *and* simulated-tick bounds,
  so the merged timeline (:mod:`repro.telemetry.timeline`) can render
  either a wall-clock or a fully deterministic ticks view;
* a :class:`Tracer` manages the open-span stack of one worker and
  appends records to ``share/spans/<worker>.jsonl`` through a
  :class:`JsonlSpanSink`.  Each span is written twice: an ``open``
  record at start (so ``gemfi timeline`` can show in-flight spans) and
  a full ``span`` record at finish.

Like the trace bus and the profiler, the whole layer is zero-overhead
when disabled: a runner/simulator without a tracer carries
``tracer = None`` and the only cost anywhere is a pointer test on rare
events (experiment boundaries, checkpoint save/restore).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager

SPAN_DIR = "spans"

# Path of the campaign root span: the coordinator opens it, and worker
# tracers parent their experiment spans under it by construction.
CAMPAIGN_PATH = "/campaign"


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


class TraceContext:
    """Deterministic trace identity derived from the campaign seed.

    Two processes (or two reruns) that build a context from the same
    seed agree on every id without communicating.
    """

    __slots__ = ("seed", "name", "trace_id")

    def __init__(self, seed, name: str = "campaign") -> None:
        self.seed = seed
        self.name = name
        self.trace_id = _digest(f"gemfi:{name}:{seed}")

    def span_id(self, path: str) -> str:
        """The id of the span at *path* within this trace."""
        return _digest(f"{self.trace_id}:{path}")


class Span:
    """One timed operation in the campaign tree."""

    __slots__ = ("name", "path", "span_id", "parent_id", "trace_id",
                 "worker", "t0", "t1", "tick0", "tick1", "attrs")

    def __init__(self, name: str, path: str, span_id: str,
                 parent_id: str | None, trace_id: str,
                 worker: str | None = None,
                 t0: float | None = None, t1: float | None = None,
                 tick0: int | None = None, tick1: int | None = None,
                 attrs: dict | None = None) -> None:
        self.name = name
        self.path = path
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.worker = worker
        self.t0 = t0
        self.t1 = t1
        self.tick0 = tick0
        self.tick1 = tick1
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float | None:
        if self.t0 is None or self.t1 is None:
            return None
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {
            "ev": "span", "name": self.name, "path": self.path,
            "span": self.span_id, "parent": self.parent_id,
            "trace": self.trace_id, "worker": self.worker,
            "t0": self.t0, "t1": self.t1,
            "tick0": self.tick0, "tick1": self.tick1,
            "attrs": dict(self.attrs),
        }

    def open_dict(self) -> dict:
        out = self.as_dict()
        out["ev"] = "open"
        out.pop("t1")
        out.pop("tick1")
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Span {self.path} [{self.span_id}]>"


class JsonlSpanSink:
    """Append span records as JSON lines (``share/spans/<ws>.jsonl``).

    The directory is created lazily on the first record, so a campaign
    with tracing disabled never grows a ``spans/`` directory — the share
    layout stays byte-identical to the untraced protocol.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None

    def accept(self, record: dict) -> None:
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, sort_keys=True,
                                      separators=(",", ":")) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class ListSpanSink:
    """Collect records in memory (tests, in-process consumers)."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def accept(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class Tracer:
    """The open-span stack of one process, writing to a sink.

    ``base_path`` anchors this tracer's top-level spans under a remote
    parent: a worker constructed with ``base_path=CAMPAIGN_PATH``
    parents its experiment spans under the coordinator's campaign span
    purely by id arithmetic — no handshake, no shared state.

    ``root_parent`` goes one step further out: it is a literal span id
    that becomes the parent of this tracer's *root* spans (those with
    no base_path), without affecting their own paths or ids.  The
    campaign service uses it to hang a job's ``/campaign`` tree under
    the span of the HTTP request that created the job — every id in
    the campaign tree stays exactly what an unrooted run would
    compute, so workers need no new coordination.
    """

    def __init__(self, context: TraceContext, sink=None,
                 worker: str | None = None, base_path: str = "",
                 root_parent: str | None = None,
                 clock=time.time) -> None:
        self.context = context
        self.sink = sink
        self.worker = worker
        self.base_path = base_path
        self.root_parent = root_parent
        self.clock = clock
        self.finished: list[Span] = []
        self._stack: list[Span] = []
        self._counts: dict[str, int] = {}

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def _child_path(self, name: str, parent: Span | None) -> str:
        prefix = parent.path if parent is not None else self.base_path
        base = f"{prefix}/{name}"
        count = self._counts.get(base, 0)
        self._counts[base] = count + 1
        return base if count == 0 else f"{base}#{count}"

    def _make_span(self, name: str, parent: Span | None,
                   attrs: dict) -> Span:
        path = self._child_path(name, parent)
        if parent is not None:
            parent_id = parent.span_id
        elif self.base_path:
            parent_id = self.context.span_id(self.base_path)
        else:
            parent_id = self.root_parent
        return Span(name=name, path=path,
                    span_id=self.context.span_id(path),
                    parent_id=parent_id,
                    trace_id=self.context.trace_id,
                    worker=self.worker, attrs=attrs)

    def start(self, name: str, tick: int | None = None,
              **attrs) -> Span:
        """Open a span as a child of the current one (or the root)."""
        span = self._make_span(name, self.current, dict(attrs))
        span.t0 = self.clock()
        span.tick0 = tick
        self._stack.append(span)
        if self.sink is not None:
            self.sink.accept(span.open_dict())
        return span

    def finish(self, span: Span, tick: int | None = None,
               **attrs) -> Span:
        """Close *span*, stamping the end time and merging *attrs*."""
        span.t1 = self.clock()
        if tick is not None:
            span.tick1 = tick
        span.attrs.update(attrs)
        if span in self._stack:
            self._stack.remove(span)
        self.finished.append(span)
        if self.sink is not None:
            self.sink.accept(span.as_dict())
        return span

    @contextmanager
    def span(self, name: str, tick: int | None = None, **attrs):
        """``with tracer.span("checkpoint_save"): ...``"""
        opened = self.start(name, tick=tick, **attrs)
        try:
            yield opened
        finally:
            self.finish(opened, tick=tick)

    def annotate(self, span: Span, **attrs) -> None:
        span.attrs.update(attrs)

    def record(self, name: str, t0: float, t1: float,
               tick0: int | None = None, tick1: int | None = None,
               parent: Span | None = None, **attrs) -> Span:
        """Retro-record an already-elapsed child span.

        Used for quantities only known after the fact — the
        boot/window/injection/drain host-time phase split is computed
        once an experiment completes, then recorded as children that
        partition the experiment span exactly.
        """
        span = self._make_span(name, parent if parent is not None
                               else self.current, dict(attrs))
        span.t0 = t0
        span.t1 = t1
        span.tick0 = tick0
        span.tick1 = tick1
        self.finished.append(span)
        if self.sink is not None:
            self.sink.accept(span.as_dict())
        return span

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


# -- reading span logs back ---------------------------------------------------


def span_log_path(share_dir: str, worker_id: str) -> str:
    return os.path.join(share_dir, SPAN_DIR, f"{worker_id}.jsonl")


def read_span_records(share_dir: str) -> list[dict]:
    """Every span record on the share, in per-worker file order."""
    directory = os.path.join(share_dir, SPAN_DIR)
    if not os.path.isdir(directory):
        return []
    records: list[dict] = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".jsonl"):
            continue
        try:
            with open(os.path.join(directory, name), "r",
                      encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # a worker caught mid-write
    return records


def load_spans(share_dir: str) -> tuple[list[dict], list[dict]]:
    """Split the share's span records into (finished, still-open).

    A span is *open* when its ``open`` record has no matching ``span``
    record yet — an experiment in flight, or one whose worker died
    mid-run.  Only ``gemfi timeline`` reads these: the watchdog reads
    in-flight experiments from the claims.
    """
    records = read_span_records(share_dir)
    finished = [r for r in records if r.get("ev") == "span"]
    closed_ids = {r.get("span") for r in finished}
    opened = [r for r in records
              if r.get("ev") == "open" and r.get("span") not in closed_ids]
    return finished, opened
