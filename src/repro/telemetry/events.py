"""The structured trace bus: typed lifecycle events, JSONL on the wire.

ZOFI and FINJ both lean on cheap machine-readable per-injection records;
this module is the reproduction's equivalent.  Simulator components emit
:class:`TraceEvent` objects onto a :class:`TraceBus`, which fans them out
to sinks (:mod:`repro.telemetry.sinks`).  The bus follows the
``trace_hot`` zero-overhead discipline of :mod:`repro.analysis`: a
simulator without a bus attached carries ``bus = None`` everywhere, so
the only cost on any path is a pointer test on the *rare* events
(injections, traps, window toggles, checkpoints) — the per-instruction
hot path is untouched.

Every event serialises to one JSON line with sorted keys, so traces are
diffable and stream-parseable (``gemfi run --trace``, ``gemfi trace``).
"""

from __future__ import annotations

import json
from typing import Any, Iterator

# The complete lifecycle vocabulary.  emit() validates against this set
# so a typo in an instrumentation site fails loudly in tests instead of
# silently producing an unparseable stream.
EVENT_KINDS = frozenset({
    # fault lifecycle
    "fault_armed", "fault_injected", "fault_propagated", "fault_masked",
    # fi_activate windows
    "fi_window_open", "fi_window_close",
    # architectural happenings
    "trap", "syscall", "halt", "process_exit",
    # checkpointing
    "checkpoint_save", "checkpoint_restore",
    # CPU model lifecycle
    "model_switch", "cpu_drain", "cpu_squash",
    # O3 pipeline occupancy (gemfi pipeview; emitted only while
    # bus.pipe_trace is set — the per-commit cost is opt-in)
    "pipe_inst", "pipe_squash",
    # flight recorder (first golden-vs-faulty divergence)
    "flight_divergence",
    # campaign lifecycle (reconverged: a faulty run rejoined the golden
    # run at a checkpoint-ladder rung and stopped early)
    "experiment_start", "experiment_end", "worker_heartbeat",
    "reconverged",
})


class TraceEvent:
    """One structured lifecycle event."""

    __slots__ = ("kind", "tick", "data")

    def __init__(self, kind: str, tick: int = 0,
                 data: dict[str, Any] | None = None) -> None:
        self.kind = kind
        self.tick = tick
        self.data = data or {}

    def as_dict(self) -> dict[str, Any]:
        out = {"kind": self.kind, "tick": self.tick}
        out.update(self.data)
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TraceEvent":
        payload = dict(payload)
        kind = payload.pop("kind")
        tick = payload.pop("tick", 0)
        return cls(kind, tick, payload)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TraceEvent)
                and self.as_dict() == other.as_dict())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TraceEvent {self.kind} tick={self.tick} {self.data}>"


class TraceBus:
    """Fan-out of trace events to any number of sinks.

    ``clock`` is installed by :meth:`repro.sim.simulator.Simulator.
    attach_bus` so emitters do not need to thread the tick through; an
    explicit ``tick=`` argument overrides it (campaign-level events).
    A disabled bus (``enabled = False``) swallows everything, letting
    tests hold the object graph constant while toggling telemetry.
    """

    __slots__ = ("sinks", "clock", "enabled", "pipe_trace")

    def __init__(self, *sinks, clock=None, pipe_trace: bool = False) -> None:
        self.sinks = list(sinks)
        self.clock = clock
        self.enabled = True
        # Opt-in per-instruction pipeline events (pipe_inst/pipe_squash)
        # for ``gemfi pipeview``.  Off by default: unlike the rare
        # lifecycle events above, these fire once per committed or
        # squashed instruction, so the O3 model tests this flag before
        # paying for them.
        self.pipe_trace = pipe_trace

    def attach(self, sink) -> None:
        self.sinks.append(sink)

    def emit(self, kind: str, tick: int | None = None,
             **data: Any) -> None:
        if not self.enabled:
            return
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind '{kind}'")
        if tick is None:
            tick = self.clock() if self.clock is not None else 0
        event = TraceEvent(kind, tick, data)
        for sink in self.sinks:
            sink.accept(event)

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


def events_to_jsonl(events) -> str:
    """Serialise an event sequence to JSONL text."""
    return "".join(event.to_json() + "\n" for event in events)


def event_from_line(line: str, number: int) -> TraceEvent:
    """Parse line *number* (1-based) of a JSONL trace.  A line that is
    not a JSON object with a ``kind`` raises ValueError naming the
    line."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {number}: not JSON ({exc.msg})") \
            from None
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ValueError(f"line {number}: not a trace event "
                         f"(no 'kind')")
    return TraceEvent.from_dict(payload)


def events_from_jsonl(text: str) -> Iterator[TraceEvent]:
    """Parse JSONL text back into events (skips blank lines)."""
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line:
            yield event_from_line(line, number)
