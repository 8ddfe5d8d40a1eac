"""Trace-event sinks: where the bus delivers events.

Two sinks cover the observability shapes of the issue:

* :class:`RingBufferSink` — bounded in-memory buffer holding the *last*
  N events (``gemfi run --trace FILE --ring N``).  It turns a crashed
  or hung run into a post-mortem: the final events before the trap are
  right there, without paying full-trace I/O for the whole run.
* :class:`JsonlFileSink` — full structured trace, one JSON object per
  line, streamable while the simulation is still running
  (``gemfi run --trace FILE``).

:class:`ListSink` is the trivial collect-everything sink used by tests
and in-process analysis.
"""

from __future__ import annotations

import io
import time
from collections import deque

from .events import TraceEvent, event_from_line, events_from_jsonl


class ListSink:
    """Collect every event in order (tests, in-process consumers)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def accept(self, event: TraceEvent) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]


class RingBufferSink:
    """Keep only the most recent *capacity* events (crash post-mortems)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0

    def accept(self, event: TraceEvent) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._ring)

    @property
    def count(self) -> int:
        """Events accepted, dropped ones included."""
        return self.dropped + len(self._ring)

    def dump_jsonl(self) -> str:
        return "".join(event.to_json() + "\n" for event in self._ring)


class JsonlFileSink:
    """Append each event as one JSON line to a file or stream.

    ``autoflush`` (default on) makes the trace tailable while the
    simulation runs; turn it off for lowest-overhead full traces.
    """

    def __init__(self, target, autoflush: bool = True) -> None:
        if isinstance(target, (str, bytes)):
            self._handle = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self.autoflush = autoflush
        self.count = 0

    def accept(self, event: TraceEvent) -> None:
        self._handle.write(event.to_json() + "\n")
        self.count += 1
        if self.autoflush:
            self._handle.flush()

    def close(self) -> None:
        try:
            self._handle.flush()
        except (OSError, ValueError):
            pass
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlFileSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl(source) -> list[TraceEvent]:
    """Load a JSONL trace from a path or open text stream."""
    if isinstance(source, io.TextIOBase):
        return list(events_from_jsonl(source.read()))
    with open(source, "r", encoding="utf-8") as handle:
        return list(events_from_jsonl(handle.read()))


def follow_jsonl(path: str, poll: float = 0.2,
                 idle_timeout: float | None = None,
                 sleep=time.sleep, clock=time.monotonic):
    """Tail a JSONL trace file (``gemfi trace``).

    Yields :class:`TraceEvent` objects as lines are appended by a live
    writer, polling every *poll* seconds.  Partial lines (a writer
    caught mid-``write``) are left in the buffer until their newline
    arrives.  Stops when no complete line has arrived for
    *idle_timeout* seconds (None = follow forever, until the consumer
    stops iterating or interrupts).  A line that is not a trace event
    raises ValueError naming its line number.
    """
    buffer = ""
    number = 0
    last_event = clock()
    with open(path, "r", encoding="utf-8") as handle:
        while True:
            chunk = handle.read()
            if chunk:
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    line = line.strip()
                    number += 1
                    if line:
                        last_event = clock()
                        yield event_from_line(line, number)
            if idle_timeout is not None and \
                    clock() - last_event > idle_timeout:
                return
            if not chunk:
                sleep(poll)
