"""gemfi pipeview: O3 pipeline occupancy rendered from trace-bus events.

A text visualization in the spirit of gem5's ``o3-pipeview`` / Konata:
one row per fetched instruction, one column per cycle, with stage
markers on the timeline::

    [   5] 0x20010 addq r1, r2, r3    |fdn.i.c   |
    [   6] 0x20014 beq  r3, L1        |fdn..ic   |
    [   7] 0x20018 ldq  r4, 0(r5)     | fdn...x  |   <- squashed

Markers: ``f`` fetch, ``d`` decode, ``n`` rename (the synthetic
frontend stages — the model's ``_FRONTEND_DEPTH`` is 3), ``i``
issue/complete, ``c`` commit, ``x`` squash; ``.`` marks cycles the
instruction is in flight.

Rendering consumes only ``pipe_inst`` / ``pipe_squash`` events captured
on a :class:`~repro.telemetry.events.TraceBus` with ``pipe_trace`` set
(``gemfi run --trace FILE --pipe``); nothing is re-instrumented at
render time.
"""

from __future__ import annotations

from dataclasses import dataclass

# The synthetic frontend of the O3 model: decode and rename trail fetch
# by one cycle each (cpu/o3.py _FRONTEND_DEPTH = 3).
_DECODE_LAG = 1
_RENAME_LAG = 2

# Rows wider than this are clipped (a pathological trace should not
# produce a terabyte of padding); the clip is reported in the output.
MAX_TIMELINE_CYCLES = 4000


@dataclass
class PipeInst:
    """One fetched instruction's trip through the pipeline."""

    seq: int
    pc: int
    fetch: int
    asm: str = ""
    complete: int | None = None
    commit: int | None = None
    squash: int | None = None
    squash_reason: str = ""

    @property
    def end(self) -> int:
        if self.commit is not None:
            return self.commit
        if self.squash is not None:
            return self.squash
        return self.fetch

    @property
    def committed(self) -> bool:
        return self.commit is not None


def collect_pipeline(events) -> list[PipeInst]:
    """Fold ``pipe_inst`` / ``pipe_squash`` trace events into per-seq
    instruction records, in fetch order.

    An instruction that both commits and appears in a squash sweep (the
    PC-fault redirect retires the head, then flushes the window) counts
    as committed — commit is architectural, the sweep is bookkeeping.
    """
    insts: dict[int, PipeInst] = {}
    for event in events:
        if event.kind == "pipe_inst":
            data = event.data
            seq = data["seq"]
            inst = insts.get(seq)
            if inst is None:
                inst = insts[seq] = PipeInst(
                    seq=seq, pc=data["pc"], fetch=data["fetch"])
            inst.asm = data.get("asm", inst.asm)
            inst.complete = data.get("complete")
            inst.commit = data.get("commit")
            inst.squash = None
        elif event.kind == "pipe_squash":
            data = event.data
            seq = data["seq"]
            inst = insts.get(seq)
            if inst is None:
                inst = insts[seq] = PipeInst(
                    seq=seq, pc=data["pc"], fetch=data["fetch"])
                inst.asm = data.get("asm", "")
            if inst.commit is None:
                inst.squash = data.get("squash")
                inst.squash_reason = data.get("reason", "")
    return [insts[seq] for seq in sorted(insts)]


def _lane(inst: PipeInst, base: int, span: int) -> str:
    cells = [" "] * span

    def put(cycle: int | None, char: str) -> None:
        if cycle is None:
            return
        col = cycle - base
        if 0 <= col < span:
            cells[col] = char

    start = inst.fetch - base
    end = min(inst.end - base, span - 1)
    for col in range(max(start, 0), end + 1):
        cells[col] = "."
    put(inst.fetch, "f")
    if inst.end >= inst.fetch + _DECODE_LAG:
        put(inst.fetch + _DECODE_LAG, "d")
    if inst.end >= inst.fetch + _RENAME_LAG:
        put(inst.fetch + _RENAME_LAG, "n")
    if inst.committed:
        put(inst.complete, "i")
        put(inst.commit, "c")
    else:
        put(inst.squash, "x")
    return "".join(cells)


def render_pipeview(insts: list[PipeInst]) -> str:
    """Render instruction lanes, Konata-style, one row per fetch."""
    if not insts:
        return "(no pipe_inst/pipe_squash events -- capture with " \
               "`gemfi run --cpu o3 --trace FILE --pipe`)"
    base = min(inst.fetch for inst in insts)
    last = max(inst.end for inst in insts)
    span = last - base + 1
    clipped = span > MAX_TIMELINE_CYCLES
    if clipped:
        span = MAX_TIMELINE_CYCLES
    asm_width = min(28, max(len(inst.asm) for inst in insts) or 1)
    lines = [f"cycles {base}..{last}  "
             f"({len(insts)} instructions, "
             f"{sum(1 for i in insts if not i.committed)} squashed)"]
    for inst in insts:
        asm = inst.asm[:asm_width].ljust(asm_width)
        tag = ""
        if not inst.committed:
            tag = f"  <- squashed ({inst.squash_reason})" \
                if inst.squash_reason else "  <- squashed"
        lines.append(f"[{inst.seq:>5}] {inst.pc:#08x} {asm} "
                     f"|{_lane(inst, base, span)}|{tag}")
    if clipped:
        lines.append(f"(timeline clipped to {MAX_TIMELINE_CYCLES} cycles)")
    return "\n".join(lines)


def render_from_events(events) -> str:
    """Convenience: events (any mixture of kinds) straight to text."""
    return render_pipeview(collect_pipeline(events))
