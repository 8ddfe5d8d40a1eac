"""AtomicSimple CPU model: one instruction per tick, no memory timing.

The fastest of gem5's four models and the one the paper's campaign
methodology switches *to* once the injected fault has committed or
squashed (Section IV.B.1).

While no fault-injection hook can fire (``FaultInjector.cold``), the
simulator hands this model whole poll-bounded blocks
(:meth:`AtomicSimpleCPU.run_block`).  A block runs each instruction
through a closure built once from its :class:`Decoded` and kept in one
process-wide table keyed by instruction word, so a word executes the
same way at every PC and in every simulator.  It stops before any
instruction the five-phase ``Core.serve_instruction`` must serve: PAL
calls, GemFI pseudo-instructions and instructions naming a register
with a pending propagation watch.
"""

from __future__ import annotations

import struct

from ..isa.instructions import (
    KIND_ALU,
    KIND_BR,
    KIND_BRANCH,
    KIND_CMOV,
    KIND_FBRANCH,
    KIND_FCMOV,
    KIND_FLOAD,
    KIND_FPALU,
    KIND_FSTORE,
    KIND_FTOI,
    KIND_ITOF,
    KIND_JUMP,
    KIND_LDA,
    KIND_LOAD,
    KIND_STORE,
    Decoded,
)
from ..isa.registers import MASK64
from ..memory.mainmem import PAGE_MASK, PAGE_SHIFT
from .base import Core

_WORD = struct.Struct("<I").unpack_from

#: Instruction word -> cold-path closure ``fn(r, f, mem, pc) -> next_pc``
#: over the raw integer and FP register lists.  Only words that decode
#: to a kind with a closure are stored.
CLOSURES: dict[int, object] = {}


class AtomicSimpleCPU:
    """1-IPC functional model."""

    model_name = "atomic"

    def __init__(self, core: Core) -> None:
        self.core = core

    def step(self) -> tuple[int, int]:
        """Serve one instruction; returns (ticks, instructions)."""
        self.core.serve_instruction(timing=False)
        return 1, 1

    def run_block(self, n: int) -> None:
        """Run up to *n* instructions on the cold path, one tick each.

        Stops early before an instruction the slow path must serve.
        ``core.committed`` and ``arch.pc`` always reflect the
        instructions that completed, also when one of them traps: the
        trap propagates with the PC at the trapping instruction.
        """
        core = self.core
        arch = core.arch
        r = arch.intregs.regs
        f = arch.fpregs.regs
        mem = core.mem
        pages = mem.pages
        table = CLOSURES
        injector = core.injector
        watched = None
        if injector is not None and core.fi_thread is not None \
                and injector.has_watches:
            watched = injector.watched()
        pc = arch.pc
        lo = hi = done = 0
        try:
            while done < n:
                if pc & 3 or not lo <= pc < hi:
                    # The checked fetch raises what the slow path
                    # raises; it also yields the mapped region, inside
                    # which aligned fetches need no check.
                    region = mem.fetch_region(pc)
                    lo, hi = region.start, region.end
                page = pages.get(pc >> PAGE_SHIFT)
                word = _WORD(page, pc & PAGE_MASK)[0] \
                    if page is not None else 0
                fn = table.get(word)
                if fn is None:
                    fn = closure(core.decode_cache.decode(word))
                    if fn is None:
                        break
                    table[word] = fn
                if watched is not None and not watched.isdisjoint(fn.regs):
                    break
                pc = fn(r, f, mem, pc)
                done += 1
        finally:
            arch.pc = pc
            core.committed += done

    def drain(self) -> None:
        """No internal state to flush (model-switch support)."""
        bus = self.core.bus
        if bus is not None:
            bus.emit("cpu_drain", model=self.model_name)

    def snapshot(self) -> dict:
        return {}

    def restore(self, snap: dict) -> None:
        pass


def closure(d: Decoded):
    """The cold-path closure of *d*, or None for the kinds only
    ``Core.serve_instruction`` serves (PAL calls, FI pseudo-ops).

    Each closure does what ``Core.execute`` does with no hook hot: index
    31 reads as zero and discards writes in both register files, and
    memory goes through ``MainMemory.read``/``write``.  ``fn.regs``
    holds the registers the instruction names, for watch checks.
    """
    k = d.kind
    ra, rb, rc, op, disp = d.ra, d.rb, d.rc, d.op, d.disp
    if k == KIND_ALU or k == KIND_CMOV:
        lit = d.lit

        if k == KIND_ALU:
            def fn(r, f, mem, pc):
                res = op(r[ra] if ra != 31 else 0,
                         lit if lit is not None
                         else r[rb] if rb != 31 else 0)
                if rc != 31:
                    r[rc] = res & MASK64
                return (pc + 4) & MASK64
        else:
            def fn(r, f, mem, pc):
                if rc != 31 and op(r[ra] if ra != 31 else 0):
                    r[rc] = (lit if lit is not None
                             else r[rb] if rb != 31 else 0)
                return (pc + 4) & MASK64
    elif k == KIND_FPALU:
        def fn(r, f, mem, pc):
            res = op(f[ra] if ra != 31 else 0, f[rb] if rb != 31 else 0)
            if rc != 31:
                f[rc] = res & MASK64
            return (pc + 4) & MASK64
    elif k == KIND_FCMOV:
        def fn(r, f, mem, pc):
            if rc != 31 and op(f[ra] if ra != 31 else 0):
                f[rc] = f[rb] if rb != 31 else 0
            return (pc + 4) & MASK64
    elif k == KIND_LOAD or k == KIND_FLOAD:
        size = d.size
        sext = d.signed and size == 4
        fp_dest = k == KIND_FLOAD

        def fn(r, f, mem, pc):
            value = mem.read(((r[rb] if rb != 31 else 0) + disp) & MASK64,
                             size, pc)
            if sext and value & 0x80000000:
                value |= 0xFFFFFFFF00000000
            if ra != 31:
                (f if fp_dest else r)[ra] = value
            return (pc + 4) & MASK64
    elif k == KIND_STORE or k == KIND_FSTORE:
        size = d.size
        fp_source = k == KIND_FSTORE

        def fn(r, f, mem, pc):
            mem.write(((r[rb] if rb != 31 else 0) + disp) & MASK64, size,
                      (f if fp_source else r)[ra] if ra != 31 else 0, pc)
            return (pc + 4) & MASK64
    elif k == KIND_LDA:
        def fn(r, f, mem, pc):
            if ra != 31:
                r[ra] = ((r[rb] if rb != 31 else 0) + disp) & MASK64
            return (pc + 4) & MASK64
    elif k == KIND_BRANCH or k == KIND_FBRANCH:
        fp_source = k == KIND_FBRANCH
        offset = 4 + 4 * disp

        def fn(r, f, mem, pc):
            if op((f if fp_source else r)[ra] if ra != 31 else 0):
                return (pc + offset) & MASK64
            return (pc + 4) & MASK64
    elif k == KIND_BR:
        offset = 4 + 4 * disp

        def fn(r, f, mem, pc):
            if ra != 31:
                r[ra] = (pc + 4) & MASK64
            return (pc + offset) & MASK64
    elif k == KIND_JUMP:
        def fn(r, f, mem, pc):
            target = (r[rb] if rb != 31 else 0) & ~3 & MASK64
            if ra != 31:
                r[ra] = (pc + 4) & MASK64
            return target
    elif k == KIND_ITOF:
        def fn(r, f, mem, pc):
            if rc != 31:
                f[rc] = r[ra] if ra != 31 else 0
            return (pc + 4) & MASK64
    elif k == KIND_FTOI:
        def fn(r, f, mem, pc):
            if rc != 31:
                r[rc] = f[ra] if ra != 31 else 0
            return (pc + 4) & MASK64
    else:
        return None
    fn.regs = frozenset(d.src_regs() + d.dest_regs())
    return fn
