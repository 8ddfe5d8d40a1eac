"""Core state and the shared instruction-execution flow.

Every CPU model serves each instruction through the same micro-phases
(Fig. 2 of the paper): fetch -> decode -> execute -> memory -> commit.
GemFI hooks wrap each phase; they are only invoked when the thread that
is running on the core has activated fault injection, so a core running
untargeted code pays nothing.

The functional semantics live here so that all four CPU models (atomic,
timing, in-order, O3) produce bit-identical architectural results — a
property the test suite checks and the paper's validation (Section IV.A)
relies on.
"""

from __future__ import annotations

from ..isa.instructions import (
    Decoded,
    DecodeCache,
    FI_ACTIVATE,
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
    KIND_PAL,
    KIND_STORE,
    PAL_CALLSYS,
    PAL_HALT,
)
from ..isa.registers import ArchState, MASK64
from ..isa.traps import HaltRequest


class CheckpointRequested(Exception):
    """Control-flow signal: a ``fi_read_init_all`` pseudo-instruction
    retired and the simulator must take a checkpoint *now* (before any
    further instruction — notably before the following
    ``fi_activate_inst`` — executes, so every restored experiment replays
    the activation itself)."""

    def __init__(self, next_pc: int) -> None:
        super().__init__("checkpoint requested")
        self.next_pc = next_pc


class StepResult:
    """What happened during one served instruction (timing models consume
    the latency fields; the simulator consumes the control fields)."""

    __slots__ = ("ticks", "decoded", "pc", "next_pc", "taken",
                 "is_branch", "mem_addr")

    def __init__(self, ticks: int = 1, decoded: Decoded | None = None,
                 pc: int = 0, next_pc: int = 0, taken: bool = False,
                 is_branch: bool = False,
                 mem_addr: int | None = None) -> None:
        self.ticks = ticks
        self.decoded = decoded
        self.pc = pc
        self.next_pc = next_pc
        self.taken = taken
        self.is_branch = is_branch
        self.mem_addr = mem_addr


class Core:
    """One hardware context: architectural state plus FI plumbing."""

    def __init__(self, name: str, hierarchy, injector=None,
                 decode_cache: DecodeCache | None = None) -> None:
        self.name = name
        self.hier = hierarchy
        self.mem = hierarchy.memory
        self.injector = injector
        self.decode_cache = decode_cache or DecodeCache()
        self.arch = ArchState()
        self.pcb_addr = 0
        self.fi_thread = None
        # Structured trace bus (repro.telemetry); None = telemetry off.
        # Tested only on rare paths (syscalls, drains), never in the
        # per-instruction flow.
        self.bus = None
        self.committed = 0
        self.system = None   # set by System.attach_core

    # -- the shared five-phase instruction flow --------------------------------

    def serve_instruction(self, timing: bool = False) -> StepResult:
        """Fetch, decode, execute, access memory and commit exactly one
        instruction at the current PC.  Raises architectural traps.
        """
        arch = self.arch
        pc = arch.pc
        fi_thread = self.fi_thread
        inj = self.injector if fi_thread is not None else None

        # --- fetch ---
        if timing:
            word, fetch_lat = self.hier.fetch(pc)
        else:
            word, fetch_lat = self.mem.fetch(pc), 1
        if inj is not None and inj.frontend_hot:
            if inj.hot_fetch:
                word = inj.on_fetch(self, fi_thread, pc, word)
            decoded = self.decode_cache.decode(word)
            if inj.hot_decode:
                decoded = inj.on_decode(self, fi_thread, pc, decoded)
            if inj.has_watches:
                inj.observe(decoded)
        else:
            # --- decode ---
            decoded = self.decode_cache.decode(word)

        # --- execute / memory / writeback ---
        result = self.execute(decoded, pc, timing=timing)
        if fetch_lat > result.ticks:
            result.ticks = fetch_lat
        result.pc = pc
        result.decoded = decoded

        # --- commit ---
        arch.pc = result.next_pc
        self.committed += 1
        # The def-use trace hook checks self.injector (not the
        # fi_thread-gated `inj`): it keeps recording after the FI window
        # deactivates, where liveness analysis still needs the stream.
        inj_all = self.injector
        if inj_all is not None and inj_all.trace_hot:
            inj_all.on_trace(self, pc, decoded, result)
        if inj is not None and inj.hot_regfile:
            inj.on_commit(self, fi_thread, pc)
        return result

    def execute(self, d: Decoded, pc: int,
                timing: bool = False) -> StepResult:
        """Execute a decoded instruction (phases 3-5).  ``arch.pc`` is not
        modified; the chosen next PC is returned so pipelined models can
        compare it with their prediction."""
        arch = self.arch
        intregs = arch.intregs
        fpregs = arch.fpregs
        fi_thread = self.fi_thread
        inj = self.injector if fi_thread is not None else None
        k = d.kind
        next_pc = (pc + 4) & MASK64
        ticks = 1

        if k == KIND_ALU:
            a = intregs.read(d.ra)
            b = d.lit if d.lit is not None else intregs.read(d.rb)
            res = d.op(a, b)
            if inj is not None and inj.hot_execute:
                res = inj.on_execute(self, fi_thread, pc, d, res)
            intregs.write(d.rc, res)
            return StepResult(ticks, next_pc=next_pc)

        if k == KIND_LOAD or k == KIND_FLOAD:
            addr = (intregs.read(d.rb) + d.disp) & MASK64
            if inj is not None and inj.hot_execute:
                addr = inj.on_execute(self, fi_thread, pc, d, addr)
            if timing:
                value, mem_lat = self.hier.read(addr, d.size, pc=pc)
                ticks += mem_lat
            else:
                value = self.mem.read(addr, d.size, pc=pc)
            if d.signed and d.size == 4:
                value = _sext32(value)
            if inj is not None and inj.hot_mem:
                value = inj.on_mem(self, fi_thread, pc, d, value, True,
                                   width=8 * d.size)
            if k == KIND_LOAD:
                intregs.write(d.ra, value)
            else:
                fpregs.write(d.ra, value)
            return StepResult(ticks, next_pc=next_pc, mem_addr=addr)

        if k == KIND_STORE or k == KIND_FSTORE:
            addr = (intregs.read(d.rb) + d.disp) & MASK64
            if inj is not None and inj.hot_execute:
                addr = inj.on_execute(self, fi_thread, pc, d, addr)
            value = (intregs.read(d.ra) if k == KIND_STORE
                     else fpregs.read(d.ra))
            if inj is not None and inj.hot_mem:
                value = inj.on_mem(self, fi_thread, pc, d, value, False,
                                   width=8 * d.size)
            if timing:
                ticks += self.hier.write(addr, d.size, value, pc=pc)
            else:
                self.mem.write(addr, d.size, value, pc=pc)
            return StepResult(ticks, next_pc=next_pc, mem_addr=addr)

        if k == KIND_BRANCH:
            a = intregs.read(d.ra)
            taken = d.op(a)
            if taken:
                next_pc = (pc + 4 + 4 * d.disp) & MASK64
            return StepResult(ticks, next_pc=next_pc, taken=taken,
                              is_branch=True)

        if k == KIND_LDA:
            res = (intregs.read(d.rb) + d.disp) & MASK64
            if inj is not None and inj.hot_execute:
                res = inj.on_execute(self, fi_thread, pc, d, res)
            intregs.write(d.ra, res)
            return StepResult(ticks, next_pc=next_pc)

        if k == KIND_FPALU:
            a = fpregs.read(d.ra)
            b = fpregs.read(d.rb)
            res = d.op(a, b)
            if inj is not None and inj.hot_execute:
                res = inj.on_execute(self, fi_thread, pc, d, res)
            fpregs.write(d.rc, res)
            return StepResult(ticks, next_pc=next_pc)

        if k == KIND_CMOV:
            a = intregs.read(d.ra)
            b = d.lit if d.lit is not None else intregs.read(d.rb)
            res = b if d.op(a) else intregs.read(d.rc)
            if inj is not None and inj.hot_execute:
                res = inj.on_execute(self, fi_thread, pc, d, res)
            intregs.write(d.rc, res)
            return StepResult(ticks, next_pc=next_pc)

        if k == KIND_FCMOV:
            a = fpregs.read(d.ra)
            b = fpregs.read(d.rb)
            res = b if d.op(a) else fpregs.read(d.rc)
            if inj is not None and inj.hot_execute:
                res = inj.on_execute(self, fi_thread, pc, d, res)
            fpregs.write(d.rc, res)
            return StepResult(ticks, next_pc=next_pc)

        if k == KIND_FBRANCH:
            a = fpregs.read(d.ra)
            taken = d.op(a)
            if taken:
                next_pc = (pc + 4 + 4 * d.disp) & MASK64
            return StepResult(ticks, next_pc=next_pc, taken=taken,
                              is_branch=True)

        if k == KIND_BR:
            intregs.write(d.ra, (pc + 4) & MASK64)
            next_pc = (pc + 4 + 4 * d.disp) & MASK64
            return StepResult(ticks, next_pc=next_pc, taken=True,
                              is_branch=True)

        if k == KIND_JUMP:
            target = intregs.read(d.rb) & ~3 & MASK64
            intregs.write(d.ra, (pc + 4) & MASK64)
            return StepResult(ticks, next_pc=target, taken=True,
                              is_branch=True)

        if k == KIND_ITOF:
            res = intregs.read(d.ra)
            if inj is not None and inj.hot_execute:
                res = inj.on_execute(self, fi_thread, pc, d, res)
            fpregs.write(d.rc, res)
            return StepResult(ticks, next_pc=next_pc)

        if k == KIND_FTOI:
            res = fpregs.read(d.ra)
            if inj is not None and inj.hot_execute:
                res = inj.on_execute(self, fi_thread, pc, d, res)
            intregs.write(d.rc, res)
            return StepResult(ticks, next_pc=next_pc)

        if k == KIND_PAL:
            if d.func == PAL_HALT:
                raise HaltRequest("halt instruction", pc=pc)
            if d.func == PAL_CALLSYS:
                if self.bus is not None:
                    self.bus.emit("syscall", pc=pc,
                                  number=intregs.read(0))
                self.system.syscall(self)
                return StepResult(ticks, next_pc=next_pc)
            # IMB: memory barrier, a no-op in this memory model.
            return StepResult(ticks, next_pc=next_pc)

        # KIND_FI: GemFI pseudo-instructions.
        if self.injector is not None:
            if d.func == FI_ACTIVATE:
                self.injector.handle_fi_activate(
                    self, thread_id=intregs.read(16))
            else:
                # The simulator checkpoints synchronously, before the
                # upcoming fi_activate_inst can slip past the snapshot.
                raise CheckpointRequested(next_pc)
        return StepResult(ticks, next_pc=next_pc)

    # -- checkpoint support ------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "arch": self.arch.snapshot(),
            "pcb_addr": self.pcb_addr,
            "committed": self.committed,
        }

    def restore(self, snap: dict) -> None:
        self.arch.restore(snap["arch"])
        self.pcb_addr = snap["pcb_addr"]
        self.committed = snap["committed"]
        self.fi_thread = None


def _sext32(value: int) -> int:
    value &= 0xFFFFFFFF
    if value & 0x80000000:
        value |= ~0xFFFFFFFF & MASK64
    return value
