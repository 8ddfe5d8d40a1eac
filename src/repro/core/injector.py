"""The GemFI fault-injection engine (Fig. 2 of the paper).

A :class:`FaultInjector` is attached to the simulated system.  CPU models
call its hooks at each pipeline stage of every instruction *of threads
that activated fault injection*; the injector counts the thread's
progress, scans the per-stage fault queues and corrupts the in-flight
value when a fault is due.  Register-file and PC faults are applied at
instruction boundaries directly to the architectural state.

Cores where the running thread has not activated FI carry a ``None``
thread pointer and skip the hooks entirely — the mechanism that keeps
GemFI's overhead within a few percent of unmodified gem5 (Fig. 7).
"""

from __future__ import annotations

import time

from ..isa import disasm
from ..isa.instructions import Decoded, decode as _decode_word
from ..isa.traps import IllegalInstruction
from .fault import Fault, InjectionRecord, LocationKind, Stage
from .parser import parse_fault_file
from .queues import FaultQueues
from .thread_state import ThreadEnabledFault, ThreadTable


def same_semantics(before: int, after: int) -> bool:
    """True when two instruction words decode to identical semantics —
    i.e. a fetch-stage flip landed in architecturally unused bits
    (Section IV.B.2: "experiments affecting unused bits always resulted
    into strict correct results").  Also used by the liveness analysis
    (``repro.analysis``) to pre-classify fetch-stage fault sites."""
    if before == after:
        return True
    try:
        d1 = _decode_word(before)
        d2 = _decode_word(after)
    except IllegalInstruction:
        return False
    return (d1.name == d2.name and d1.kind == d2.kind and d1.ra == d2.ra
            and d1.rb == d2.rb and d1.rc == d2.rc and d1.lit == d2.lit
            and d1.disp == d2.disp and d1.func == d2.func)


class FaultInjector:
    """Per-system fault-injection state machine."""

    def __init__(self, faults: list[Fault] | None = None,
                 clock=None) -> None:
        self.queues = FaultQueues(list(faults) if faults else [])
        self.threads = ThreadTable()
        # Per-stage hot flags: hooks are only invoked for stages that
        # still have pending/active faults, so a GemFI run with no
        # faults configured pays almost nothing per instruction
        # (the Fig. 7 minimal-overhead property).
        self.hot_fetch = False
        self.hot_decode = False
        self.hot_execute = False
        self.hot_mem = False
        self.hot_regfile = False
        self.frontend_hot = False
        self.records: list[InjectionRecord] = []
        self.clock = clock or (lambda: 0)
        # Optional def-use trace recorder (repro.analysis): one boolean
        # test per committed instruction when absent, mirroring the
        # per-stage hot flags.
        self.tracer = None
        self.trace_hot = False
        # Optional structured trace bus (repro.telemetry).  None means
        # telemetry off; the hooks below only test the pointer on the
        # rare events (injection, window toggles), never per
        # instruction, preserving the Fig. 7 overhead property.
        self.bus = None
        # Completed fi_activate..fi_activate windows, recorded on
        # deactivation; campaigns profile these to learn how many
        # instructions the region of interest executes.
        self.windows: list[dict] = []
        # Register-fault propagation watches: (cls, idx) -> record.
        self._watches: dict[tuple[str, int], object] = {}
        self.has_watches = False
        # Host-clock stamps of the first/last injection, taken inside
        # _record (a per-experiment-rare event, so no hot-path cost).
        # Campaigns split wall_seconds into boot/window/injection/drain
        # phases around them.
        self.first_injection_host: float | None = None
        self.last_injection_host: float | None = None
        self.refresh_hot_flags()

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, clock=None) -> "FaultInjector":
        return cls(parse_fault_file(text), clock=clock)

    def refresh_hot_flags(self) -> None:
        """Recompute the per-stage fast-path flags."""
        queues = self.queues.queues
        self.hot_fetch = not queues[Stage.FETCH].empty
        self.hot_decode = not queues[Stage.DECODE].empty
        self.hot_execute = not queues[Stage.EXECUTE].empty
        self.hot_mem = not queues[Stage.MEM].empty
        self.hot_regfile = not queues[Stage.REGFILE].empty
        self.frontend_hot = (self.hot_fetch or self.hot_decode
                             or self.has_watches)

    def cold(self, core) -> bool:
        """True when no per-instruction hook can run on *core* until an
        instruction that ends a cold block (a PAL call, an FI
        pseudo-instruction, or one naming a watched register; see
        :meth:`watched`) changes the answer.  ``Simulator.run`` asks
        once per poll-bounded block; a new per-instruction hook must
        make this false whenever it can fire.  A core without an FI
        thread runs no stage hook, and an installed tracer that has not
        started ignores such a core (:meth:`on_trace`)."""
        if core.fi_thread is None:
            return not self.trace_hot or not self.tracer.started
        return not (self.hot_fetch or self.hot_decode or self.hot_execute
                    or self.hot_mem or self.hot_regfile or self.trace_hot)

    def watched(self):
        """The (class, index) keys of the pending propagation watches."""
        return self._watches.keys()

    def reset(self) -> None:
        """Forget all dynamic state and re-arm every configured fault.

        Invoked on checkpoint restore: the same checkpoint then serves as
        the starting point for experiments with different fault configs
        (``fi_read_init_all`` semantics, Section III.A).
        """
        self.queues.reset()
        self.threads.clear()
        self.records.clear()
        self.windows.clear()
        self._watches.clear()
        self.has_watches = False
        self.first_injection_host = None
        self.last_injection_host = None
        self.refresh_hot_flags()

    # -- def-use trace recording (repro.analysis) -------------------------------

    def install_tracer(self, tracer) -> None:
        """Attach a commit-time tracer: a
        :class:`repro.analysis.DefUseTracer` or one of the flight-
        recorder hooks (:class:`repro.telemetry.flight.FlightRecorder` /
        :class:`~repro.telemetry.flight.DivergenceScanner`).  Recording
        starts at the first committed instruction of an FI-active thread
        (the activating ``fi_activate_inst``) and runs to program end."""
        self.tracer = tracer
        self.trace_hot = True

    def on_trace(self, core, pc: int, decoded, result) -> None:
        """Commit-time trace hook (invoked only while ``trace_hot``)."""
        tracer = self.tracer
        thread = core.fi_thread
        if not tracer.started:
            if thread is None:
                return
            tracer.capture_initial(core)
            tracer.started = True
        window_index = None
        if thread is not None:
            window_index = thread.effective_committed(core.committed)
            if window_index <= 0:   # the activating fi_activate itself
                window_index = None
        tracer.record(window_index, pc, decoded, result, core)

    # -- activation and thread tracking ---------------------------------------

    def handle_fi_activate(self, core, thread_id: int) -> bool:
        """``fi_activate_inst(id)`` retired on *core*: toggle FI for the
        running thread (identified by its PCB address).  Returns True if
        the thread is now active."""
        existing = self.threads.lookup(core.pcb_addr)
        thread = self.threads.toggle(core.pcb_addr, thread_id,
                                     self.clock())
        core.fi_thread = thread
        if thread is not None:
            # +1 excludes the fi_activate_inst instruction itself, which
            # commits right after this handler runs.
            thread.base_committed = core.committed + 1
            if self.bus is not None:
                self.bus.emit("fi_window_open", thread_id=thread_id)
        elif existing is not None:
            existing.settle(core.committed)
            window = {
                "thread_id": existing.thread_id,
                "committed": existing.committed,
                "ticks": self.clock() - existing.activation_tick,
                "stage_counts": {s.value: c for s, c
                                 in existing.stage_counts.items()},
            }
            self.windows.append(window)
            if self.bus is not None:
                self.bus.emit("fi_window_close",
                              thread_id=existing.thread_id,
                              committed=window["committed"],
                              ticks=window["ticks"])
        return thread is not None

    def on_context_switch(self, core, pcb_addr: int) -> None:
        """The kernel switched threads on *core*: refresh the core's
        ThreadEnabledFault pointer so the per-instruction path does not
        need a hash lookup (Section III.C), and settle the outgoing
        thread's lazily-accumulated instruction count."""
        outgoing = core.fi_thread
        if outgoing is not None:
            outgoing.settle(core.committed)
        if self.tracer is not None and self.tracer.started:
            # Register state swaps under the trace's feet: pruning
            # verdicts over a multithreaded window would be unsound.
            self.tracer.context_switches += 1
        incoming = self.threads.lookup(pcb_addr)
        if incoming is not None:
            incoming.base_committed = core.committed
        core.fi_thread = incoming

    # -- per-stage hooks --------------------------------------------------------

    def on_fetch(self, core, thread: ThreadEnabledFault, pc: int,
                 word: int) -> int:
        thread.bump(Stage.FETCH)
        count = thread.effective_committed(core.committed) + 1
        queue = self.queues.queue(Stage.FETCH)
        for hit in queue.due(thread, count, self.clock(), core.name):
            before = word
            word = hit.fault.behavior.apply(word, width=32)
            record = self._record(
                hit.fault, pc, count, before, word,
                asm=disasm.disassemble_word(before, pc),
                detail="fetched instruction word")
            record.propagated = not same_semantics(before, word)
            self._resolve(record)
        if queue.empty:
            self.hot_fetch = False
            self.frontend_hot = (self.hot_decode or self.has_watches)
        return word

    def on_decode(self, core, thread: ThreadEnabledFault, pc: int,
                  decoded: Decoded) -> Decoded:
        thread.bump(Stage.DECODE)
        count = thread.effective_committed(core.committed) + 1
        queue = self.queues.queue(Stage.DECODE)
        for hit in queue.due(thread, count, self.clock(), core.name):
            fault = hit.fault
            fields = (decoded.src_reg_fields()
                      if fault.operand_role == "src"
                      else decoded.dest_reg_fields())
            if not fields:
                self._record(fault, pc, count, None, None,
                             asm=disasm.disassemble(decoded, pc),
                             detail="no register selection at this "
                                    "instruction; fault had no effect")
                continue
            attr = fields[fault.operand_index % len(fields)]
            before = getattr(decoded, attr)
            after = fault.behavior.apply(before, width=5)
            decoded = decoded.copy()
            setattr(decoded, attr, after)
            record = self._record(
                fault, pc, count, before, after,
                asm=disasm.disassemble(decoded, pc),
                detail=f"decode {fault.operand_role} selection "
                       f"'{attr}' {before} -> {after}")
            record.propagated = before != after
            self._resolve(record)
        if queue.empty:
            self.hot_decode = False
            self.frontend_hot = (self.hot_fetch or self.has_watches)
        return decoded

    def on_execute(self, core, thread: ThreadEnabledFault, pc: int,
                   decoded: Decoded, result: int, width: int = 64) -> int:
        thread.bump(Stage.EXECUTE)
        count = thread.effective_committed(core.committed) + 1
        queue = self.queues.queue(Stage.EXECUTE)
        for hit in queue.due(thread, count, self.clock(), core.name):
            before = result
            result = hit.fault.behavior.apply(result, width=width)
            what = ("effective address" if decoded.is_mem()
                    else "execution result")
            record = self._record(hit.fault, pc, count, before, result,
                                  asm=disasm.disassemble(decoded, pc),
                                  detail=what)
            record.propagated = before != result
            self._resolve(record)
        if queue.empty:
            self.hot_execute = False
        return result

    def on_mem(self, core, thread: ThreadEnabledFault, pc: int,
               decoded: Decoded, value: int, is_load: bool,
               width: int = 64) -> int:
        thread.bump(Stage.MEM)
        count = thread.effective_committed(core.committed) + 1
        queue = self.queues.queue(Stage.MEM)
        for hit in queue.due(thread, count, self.clock(), core.name):
            before = value
            value = hit.fault.behavior.apply(value, width=width)
            record = self._record(hit.fault, pc, count, before, value,
                                  asm=disasm.disassemble(decoded, pc),
                                  detail="loaded value" if is_load
                                         else "stored value")
            record.propagated = before != value
            self._resolve(record)
        if queue.empty:
            self.hot_mem = False
        return value

    def on_commit(self, core, thread: ThreadEnabledFault, pc: int) -> bool:
        """Instruction boundary (invoked only while register-file/PC
        faults are hot): apply due faults directly to the architectural
        state.  Returns True when the PC was corrupted (pipelined models
        must re-steer/squash)."""
        thread.bump(Stage.REGFILE)
        count = thread.effective_committed(core.committed)
        queue = self.queues.queue(Stage.REGFILE)
        if queue.empty:
            self.hot_regfile = False
            return False
        pc_changed = False
        for hit in queue.due(thread, count, self.clock(), core.name):
            fault = hit.fault
            arch = core.arch
            if fault.location is LocationKind.INT_REG:
                before = arch.intregs.peek(fault.reg_index)
                after = fault.behavior.apply(before)
                arch.intregs.poke(fault.reg_index, after)
                detail = f"int register r{fault.reg_index}"
            elif fault.location is LocationKind.FP_REG:
                before = arch.fpregs.peek(fault.reg_index)
                after = fault.behavior.apply(before)
                arch.fpregs.poke(fault.reg_index, after)
                detail = f"fp register f{fault.reg_index}"
            else:  # PC
                before = arch.pc
                after = fault.behavior.apply(before)
                arch.pc = after
                detail = "program counter"
                pc_changed = True
            record = self._record(fault, pc, count, before, after,
                                  asm="", detail=detail)
            if fault.location is LocationKind.PC:
                record.propagated = True
                self._resolve(record)
            elif before == after:
                record.propagated = False
                self._resolve(record)
            else:
                cls = ("int" if fault.location is LocationKind.INT_REG
                       else "fp")
                self._watches[(cls, fault.reg_index)] = record
                self.has_watches = True
                self.frontend_hot = True
        return pc_changed

    # -- campaign conveniences ---------------------------------------------------

    @property
    def injection_happened(self) -> bool:
        return bool(self.records)

    @property
    def all_faults_done(self) -> bool:
        """True once every configured fault has fired and expired — the
        signal to switch from the detailed to the atomic CPU model."""
        return self.queues.all_exhausted

    def observe(self, decoded: Decoded) -> None:
        """Propagation tracking: called (only while watches are live)
        for each architecturally-executed instruction.  A corrupted
        register that is *read* propagated; one that is overwritten
        first did not (the paper's non-propagated class)."""
        for key in list(self._watches):
            record = self._watches[key]
            if key in decoded.src_regs():
                record.propagated = True
            elif key in decoded.dest_regs():
                record.propagated = False
            else:
                continue
            self._resolve(record)
            del self._watches[key]
        self.has_watches = bool(self._watches)
        if not self.has_watches:
            self.frontend_hot = self.hot_fetch or self.hot_decode

    def _record(self, fault: Fault, pc: int, count: int,
                before: int | None, after: int | None, asm: str,
                detail: str) -> InjectionRecord:
        record = InjectionRecord(
            fault=fault, tick=self.clock(), instruction_count=count,
            pc=pc, asm=asm, detail=detail, before=before, after=after)
        self.records.append(record)
        now = time.perf_counter()
        if self.first_injection_host is None:
            self.first_injection_host = now
        self.last_injection_host = now
        if self.bus is not None:
            self.bus.emit(
                "fault_injected", tick=record.tick,
                fault=fault.describe(), pc=pc, detail=detail,
                instruction_count=count, before=before, after=after)
        return record

    def _resolve(self, record: InjectionRecord) -> None:
        """A record's propagated/masked verdict just became known:
        stamp the divergence-resolution tick and publish the event."""
        record.resolved_tick = self.clock()
        if self.bus is not None:
            self.bus.emit(
                "fault_propagated" if record.propagated
                else "fault_masked",
                fault=record.fault.describe(), pc=record.pc,
                injected_tick=record.tick)
