"""O3 CPU model: speculative, superscalar, out-of-order timing.

The front end fetches and decodes along the *predicted* path (tournament
predictor + BTB + RAS) into a reorder buffer.  GemFI's fetch- and
decode-stage hooks fire at front-end time, so faults can land on
wrong-path instructions and be absorbed when the branch resolves — the
squash behaviour the paper's methodology depends on ("the simulation
continues until the affected instruction commits or squashes").

The back end executes architecturally *at commit*, in program order, so
functional results are bit-identical to AtomicSimple; out-of-orderness is
captured by a dataflow scoreboard (per-register ready cycles, per-class
latencies, commit width) that determines how many instructions retire per
cycle.  Mispredicted branches squash all younger in-flight entries and
pay a redirect penalty.
"""

from __future__ import annotations

from ..isa import instructions as ins
from ..isa.disasm import disassemble
from ..isa.registers import MASK64
from ..isa.traps import SimTrap
from .base import Core, StepResult
from .branch_pred import TournamentPredictor
from .inorder import op_latency

_FRONTEND_DEPTH = 3      # fetch-to-issue pipeline stages
_MISPREDICT_PENALTY = 8  # redirect bubbles


class _Entry:
    """One reorder-buffer slot."""

    __slots__ = ("pc", "decoded", "pred_next", "fetch_cycle",
                 "exception", "serializing", "result", "complete", "seq")

    def __init__(self, pc: int, decoded, pred_next: int,
                 fetch_cycle: int, exception: SimTrap | None = None,
                 serializing: bool = False, seq: int = 0) -> None:
        self.pc = pc
        self.decoded = decoded
        self.pred_next = pred_next
        self.fetch_cycle = fetch_cycle
        self.exception = exception
        self.serializing = serializing
        self.result = None       # cached execution outcome (execute once)
        self.complete = 0        # scoreboard completion cycle
        self.seq = seq           # lifetime fetch order (gemfi pipeview)


class O3CPU:
    """Out-of-order model with speculation and squash."""

    model_name = "o3"

    def __init__(self, core: Core, rob_size: int = 64,
                 fetch_width: int = 4, commit_width: int = 4,
                 predictor: TournamentPredictor | None = None) -> None:
        self.core = core
        self.rob_size = rob_size
        self.fetch_width = fetch_width
        self.commit_width = commit_width
        self.predictor = predictor or TournamentPredictor()
        self.cycle = 0
        self.rob: list[_Entry] = []
        self.fetch_pc = None        # None = follow arch.pc
        self.fetch_stall_until = 0
        self.fetch_blocked = False  # waiting on a serializing instruction
        self.reg_ready: dict[tuple[str, int], int] = {}
        self.squashed_instructions = 0
        self.rob_hwm = 0            # ROB occupancy high-water mark
        self.rename_stalls = 0      # cycles the frontend found the ROB full
        self.fetch_seq = 0          # lifetime fetch counter (pipeview ids)

    def _next_seq(self) -> int:
        self.fetch_seq += 1
        return self.fetch_seq

    # -- the per-cycle step -------------------------------------------------------

    def step(self) -> tuple[int, int]:
        """Advance at least one cycle; returns (ticks, committed).

        The cycle counter can jump forward when the ROB head needs
        several cycles to complete; the jump is reported in ``ticks`` so
        the simulator's global tick clock stays aligned.
        """
        start = self.cycle
        self.cycle += 1
        self._frontend()
        if len(self.rob) > self.rob_hwm:
            self.rob_hwm = len(self.rob)
        committed = self._commit()
        return self.cycle - start, committed

    # -- front end ------------------------------------------------------------------

    def _frontend(self) -> None:
        core = self.core
        if self.fetch_blocked or self.cycle < self.fetch_stall_until:
            return
        if len(self.rob) >= self.rob_size:
            self.rename_stalls += 1
            return
        if self.fetch_pc is None:
            self.fetch_pc = core.arch.pc
        fi_thread = core.fi_thread
        inj = core.injector if fi_thread is not None else None

        fetched = 0
        while fetched < self.fetch_width and len(self.rob) < self.rob_size:
            pc = self.fetch_pc & MASK64
            try:
                word, fetch_lat = core.hier.fetch(pc)
            except SimTrap as trap:
                # Deferred: the fault only matters if this entry commits.
                self.rob.append(_Entry(pc, None, pc + 4, self.cycle,
                                       exception=trap,
                                       seq=self._next_seq()))
                self.fetch_blocked = True
                return
            if fetch_lat > 1:
                self.fetch_stall_until = self.cycle + fetch_lat - 1
            if inj is not None and inj.hot_fetch:
                word = inj.on_fetch(core, fi_thread, pc, word)
            try:
                decoded = core.decode_cache.decode(word)
            except SimTrap as trap:
                self.rob.append(_Entry(pc, None, pc + 4, self.cycle,
                                       exception=trap,
                                       seq=self._next_seq()))
                self.fetch_blocked = True
                return
            if inj is not None and inj.hot_decode:
                decoded = inj.on_decode(core, fi_thread, pc, decoded)

            serializing = decoded.kind in (ins.KIND_PAL, ins.KIND_FI)
            if decoded.is_control():
                _, pred_next = self.predictor.predict(pc, decoded)
            else:
                pred_next = pc + 4
            self.rob.append(_Entry(pc, decoded, pred_next & MASK64,
                                   self.cycle, serializing=serializing,
                                   seq=self._next_seq()))
            self.fetch_pc = pred_next & MASK64
            fetched += 1
            if serializing:
                self.fetch_blocked = True
                return
            if fetch_lat > 1:
                return  # icache miss: group ends here

    # -- back end -------------------------------------------------------------------

    def _commit(self) -> int:
        core = self.core
        committed = 0
        while committed < self.commit_width and self.rob:
            entry = self.rob[0]
            if entry.exception is not None:
                # The faulting fetch/decode reached the commit point:
                # the exception becomes architectural.
                raise entry.exception
            decoded = entry.decoded
            fi_thread = core.fi_thread
            inj = core.injector if fi_thread is not None else None

            if entry.result is None:
                # Dataflow scoreboard: when can this instruction complete?
                ready = entry.fetch_cycle + _FRONTEND_DEPTH
                for src in decoded.src_regs():
                    ready = max(ready, self.reg_ready.get(src, 0))
                # Architectural execution happens exactly once, at the
                # head of the ROB, in program order.
                entry.result = core.execute(decoded, entry.pc, timing=True)
                entry.complete = max(ready, self.cycle) + \
                    max(op_latency(decoded), entry.result.ticks) - 1
            if entry.complete > self.cycle:
                if committed:
                    break  # retire the rest on a later cycle
                self.cycle = entry.complete
            result = entry.result
            self._retire(entry, result, inj, fi_thread)
            committed += 1
            if decoded.is_control() or entry.serializing:
                redirect = self._resolve_control(entry, result)
                if redirect:
                    break
        return committed

    def _retire(self, entry: _Entry, result, inj, fi_thread) -> None:
        core = self.core
        decoded = entry.decoded
        if inj is not None and inj.has_watches:
            inj.observe(decoded)
        for dest in decoded.dest_regs():
            self.reg_ready[dest] = entry.complete
        core.arch.pc = result.next_pc
        core.committed += 1
        inj_all = core.injector
        if inj_all is not None and inj_all.trace_hot:
            inj_all.on_trace(core, entry.pc, decoded, result)
        bus = core.bus
        if bus is not None and bus.pipe_trace:
            bus.emit("pipe_inst", seq=entry.seq, pc=entry.pc,
                     fetch=entry.fetch_cycle, complete=entry.complete,
                     commit=self.cycle,
                     asm=disassemble(decoded, pc=entry.pc))
        if inj is not None and inj.hot_regfile:
            pc_changed = inj.on_commit(core, fi_thread, entry.pc)
            if pc_changed:
                # A PC fault at commit redirects the whole machine.
                self.squash()
                return
        self.rob.pop(0)

    def _resolve_control(self, entry: _Entry, result) -> bool:
        """Train the predictor; squash and redirect on mispredict.
        Returns True when the pipeline was redirected."""
        decoded = entry.decoded
        actual_next = self.core.arch.pc
        if decoded is not None and decoded.is_control():
            self.predictor.update(entry.pc, decoded, result.taken,
                                  actual_next, entry.pred_next)
        if entry.serializing:
            self.fetch_blocked = False
            self._redirect(actual_next, penalty=0)
            return True
        if actual_next != entry.pred_next:
            self._redirect(actual_next, penalty=_MISPREDICT_PENALTY)
            return True
        return False

    def _redirect(self, target: int, penalty: int) -> None:
        self._note_squash(self.rob, "mispredict")
        self.squashed_instructions += len(self.rob)
        self.rob.clear()
        self.fetch_pc = target & MASK64
        self.fetch_blocked = False
        self.fetch_stall_until = self.cycle + penalty

    def squash(self) -> None:
        """Flush every speculative instruction and refetch from the
        architectural PC (used for PC-fault redirects and model switch)."""
        self._note_squash(self.rob, "flush")
        self.squashed_instructions += len(self.rob)
        self.rob.clear()
        self.fetch_pc = None
        self.fetch_blocked = False

    def _note_squash(self, entries: list[_Entry], reason: str) -> None:
        if not entries:
            return
        bus = self.core.bus
        if bus is None:
            return
        bus.emit("cpu_squash", model=self.model_name,
                 squashed=len(entries), reason=reason)
        if bus.pipe_trace:
            for entry in entries:
                asm = ("" if entry.decoded is None
                       else disassemble(entry.decoded, pc=entry.pc))
                bus.emit("pipe_squash", seq=entry.seq, pc=entry.pc,
                         fetch=entry.fetch_cycle, squash=self.cycle,
                         reason=reason, asm=asm)

    def drain(self) -> None:
        """Flush speculative state before a model switch or preemption.

        The ROB head may already have *executed* (architectural side
        effects applied) while waiting out its completion latency; it
        must be retired — not discarded — or the instruction would
        re-execute after the flush and double-apply its effects.
        Younger entries never execute before reaching the head, so they
        are safe to squash.
        """
        if self.rob and self.rob[0].result is not None:
            entry = self.rob[0]
            core = self.core
            fi_thread = core.fi_thread
            inj = core.injector if fi_thread is not None else None
            self.cycle = max(self.cycle, entry.complete)
            self._retire(entry, entry.result, inj, fi_thread)
        bus = self.core.bus
        if bus is not None:
            bus.emit("cpu_drain", model=self.model_name)
        self.squash()

    # -- checkpoint -------------------------------------------------------------------

    def snapshot(self) -> dict:
        # Checkpoints drop the speculative state: a drained pipeline
        # restarts cleanly from the architectural PC (this mirrors the
        # pipeline-flush caveat of gem5 checkpointing, Section III.D).
        # Checkpoint-ladder rungs keep it too (:meth:`inflight`).
        return {
            "cycle": self.cycle,
            "squashed": self.squashed_instructions,
            "rob_hwm": self.rob_hwm,
            "rename_stalls": self.rename_stalls,
            "predictor": self.predictor.snapshot(),
        }

    def restore(self, snap: dict) -> None:
        self.cycle = snap["cycle"]
        self.squashed_instructions = snap["squashed"]
        self.rob_hwm = snap.get("rob_hwm", 0)
        self.rename_stalls = snap.get("rename_stalls", 0)
        self.predictor.restore(snap["predictor"])
        self.rob.clear()
        self.fetch_pc = None
        self.fetch_blocked = False
        self.fetch_stall_until = 0
        self.reg_ready.clear()

    # -- checkpoint-ladder rungs (repro.sim.checkpoint.rung_state) ---------------------

    @property
    def executed_ahead(self) -> int:
        """1 while the ROB head has executed and waits out its latency:
        its execute and mem hooks have already fired for the next
        instruction to commit."""
        return 1 if self.rob and self.rob[0].result is not None else 0

    def inflight(self) -> tuple:
        """What :meth:`snapshot` drops, as plain values: the ROB
        entries, the scoreboard and the fetch state.  A run resumed with
        them (:meth:`restore_inflight`) continues exactly as an unbroken
        one, and two pipelines are equal when their values are."""
        return (tuple(_entry_state(entry) for entry in self.rob),
                dict(self.reg_ready), self.fetch_pc,
                self.fetch_stall_until, self.fetch_blocked, self.fetch_seq)

    def restore_inflight(self, state: tuple) -> None:
        """Install :meth:`inflight` values (after :meth:`restore`); the
        values themselves are never mutated."""
        entries, reg_ready, self.fetch_pc, self.fetch_stall_until, \
            self.fetch_blocked, self.fetch_seq = state
        decode = self.core.decode_cache.decode
        self.rob = [_entry(decode, values) for values in entries]
        self.reg_ready = dict(reg_ready)


# An entry's instruction is its word plus the register selections a
# decode-stage fault may have rewritten; a deferred trap is its class,
# arguments and attributes; a cached result is its StepResult fields
# (O3 executes through Core.execute, whose result names no instruction).

def _entry_state(entry: _Entry) -> tuple:
    decoded, trap, result = entry.decoded, entry.exception, entry.result
    return (entry.pc,
            None if decoded is None
            else (decoded.word, decoded.ra, decoded.rb, decoded.rc),
            entry.pred_next, entry.fetch_cycle,
            None if trap is None
            else (type(trap), trap.args, dict(vars(trap))),
            entry.serializing,
            None if result is None
            else (result.ticks, result.pc, result.next_pc, result.taken,
                  result.is_branch, result.mem_addr),
            entry.complete, entry.seq)


def _entry(decode, values: tuple) -> _Entry:
    pc, instruction, pred_next, fetch_cycle, trap, serializing, result, \
        complete, seq = values
    decoded = None
    if instruction is not None:
        word, ra, rb, rc = instruction
        decoded = decode(word)
        if (decoded.ra, decoded.rb, decoded.rc) != (ra, rb, rc):
            decoded = decoded.copy()
            decoded.ra, decoded.rb, decoded.rc = ra, rb, rc
    exception = None
    if trap is not None:
        cls, args, attrs = trap
        exception = cls.__new__(cls, *args)
        exception.args = args
        exception.__dict__.update(attrs)
    entry = _Entry(pc, decoded, pred_next, fetch_cycle,
                   exception=exception, serializing=serializing, seq=seq)
    if result is not None:
        ticks, rpc, next_pc, taken, is_branch, mem_addr = result
        entry.result = StepResult(ticks, pc=rpc, next_pc=next_pc,
                                  taken=taken, is_branch=is_branch,
                                  mem_addr=mem_addr)
    entry.complete = complete
    return entry
