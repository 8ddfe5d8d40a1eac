"""Fault-site liveness analysis over a def-use trace.

Given the golden run's :class:`~repro.analysis.trace.DefUseTracer`
output, :class:`LivenessAnalysis` classifies any candidate SEU fault
site ``(location, time, bit)`` as **provably masked** or **live**.  A
site is provably masked only when the trace shows the corrupted value
can never reach an architecturally observable output:

* ``never_triggers`` — the fault's time lies beyond the last eligible
  pipeline transaction of its stage queue, so it never fires at all.
* ``zero_register`` — R31/F31 storage: ``read()`` always returns zero,
  so a poked bit is invisible (the flip still *fires* and is watched,
  which decides the predicted propagated flag).
* ``dead_register`` / ``overwritten_register`` — the struck register is
  never accessed again, or its next access is a write (the paper's
  Section IV.B.2 dead-register discussion).
* ``unused_encoding_bits`` — a fetch-stage flip in bits the Table I
  format ignores: both words decode to identical semantics.
* ``no_operand_fields`` — a decode-stage fault at an instruction with no
  register-selection field for the requested role (the injector logs the
  hit and drops it).
* ``dead_destination`` — a decode-stage *dst* flip that redirects a
  write between two registers that are both dead or overwritten before
  their next read.
* ``bit_out_of_range`` — the flipped bit exceeds the corrupted value's
  width (``Behavior.apply`` skips it; e.g. bit 40 of a 4-byte store).
* ``discarded_write`` / ``dead_result`` / ``overwritten_result`` — an
  execute- or load-value corruption whose destination register is R31,
  never read again, or overwritten first.
* ``overwritten_store`` — a corrupted store byte rewritten by a later
  store before any load or syscall can observe it.
* ``equal_value_source`` — a fetch/decode flip that redirects one
  *source* register selection to a register holding the **same value**
  at that instruction (the trace records post-commit write values plus
  the initial register files, so both operands' values are known):
  execution is bit-identical downstream.

Everything else is LIVE.

Soundness notes: the analysis refuses to prune (classifies everything
LIVE) when the trace is tainted — context switches or overflow — and
predictions for FETCH/DECODE sites assume the in-order frontends (the
campaign default); the O3 frontend fetches along speculative paths with
different stage counts.  The final ``exit`` syscall never commits (the
process unwinds mid-execute), so an implicit exit barrier that reads
``v0``/``a0`` is appended at trace end — a corrupted register feeding
the exit code is correctly LIVE (the dispatcher's unconditional
``a1``/``a2`` loads are discarded by exit, so they are not part of the
barrier).  Memory that is never accessed again is *not* dead: final
memory is where campaign outputs are extracted from.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from ..core.fault import BehaviorKind, Fault, LocationKind, TimeMode
from ..core.injector import same_semantics
from ..isa.instructions import (
    KIND_FLOAD,
    KIND_FSTORE,
    KIND_LOAD,
    KIND_STORE,
    decode as decode_word,
)
from ..isa.traps import IllegalInstruction
from .trace import DefUseTracer, EXIT_REG_READS

LIVE = "live"
MASKED_NEVER_TRIGGERS = "never_triggers"
MASKED_ZERO_REGISTER = "zero_register"
MASKED_DEAD_REGISTER = "dead_register"
MASKED_OVERWRITTEN_REGISTER = "overwritten_register"
MASKED_UNUSED_ENCODING_BITS = "unused_encoding_bits"
MASKED_NO_OPERAND_FIELDS = "no_operand_fields"
MASKED_DEAD_DESTINATION = "dead_destination"
MASKED_BIT_OUT_OF_RANGE = "bit_out_of_range"
MASKED_DISCARDED_WRITE = "discarded_write"
MASKED_DEAD_RESULT = "dead_result"
MASKED_OVERWRITTEN_RESULT = "overwritten_result"
MASKED_OVERWRITTEN_STORE = "overwritten_store"
MASKED_EQUAL_VALUE_SOURCE = "equal_value_source"

MASK_REASONS = (
    MASKED_NEVER_TRIGGERS, MASKED_ZERO_REGISTER, MASKED_DEAD_REGISTER,
    MASKED_OVERWRITTEN_REGISTER, MASKED_UNUSED_ENCODING_BITS,
    MASKED_NO_OPERAND_FIELDS, MASKED_DEAD_DESTINATION,
    MASKED_BIT_OUT_OF_RANGE, MASKED_DISCARDED_WRITE, MASKED_DEAD_RESULT,
    MASKED_OVERWRITTEN_RESULT, MASKED_OVERWRITTEN_STORE,
    MASKED_EQUAL_VALUE_SOURCE,
)

# Kinds whose execute stage invokes on_execute (result or effective
# address corruption) and whose mem stage invokes on_mem.
from ..isa.instructions import (  # noqa: E402  (grouped for readability)
    KIND_ALU, KIND_CMOV, KIND_FCMOV, KIND_FPALU, KIND_FTOI, KIND_ITOF,
    KIND_LDA,
)

MEM_KINDS = frozenset((KIND_LOAD, KIND_STORE, KIND_FLOAD, KIND_FSTORE))
EXECUTE_KINDS = frozenset((KIND_ALU, KIND_CMOV, KIND_FPALU, KIND_FCMOV,
                           KIND_ITOF, KIND_FTOI, KIND_LDA)) | MEM_KINDS

_READ = 1
_WRITE = 2


@dataclass(frozen=True)
class SiteVerdict:
    """Classification of one candidate fault site."""

    masked: bool
    reason: str                    # LIVE or one of MASK_REASONS
    propagated: bool = False       # predicted InjectionRecord.propagated
    injected: bool = True          # predicted "the fault actually fired"

    @property
    def live(self) -> bool:
        return not self.masked


class LivenessAnalysis:
    """Index a def-use trace for O(log n) per-site classification."""

    def __init__(self, trace: DefUseTracer) -> None:
        self.trace = trace
        self.events = trace.events
        self.tainted = trace.tainted
        # window[k-1] = trace index of the k-th FI-window instruction.
        self._window: list[int] = []
        # Per-register access streams: (cls, reg) -> sorted trace
        # indices + parallel read/write bitmask codes.
        self._reg_gidx: dict[tuple[str, int], list[int]] = {}
        self._reg_code: dict[tuple[str, int], list[int]] = {}
        # Window positions (and trace indices) of stage-eligible events.
        self._exec_widx: list[int] = []
        self._exec_gidx: list[int] = []
        self._mem_widx: list[int] = []
        self._mem_gidx: list[int] = []
        # Whole-trace memory transaction stream for store-byte scans.
        self._mem_scan: list[tuple[int, int, int, bool, bool]] = []
        self._mem_scan_gidx: list[int] = []
        # Per-register value timelines (post-commit write samples) for
        # the equal-value source rule; disabled when the trace carries
        # no values (events recorded without a core).
        self._val_gidx: dict[tuple[str, int], list[int]] = {}
        self._val: dict[tuple[str, int], list[int]] = {}
        self._values_ok = trace.initial_regs is not None
        self._build()

    # -- index construction ----------------------------------------------------

    def _build(self) -> None:
        expected = 1
        for gidx, event in enumerate(self.events):
            widx = event.window_index
            if widx is not None:
                if widx != expected:
                    # Second window / reordered indices: refuse to prune.
                    self.tainted = True
                    return
                expected += 1
                self._window.append(gidx)
                if event.kind in EXECUTE_KINDS:
                    self._exec_widx.append(widx)
                    self._exec_gidx.append(gidx)
                if event.kind in MEM_KINDS:
                    self._mem_widx.append(widx)
                    self._mem_gidx.append(gidx)
            codes: dict[tuple[str, int], int] = {}
            for key in event.reads:
                codes[key] = codes.get(key, 0) | _READ
            for key in event.writes:
                codes[key] = codes.get(key, 0) | _WRITE
            for key, code in codes.items():
                self._reg_gidx.setdefault(key, []).append(gidx)
                self._reg_code.setdefault(key, []).append(code)
            if event.writes:
                if len(event.write_values) == len(event.writes):
                    for key, value in zip(event.writes,
                                          event.write_values):
                        self._val_gidx.setdefault(key, []).append(gidx)
                        self._val.setdefault(key, []).append(value)
                else:
                    self._values_ok = False
            if event.is_syscall or event.mem_addr is not None:
                addr = event.mem_addr if event.mem_addr is not None else 0
                self._mem_scan.append((gidx, addr, event.mem_size,
                                       event.is_load, event.is_syscall))
                self._mem_scan_gidx.append(gidx)
        # Implicit exit barrier: the final exit() syscall unwinds the
        # instruction before it can commit, so its register reads (v0
        # selects the syscall, a0 is the exit code; a1/a2 are loaded by
        # the dispatcher but discarded) are appended synthetically at
        # trace end.
        exit_gidx = len(self.events)
        for key in EXIT_REG_READS:
            self._reg_gidx.setdefault(key, []).append(exit_gidx)
            self._reg_code.setdefault(key, []).append(_READ)

    # -- scan primitives -------------------------------------------------------

    def _first_access(self, cls: str, reg: int, after_gidx: int
                      ) -> tuple[int | None, int]:
        """(trace index, read/write code) of the first access to
        ``(cls, reg)`` strictly after *after_gidx*; (None, 0) if none."""
        gidxs = self._reg_gidx.get((cls, reg))
        if not gidxs:
            return None, 0
        i = bisect_right(gidxs, after_gidx)
        if i == len(gidxs):
            return None, 0
        return gidxs[i], self._reg_code[(cls, reg)][i]

    def _dead_or_overwritten(self, cls: str, reg: int,
                             after_gidx: int) -> str | None:
        """MASKED reason if ``(cls, reg)``'s value after *after_gidx* can
        never be read (never accessed, or overwritten first)."""
        gidx, code = self._first_access(cls, reg, after_gidx)
        if gidx is None:
            return MASKED_DEAD_RESULT
        if code & _READ:
            return None
        return MASKED_OVERWRITTEN_RESULT

    def _watch_propagated(self, cls: str, reg: int,
                          strike_gidx: int) -> bool:
        """Predict the propagation watch set by a register-file fault:
        ``observe()`` runs only for FI-window instructions, marks
        propagated on a source read and clears it on a destination
        write (reads win inside one instruction)."""
        if not self._window:
            return False
        end_gidx = self._window[-1]
        gidx, code = self._first_access(cls, reg, strike_gidx)
        if gidx is None or gidx > end_gidx:
            return False
        return bool(code & _READ)

    def _value_before(self, cls: str, reg: int,
                      gidx: int) -> int | None:
        """Raw bits ``(cls, reg)`` holds when event *gidx* issues its
        reads (= the last write sample strictly before it, else the
        initial register file); None when unknown."""
        if reg == 31:
            return 0          # read() pins the zero register
        key = (cls, reg)
        gidxs = self._val_gidx.get(key)
        if gidxs:
            i = bisect_left(gidxs, gidx)
            if i > 0:
                return self._val[key][i - 1]
        initial = self.trace.initial_regs
        return initial.get(key) if initial is not None else None

    def _equal_value_redirect(self, decoded, attr: str, old: int,
                              new: int, strike: int) -> bool:
        """True iff redirecting *source* field *attr* from register
        *old* to *new* provably reads the same value — execution is then
        bit-identical downstream.  CMOV-style fields that double as the
        destination are never eligible (the write moves too)."""
        if not self._values_ok:
            return False
        srcs = decoded.src_reg_fields()
        if attr not in srcs or attr in decoded.dest_reg_fields():
            return False
        cls = decoded.src_regs()[srcs.index(attr)][0]
        v_old = self._value_before(cls, old, strike)
        v_new = self._value_before(cls, new, strike)
        return v_old is not None and v_new is not None and v_old == v_new

    def _strike_event(self, t: int, n: int) -> int | None:
        """Trace index of the FI-window commit slot *t* (1-based).  Slot
        ``n + 1`` is the deactivating ``fi_activate_inst`` itself, whose
        commit still runs the regfile/fetch hooks."""
        if t <= n:
            return self._window[t - 1]
        gidx = self._window[-1] + 1
        return gidx if gidx < len(self.events) else None

    # -- classification --------------------------------------------------------

    def classify(self, fault: Fault) -> SiteVerdict:
        """Classify one fault.  Only the campaign SEU shape (one flipped
        bit, occ=1, instruction-counted time) is analysed; anything else
        is conservatively LIVE."""
        if self.tainted or not self._window:
            return SiteVerdict(False, LIVE)
        behavior = fault.behavior
        if (fault.time_mode is not TimeMode.INSTRUCTIONS
                or behavior.kind is not BehaviorKind.FLIP
                or len(behavior.bits) != 1 or behavior.occ != 1):
            return SiteVerdict(False, LIVE)
        bit = behavior.bits[0]
        t = max(1, fault.time)
        n = len(self._window)
        loc = fault.location
        if loc in (LocationKind.INT_REG, LocationKind.FP_REG):
            return self._classify_register(fault, loc, t, bit, n)
        if loc is LocationKind.FETCH:
            return self._classify_fetch(t, bit, n)
        if loc is LocationKind.DECODE:
            return self._classify_decode(fault, t, bit, n)
        if loc is LocationKind.EXECUTE:
            return self._classify_execute(t, bit, n)
        if loc is LocationKind.MEM:
            return self._classify_mem(t, bit, n)
        return SiteVerdict(False, LIVE)  # PC faults always redirect

    def _classify_register(self, fault: Fault, loc: LocationKind,
                           t: int, bit: int, n: int) -> SiteVerdict:
        if t > n + 1:
            return SiteVerdict(True, MASKED_NEVER_TRIGGERS,
                               injected=False)
        strike = self._strike_event(t, n)
        if strike is None:
            return SiteVerdict(False, LIVE)
        if bit >= 64:
            return SiteVerdict(True, MASKED_BIT_OUT_OF_RANGE)
        cls = "int" if loc is LocationKind.INT_REG else "fp"
        reg = fault.reg_index
        if not 0 <= reg < 32:
            return SiteVerdict(False, LIVE)
        if reg == 31:
            # poke() corrupts the raw slot but read() pins it to zero.
            return SiteVerdict(
                True, MASKED_ZERO_REGISTER,
                propagated=self._watch_propagated(cls, reg, strike))
        gidx, code = self._first_access(cls, reg, strike)
        if gidx is None:
            return SiteVerdict(True, MASKED_DEAD_REGISTER)
        if code & _READ:
            return SiteVerdict(False, LIVE)
        return SiteVerdict(True, MASKED_OVERWRITTEN_REGISTER)

    def _classify_fetch(self, t: int, bit: int, n: int) -> SiteVerdict:
        if t > n + 1:
            return SiteVerdict(True, MASKED_NEVER_TRIGGERS,
                               injected=False)
        strike = self._strike_event(t, n)
        if strike is None:
            return SiteVerdict(False, LIVE)
        if bit >= 32:
            return SiteVerdict(True, MASKED_BIT_OUT_OF_RANGE)
        word = self.events[strike].word
        corrupted = word ^ (1 << bit)
        if same_semantics(word, corrupted):
            return SiteVerdict(True, MASKED_UNUSED_ENCODING_BITS)
        verdict = self._fetch_redirect(word, corrupted, strike)
        if verdict is not None:
            return verdict
        return SiteVerdict(False, LIVE)

    def _fetch_redirect(self, word: int, corrupted: int,
                        strike: int) -> SiteVerdict | None:
        """A fetch flip whose only decode-level effect is moving one
        register-selection field: masked like the matching decode-stage
        fault (equal-value source read, or dead-destination write).
        ``record.propagated`` is True either way — the words differ."""
        try:
            d0 = decode_word(word)
            d1 = decode_word(corrupted)
        except IllegalInstruction:
            return None
        if (d0.name != d1.name or d0.kind != d1.kind or d0.op != d1.op
                or d0.lit != d1.lit or d0.disp != d1.disp
                or d0.func != d1.func or d0.size != d1.size
                or d0.signed != d1.signed):
            return None
        diffs = [a for a in ("ra", "rb", "rc")
                 if getattr(d0, a) != getattr(d1, a)]
        if len(diffs) != 1:
            return None
        attr = diffs[0]
        old, new = getattr(d0, attr), getattr(d1, attr)
        if self._equal_value_redirect(d0, attr, old, new, strike):
            return SiteVerdict(True, MASKED_EQUAL_VALUE_SOURCE,
                               propagated=True)
        if attr in d0.dest_reg_fields() \
                and attr not in d0.src_reg_fields():
            cls = d0.dest_regs()[0][0]
            old_ok = old == 31 or \
                self._dead_or_overwritten(cls, old, strike) is not None
            new_ok = new == 31 or \
                self._dead_or_overwritten(cls, new, strike) is not None
            if old_ok and new_ok:
                return SiteVerdict(True, MASKED_DEAD_DESTINATION,
                                   propagated=True)
        return None

    def _classify_decode(self, fault: Fault, t: int, bit: int,
                         n: int) -> SiteVerdict:
        if t > n + 1:
            return SiteVerdict(True, MASKED_NEVER_TRIGGERS,
                               injected=False)
        strike = self._strike_event(t, n)
        if strike is None:
            return SiteVerdict(False, LIVE)
        try:
            decoded = decode_word(self.events[strike].word)
        except IllegalInstruction:  # pragma: no cover - committed words
            return SiteVerdict(False, LIVE)
        fields = (decoded.src_reg_fields() if fault.operand_role == "src"
                  else decoded.dest_reg_fields())
        if not fields:
            # The injector records the hit and drops it.
            return SiteVerdict(True, MASKED_NO_OPERAND_FIELDS)
        if bit >= 5:
            return SiteVerdict(True, MASKED_BIT_OUT_OF_RANGE)
        if fault.operand_role == "src":
            attr = fields[fault.operand_index % len(fields)]
            old = getattr(decoded, attr)
            if self._equal_value_redirect(decoded, attr, old,
                                          old ^ (1 << bit), strike):
                return SiteVerdict(True, MASKED_EQUAL_VALUE_SOURCE,
                                   propagated=True)
            return SiteVerdict(False, LIVE)
        # dst flip: the write is redirected from `old` to `new`.  Masked
        # iff neither register's next access is a read — the stale value
        # left in `old` and the clobbered value in `new` both vanish.
        attr = fields[fault.operand_index % len(fields)]
        old = getattr(decoded, attr)
        new = old ^ (1 << bit)
        cls = decoded.dest_regs()[0][0]
        old_ok = old == 31 or \
            self._dead_or_overwritten(cls, old, strike) is not None
        new_ok = new == 31 or \
            self._dead_or_overwritten(cls, new, strike) is not None
        if old_ok and new_ok:
            return SiteVerdict(True, MASKED_DEAD_DESTINATION,
                               propagated=True)
        return SiteVerdict(False, LIVE)

    def _classify_execute(self, t: int, bit: int, n: int) -> SiteVerdict:
        i = bisect_left(self._exec_widx, t)
        if i == len(self._exec_widx):
            return SiteVerdict(True, MASKED_NEVER_TRIGGERS,
                               injected=False)
        gidx = self._exec_gidx[i]
        event = self.events[gidx]
        if bit >= 64:
            return SiteVerdict(True, MASKED_BIT_OUT_OF_RANGE)
        if event.kind in MEM_KINDS:
            # Effective-address corruption: always live.
            return SiteVerdict(False, LIVE)
        cls, dest = event.writes[0]
        if dest == 31:
            return SiteVerdict(True, MASKED_DISCARDED_WRITE,
                               propagated=True)
        reason = self._dead_or_overwritten(cls, dest, gidx)
        if reason is not None:
            return SiteVerdict(True, reason, propagated=True)
        return SiteVerdict(False, LIVE)

    def _classify_mem(self, t: int, bit: int, n: int) -> SiteVerdict:
        i = bisect_left(self._mem_widx, t)
        if i == len(self._mem_widx):
            return SiteVerdict(True, MASKED_NEVER_TRIGGERS,
                               injected=False)
        gidx = self._mem_gidx[i]
        event = self.events[gidx]
        if bit >= 8 * event.mem_size:
            return SiteVerdict(True, MASKED_BIT_OUT_OF_RANGE)
        if event.is_load:
            cls, dest = event.writes[0]
            if dest == 31:
                return SiteVerdict(True, MASKED_DISCARDED_WRITE,
                                   propagated=True)
            reason = self._dead_or_overwritten(cls, dest, gidx)
            if reason is not None:
                return SiteVerdict(True, reason, propagated=True)
            return SiteVerdict(False, LIVE)
        # Store-value corruption of one byte of memory.
        byte_addr = event.mem_addr + bit // 8
        if self._store_byte_masked(byte_addr, gidx):
            return SiteVerdict(True, MASKED_OVERWRITTEN_STORE,
                               propagated=True)
        return SiteVerdict(False, LIVE)

    def _store_byte_masked(self, byte_addr: int, gidx: int) -> bool:
        """True iff the byte at *byte_addr* is rewritten by a later
        store before any load or syscall (a memory-read barrier) can
        observe it.  Memory never touched again stays LIVE — final
        memory is where campaign outputs are extracted."""
        i = bisect_right(self._mem_scan_gidx, gidx)
        for j in range(i, len(self._mem_scan)):
            _, addr, size, is_load, is_syscall = self._mem_scan[j]
            if is_syscall:
                return False
            if addr <= byte_addr < addr + size:
                return not is_load
        return False

    # -- summaries -------------------------------------------------------------

    def window_length(self) -> int:
        return len(self._window)
