"""Fault-propagation flight recorder (golden-run divergence profiling).

ZOFI derives its whole coverage analysis from automated golden-vs-faulty
comparison; CHAOS tracks controlled propagation through gem5's
microarchitecture.  This module is the reproduction's equivalent of
both, built on the ``trace_hot`` commit hook that already serves
``repro.analysis``:

* a :class:`FlightRecorder` rides the golden replay and captures a
  compact per-interval **architectural-state digest** — the PC, a
  register-file checksum (plus the raw register files for attribution)
  and the committed **store log**;
* a :class:`DivergenceScanner` rides each faulty run, replays the digest
  stream and pins the **first architectural divergence**: the tick, the
  interval, the PC, the exact register or memory word that differs and
  its Hamming distance from the golden value.

Both implement the :class:`~repro.analysis.trace.DefUseTracer` hook
protocol (``started`` / ``capture_initial`` / ``record``), so they cost
nothing when not installed: CPU models test one ``trace_hot`` boolean
per committed instruction, exactly the Fig. 7 zero-overhead discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.instructions import KIND_FSTORE, KIND_STORE
from ..isa.registers import MASK64, fp_reg_name, int_reg_name

DEFAULT_INTERVAL = 32

_PRIME = 0x9E3779B97F4A7C15   # 64-bit golden-ratio multiplier


def regfile_checksum(regs: tuple[int, ...]) -> int:
    """Order-sensitive 64-bit checksum of a register-file snapshot."""
    acc = 0
    for value in regs:
        acc = ((acc ^ value) * _PRIME + 1) & MASK64
    return acc


def hamming(a: int, b: int) -> int:
    """Bit distance between two raw values."""
    return bin((a ^ b) & MASK64).count("1")


def register_label(slot: int) -> str:
    """Human name of digest slot *slot* (0..31 int, 32..63 fp)."""
    if slot < 32:
        return f"int {int_reg_name(slot)}"
    return f"fp {fp_reg_name(slot - 32)}"


@dataclass
class IntervalSample:
    """One per-interval digest entry of the golden flight log."""

    index: int          # interval number (0-based)
    count: int          # committed instructions since recording started
    window: int | None  # FI-window position of the boundary instruction
    tick: int
    pc: int             # next PC after the boundary instruction commits
    checksum: int
    regs: tuple[int, ...]   # 64 raw values: int r0..r31 then fp f0..f31


@dataclass
class StoreSample:
    """One committed store of the golden run (the store log)."""

    seq: int            # store number since recording started
    count: int          # committed instructions since recording started
    tick: int
    pc: int
    addr: int
    size: int
    value: int          # raw memory bytes actually written


@dataclass
class GoldenFlightLog:
    """The golden run's digest stream: intervals + store log."""

    interval: int = DEFAULT_INTERVAL
    intervals: list[IntervalSample] = field(default_factory=list)
    stores: list[StoreSample] = field(default_factory=list)
    instructions: int = 0

    def as_dict(self) -> dict:
        return {
            "interval": self.interval,
            "intervals": len(self.intervals),
            "stores": len(self.stores),
            "instructions": self.instructions,
        }


@dataclass
class Divergence:
    """The first architectural difference between a faulty run and the
    golden flight log."""

    kind: str                    # "register" | "memory" | "control"
    tick: int
    count: int                   # instructions since recording started
    window: int | None           # FI-window position, when inside it
    interval: int | None         # digest interval index, when boundary-found
    pc: int
    golden_pc: int | None = None
    location: str = ""           # e.g. "int s0", "fp f2", "mem 0x2040"
    golden_value: int | None = None
    faulty_value: int | None = None
    hamming_distance: int | None = None
    # Stamped by the campaign runner: divergence tick minus first
    # injection tick (the observable injection-to-divergence latency).
    latency: int | None = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "tick": self.tick,
            "count": self.count,
            "window": self.window,
            "interval": self.interval,
            "pc": self.pc,
            "golden_pc": self.golden_pc,
            "location": self.location,
            "golden_value": self.golden_value,
            "faulty_value": self.faulty_value,
            "hamming_distance": self.hamming_distance,
            "latency": self.latency,
        }

    def describe(self) -> str:
        where = f" at {self.location}" if self.location else ""
        tail = (f" hamming={self.hamming_distance}"
                if self.hamming_distance is not None else "")
        return (f"{self.kind} divergence{where}, tick {self.tick}, "
                f"pc={self.pc:#x}{tail}")


class _CommitHook:
    """Shared DefUseTracer-protocol plumbing (see ``injector.on_trace``):
    ``started`` flips at the first FI-active commit, ``record`` runs
    once per committed instruction while ``trace_hot`` is set."""

    def __init__(self) -> None:
        self.started = False
        self.context_switches = 0
        self.count = 0

    def capture_initial(self, core) -> None:
        pass

    @staticmethod
    def _reg_snapshot(core) -> tuple[int, ...]:
        ints = core.arch.intregs
        fps = core.arch.fpregs
        return tuple(ints.peek(i) for i in range(32)) + \
            tuple(fps.peek(i) for i in range(32))

    @staticmethod
    def _store_value(core, result, size: int) -> int:
        """Raw bytes the committed store actually left in memory (read
        back post-commit, so mem-stage corruption is captured too)."""
        blob = core.mem.peek_bytes(result.mem_addr, size)
        return int.from_bytes(blob, "little")

    @staticmethod
    def _tick(core) -> int:
        injector = core.injector
        return injector.clock() if injector is not None else 0


class FlightRecorder(_CommitHook):
    """Capture mode: build the :class:`GoldenFlightLog` of a fault-free
    replay.  Install with ``sim.injector.install_tracer(recorder)``."""

    def __init__(self, interval: int = DEFAULT_INTERVAL) -> None:
        super().__init__()
        if interval < 1:
            raise ValueError("digest interval must be positive")
        self.log = GoldenFlightLog(interval=interval)

    def record(self, window_index, pc, decoded, result, core=None) -> None:
        self.count += 1
        self.log.instructions = self.count
        if core is None:
            return
        if decoded.kind in (KIND_STORE, KIND_FSTORE) \
                and result.mem_addr is not None:
            self.log.stores.append(StoreSample(
                seq=len(self.log.stores), count=self.count,
                tick=self._tick(core), pc=pc, addr=result.mem_addr,
                size=decoded.size,
                value=self._store_value(core, result, decoded.size)))
        if self.count % self.log.interval == 0:
            regs = self._reg_snapshot(core)
            self.log.intervals.append(IntervalSample(
                index=len(self.log.intervals), count=self.count,
                window=window_index, tick=self._tick(core),
                pc=core.arch.pc, checksum=regfile_checksum(regs),
                regs=regs))


class DivergenceScanner(_CommitHook):
    """Compare mode: replay a faulty run against a golden flight log and
    record the first architectural divergence.

    Stores are compared transaction-by-transaction (exact instruction
    resolution); the register file and the PC are compared at interval
    boundaries (±1 interval resolution, the flight-recorder trade-off).
    After the first divergence the scanner goes quiet — everything
    downstream is propagation, which the def-use walk explains.
    """

    def __init__(self, golden: GoldenFlightLog) -> None:
        super().__init__()
        self.golden = golden
        self.divergence: Divergence | None = None
        self._store_seq = 0

    def resume(self, count: int, stores: int) -> None:
        """Scan a run restored mid-way from a golden snapshot: *count*
        instructions and *stores* stores of the log already happened."""
        self.started = True
        self.count = count
        self._store_seq = stores

    @property
    def position(self) -> tuple[int, int]:
        """(instructions, stores) scanned so far."""
        return self.count, self._store_seq

    def record(self, window_index, pc, decoded, result, core=None) -> None:
        self.count += 1
        if self.divergence is not None or core is None:
            return
        if decoded.kind in (KIND_STORE, KIND_FSTORE) \
                and result.mem_addr is not None:
            self._check_store(window_index, pc, decoded, result, core)
            if self.divergence is not None:
                return
        if self.count % self.golden.interval == 0:
            self._check_interval(window_index, core)

    # -- store log comparison ------------------------------------------------

    def _check_store(self, window_index, pc, decoded, result,
                     core) -> None:
        seq = self._store_seq
        self._store_seq += 1
        tick = self._tick(core)
        value = self._store_value(core, result, decoded.size)
        if seq >= len(self.golden.stores):
            self.divergence = Divergence(
                kind="control", tick=tick, count=self.count,
                window=window_index, interval=None, pc=pc,
                location=f"store #{seq} beyond golden store log",
                faulty_value=value)
            return
        golden = self.golden.stores[seq]
        if result.mem_addr != golden.addr or pc != golden.pc:
            self.divergence = Divergence(
                kind="control", tick=tick, count=self.count,
                window=window_index, interval=None, pc=pc,
                golden_pc=golden.pc,
                location=f"mem {result.mem_addr:#x} "
                         f"(golden {golden.addr:#x})",
                golden_value=golden.value, faulty_value=value)
            return
        if value != golden.value:
            self.divergence = Divergence(
                kind="memory", tick=tick, count=self.count,
                window=window_index, interval=None, pc=pc,
                golden_pc=golden.pc,
                location=f"mem {result.mem_addr:#x}",
                golden_value=golden.value, faulty_value=value,
                hamming_distance=hamming(value, golden.value))

    # -- interval digest comparison ------------------------------------------

    def _check_interval(self, window_index, core) -> None:
        index = self.count // self.golden.interval - 1
        tick = self._tick(core)
        pc = core.arch.pc
        if index >= len(self.golden.intervals):
            self.divergence = Divergence(
                kind="control", tick=tick, count=self.count,
                window=window_index, interval=index, pc=pc,
                location=f"interval {index} beyond golden digest")
            return
        golden = self.golden.intervals[index]
        regs = self._reg_snapshot(core)
        if regfile_checksum(regs) != golden.checksum:
            slot = next(i for i in range(64)
                        if regs[i] != golden.regs[i])
            self.divergence = Divergence(
                kind="register", tick=tick, count=self.count,
                window=window_index, interval=index, pc=pc,
                golden_pc=golden.pc, location=register_label(slot),
                golden_value=golden.regs[slot], faulty_value=regs[slot],
                hamming_distance=hamming(regs[slot], golden.regs[slot]))
            return
        if pc != golden.pc:
            self.divergence = Divergence(
                kind="control", tick=tick, count=self.count,
                window=window_index, interval=index, pc=pc,
                golden_pc=golden.pc, location="pc",
                golden_value=golden.pc, faulty_value=pc,
                hamming_distance=hamming(pc, golden.pc))
