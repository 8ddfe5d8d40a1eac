"""The simulator: assembles the platform and owns the run loop.

Responsibilities mirroring gem5 + the GemFI extensions:

* build memory, caches, core, CPU model, kernel from a :class:`SimConfig`;
* run the fetch-decode-execute loop with scheduler quanta and watchdog;
* service ``fi_read_init_all`` checkpoint requests (DMTCP substitute);
* switch CPU models mid-run (detailed -> atomic once the fault committed,
  the campaign methodology of Section IV.B.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.injector import FaultInjector
from ..cpu import CPU_MODELS
from ..cpu.base import CheckpointRequested, Core
from ..isa.instructions import DecodeCache
from ..isa.traps import HaltRequest, SimTrap
from ..memory.hierarchy import MemoryHierarchy
from ..memory.mainmem import MainMemory
from ..system.kernel import System
from ..system.process import Process
from ..system.syscalls import ProcessExited
from .config import CORE_NAME, POLL_INTERVAL, SimConfig


@dataclass
class RunResult:
    """Outcome of one :meth:`Simulator.run` call."""

    status: str                 # "completed" | "limit" | "halted"
    instructions: int
    ticks: int
    checkpoint_taken: bool = False

    @property
    def hit_limit(self) -> bool:
        return self.status == "limit"


class Simulator:
    """A complete simulated machine."""

    def __init__(self, config: SimConfig | None = None,
                 injector: FaultInjector | None = None,
                 bus=None) -> None:
        self.config = config or SimConfig()
        self.tick = 0
        self.instructions = 0
        self.memory = MainMemory()
        self.hierarchy = MemoryHierarchy(self.memory,
                                         self.config.hierarchy)
        self.injector = injector
        if injector is not None:
            injector.clock = lambda: self.tick
        self.system = System(self.memory, clock=lambda: self.tick,
                             quantum=self.config.quantum)
        self.core = Core(
            CORE_NAME, self.hierarchy, injector=injector,
            decode_cache=DecodeCache(enabled=self.config.decode_cache))
        self.core.system = self.system
        if self.config.fi_hash_lookup_per_instruction:
            self.core.serve_instruction = _hash_lookup_serve(self.core)
        self.cpu = CPU_MODELS[self.config.cpu_model](self.core)
        self.checkpoint_taken = False
        self.on_checkpoint = None        # callable(sim) -> None
        self._switched_to_atomic = False
        self._quantum_counter = 0
        # Kept so checkpoints can re-create processes: pid -> (asm, name).
        self.program_sources: dict[int, tuple[str, str]] = {}
        # Structured trace bus (repro.telemetry); None = telemetry off.
        self.bus = None
        if bus is not None:
            self.attach_bus(bus)
        # Self-profiler handle; set by Profiler.install(sim).  Never
        # consulted on the instruction path — profiling works by method
        # replacement, so a plain run carries no flag checks at all.
        self.profiler = None
        # Span tracer (repro.telemetry.spans); None = tracing off.
        # Only consulted on checkpoint saves — a per-experiment-rare
        # event — so the run loop stays untouched.
        self.tracer = None

    # -- telemetry ---------------------------------------------------------------

    def attach_bus(self, bus) -> None:
        """Wire a :class:`~repro.telemetry.TraceBus` through the
        platform: the simulator, the core (syscall events), the CPU
        model (drain/squash events) and the injector (fault lifecycle)
        all share the one bus, clocked by the global tick."""
        self.bus = bus
        bus.clock = lambda: self.tick
        self.core.bus = bus
        if self.injector is not None:
            self.injector.bus = bus

    # -- program loading -----------------------------------------------------------

    def load(self, asm_source: str, name: str = "app",
             entry_symbol: str = "main") -> Process:
        """Load a program; the first loaded process runs first."""
        process = self.system.spawn(asm_source, name,
                                    entry_symbol=entry_symbol)
        self.program_sources[process.pid] = (asm_source, name)
        return process

    # -- the run loop ------------------------------------------------------------------

    def run(self, max_instructions: int | None = None,
            until_checkpoint: bool = False) -> RunResult:
        """Simulate until every process finishes, the watchdog fires, a
        ``halt`` executes, or (optionally) a checkpoint is taken.  The
        watchdog ends the run (status "limit") at the first poll with
        *max_instructions* committed; None runs without one."""
        system = self.system
        core = self.core
        config = self.config
        poll = POLL_INTERVAL
        next_poll = self.instructions + poll

        if system.current_pid is None or \
                not system.processes[system.current_pid].alive:
            if system.schedule(core) is None:
                return self._result("completed")

        status = "completed"
        # Test for a cold block at the next instruction; after a failed
        # test the slow path serves everything up to the next poll.
        blocks = True
        while True:
            try:
                if blocks and self._cold():
                    # Up to the next poll on the cold path; an
                    # instruction it stops before takes the slow one.
                    n = max(next_poll - self.instructions, 1)
                    ticks = committed = 0
                    if self._run_block(n) < n:
                        ticks, committed = self.cpu.step()
                else:
                    blocks = False
                    ticks, committed = self.cpu.step()
            except ProcessExited as exited:
                self.cpu.drain()
                if self.bus is not None:
                    self.bus.emit("process_exit", pid=exited.pid,
                                  code=exited.code)
                system.on_exit(core, exited)
                if not system.any_alive:
                    status = "completed"
                    break
                blocks = True
                continue
            except CheckpointRequested as request:
                # Complete the fi_read_init_all instruction by hand, then
                # snapshot: the checkpoint lands exactly between it and
                # the following instruction.
                self.cpu.drain()
                core.arch.pc = request.next_pc
                core.committed += 1
                self.tick += 1
                self.instructions += 1
                self._take_checkpoint()
                if until_checkpoint:
                    status = "completed"
                    break
                blocks = True
                continue
            except HaltRequest:
                if self.bus is not None:
                    self.bus.emit("halt", pc=core.arch.pc)
                status = "halted"
                break
            except SimTrap as trap:
                self.cpu.drain()
                if self.bus is not None:
                    self.bus.emit(
                        "trap", trap=type(trap).__name__,
                        reason=str(trap), pid=system.current_pid,
                        pc=trap.pc if trap.pc is not None
                        else core.arch.pc)
                system.on_crash(core, trap)
                if not system.any_alive:
                    status = "completed"
                    break
                blocks = True
                continue

            self.tick += ticks
            self.instructions += committed
            self._quantum_counter += committed

            if self.instructions >= next_poll:
                next_poll = self.instructions + poll
                blocks = True
                injector = self.injector
                if injector is not None:
                    if (config.switch_to_atomic_after_fi
                            and not self._switched_to_atomic
                            and injector.injection_happened
                            and injector.all_faults_done):
                        self.switch_model("atomic")
                if system.yield_requested or (
                        self._quantum_counter >= system.quantum
                        and len(system.runnable) > 1):
                    system.yield_requested = False
                    self._quantum_counter = 0
                    self.cpu.drain()
                    system.schedule(core)
                # Stop after this poll's scheduling decision, so a run
                # resumed from here continues exactly as an unbroken one
                # (the checkpoint ladder stops and resumes runs here).
                if max_instructions is not None and \
                        self.instructions >= max_instructions:
                    status = "limit"
                    break
        return self._result(status)

    def _cold(self) -> bool:
        """True when the next block may run on the cold path: the CPU
        model is atomic, the decode cache is on, the hash-lookup
        ablation is off, and no fault-injection hook can fire
        (:meth:`FaultInjector.cold`, next to the hot flags)."""
        injector = self.injector
        return (self.cpu.model_name == "atomic"
                and self.core.decode_cache.enabled
                and not self.config.fi_hash_lookup_per_instruction
                and (injector is None or injector.cold(self.core)))

    def _run_block(self, n: int) -> int:
        """Run up to *n* instructions through the CPU model's cold
        block, then advance the clock, the instruction count and the
        quantum counter by the ones that committed (one tick each), also
        when one of them trapped.  Returns that count."""
        core = self.core
        start = core.committed
        try:
            self.cpu.run_block(n)
        finally:
            done = core.committed - start
            self.tick += done
            self.instructions += done
            self._quantum_counter += done
        return done

    def _result(self, status: str) -> RunResult:
        return RunResult(status=status, instructions=self.instructions,
                         ticks=self.tick,
                         checkpoint_taken=self.checkpoint_taken)

    # -- CPU model switching --------------------------------------------------------------

    def switch_model(self, model_name: str) -> None:
        """Drain the pipeline and swap CPU models (O3 -> atomic in the
        campaign methodology)."""
        if self.cpu.model_name == model_name:
            self._switched_to_atomic = model_name == "atomic"
            return
        self.cpu.drain()
        if self.bus is not None:
            self.bus.emit("model_switch", old=self.cpu.model_name,
                          new=model_name)
        self.cpu = CPU_MODELS[model_name](self.core)
        if model_name == "atomic":
            self._switched_to_atomic = True

    # -- checkpointing ------------------------------------------------------------------------

    def _take_checkpoint(self) -> None:
        if self.tracer is not None and self.on_checkpoint is not None:
            with self.tracer.span("checkpoint_save", tick=self.tick,
                                  kind="checkpoint",
                                  instructions=self.instructions):
                self._write_checkpoint()
        else:
            self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        if self.on_checkpoint is not None:
            self.on_checkpoint(self)
            self.checkpoint_taken = True
        # With no checkpoint sink configured the request is a no-op, like
        # running the binary outside a campaign.
        if self.checkpoint_taken and self.bus is not None:
            self.bus.emit("checkpoint_save",
                          instructions=self.instructions)

    # -- convenience accessors -------------------------------------------------------------------

    def console_text(self, pid: int = 0) -> str:
        return self.system.processes[pid].console_text()

    def process(self, pid: int = 0) -> Process:
        return self.system.processes[pid]

    def stats_dump(self) -> str:
        from . import stats
        return stats.dump(self)


def _hash_lookup_serve(core: Core):
    """The ``fi_hash_lookup_per_instruction`` ablation as a per-instance
    ``serve_instruction``: look the running thread up in the PCB hash
    table before every instruction (the design Section III.C avoids),
    then serve it as usual."""
    serve = Core.serve_instruction

    def serve_instruction(timing: bool = False):
        injector = core.injector
        if injector is not None:
            core.fi_thread = injector.threads.lookup(core.pcb_addr)
        return serve(core, timing)

    return serve_instruction
