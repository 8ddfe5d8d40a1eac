"""The OS-lite kernel: processes, round-robin scheduling, traps.

This is the "full system" part of the reproduction: applications run
under the control of a (minimal) operating system with real context
switches, so GemFI's PCB-based thread tracking (Section III.C) is
exercised exactly as in the paper — including the property that the
fault-injection status pointer is refreshed on context switches rather
than looked up per simulated tick.
"""

from __future__ import annotations

from ..cpu.base import Core
from ..isa.traps import SimTrap
from . import process as proc_mod
from ..isa.assembler import Assembler
from ..isa.registers import REG_A0, REG_GP, REG_RA, REG_SP
from .loader import load_program, unload_process
from .process import (
    Process,
    ProcessState,
    THREAD_STACK_SIZE,
    thread_stack_top,
)
from .syscalls import BadSyscall, ProcessExited, dispatch


class System:
    """Kernel state: processes, run queue, console, PCB region."""

    def __init__(self, memory, clock=None, quantum: int = 20_000) -> None:
        self.memory = memory
        self.clock = clock or (lambda: 0)
        self.quantum = quantum
        self.processes: dict[int, Process] = {}
        self.run_queue: list[int] = []
        self.current_pid: int | None = None
        self.yield_requested = False
        self.context_switches = 0
        self._next_pid = 0
        self._thread_counts: dict[int, int] = {}
        memory.map_region("kernel", proc_mod.KERNEL_BASE,
                          proc_mod.KERNEL_SIZE)
        self._install_thread_exit_stub()

    # -- process lifecycle -------------------------------------------------------

    def spawn(self, asm_source: str, name: str = "app",
              entry_symbol: str = "main") -> Process:
        """Load a program into a fresh process slot and enqueue it."""
        pid = self._next_pid
        self._next_pid += 1
        process = load_program(self.memory, asm_source, pid, name,
                               entry_symbol=entry_symbol)
        self.processes[pid] = process
        self.run_queue.append(pid)
        # Populate the PCB so the address has real backing store.
        self.memory.write(process.pcb_addr, 8, pid)
        self.memory.write(process.pcb_addr + 8, 8, process.entry)
        return process

    def _install_thread_exit_stub(self) -> None:
        """A tiny kernel-resident routine that thread entry functions
        return into: it performs exit(0), so MiniC thread functions may
        simply return."""
        stub = Assembler(text_base=self.thread_exit_stub,
                         data_base=proc_mod.KERNEL_BASE
                         + proc_mod.KERNEL_SIZE - 4096).assemble(
            "main:\n"
            "    clr a0\n"
            "    clr v0\n"
            "    callsys\n", entry_symbol="main")
        self.memory.write_bytes(self.thread_exit_stub, stub.text)

    @property
    def thread_exit_stub(self) -> int:
        return proc_mod.KERNEL_BASE + 0x8000

    def spawn_thread(self, parent: Process, entry_pc: int,
                     argument: int) -> Process:
        """Create a thread: shares *parent*'s address-space slot, gets
        its own 256 KiB stack, PCB and scheduler entry.  Thread identity
        at the hardware level is the new PCB address, so
        ``fi_activate_inst`` targets threads individually
        (Section III.A.2)."""
        pid = self._next_pid
        self._next_pid += 1
        slot = parent.slot_pid
        index = self._thread_counts.get(slot, 0)
        self._thread_counts[slot] = index + 1
        top = thread_stack_top(slot, index)
        region = f"t{pid}.stack"
        self.memory.map_region(region, top - THREAD_STACK_SIZE,
                               THREAD_STACK_SIZE)

        thread = Process(pid=pid, name=f"{parent.name}.t{index}",
                         entry=entry_pc, slot_pid=slot, is_thread=True,
                         stack_region=region)
        thread.symbols = parent.symbols
        thread.console = parent.console      # threads share stdout
        intregs = [0] * 32
        intregs[REG_SP] = top - 64
        intregs[REG_GP] = proc_mod.data_base(slot)
        intregs[REG_RA] = self.thread_exit_stub
        intregs[REG_A0] = argument & ((1 << 64) - 1)
        thread.context = {"int": intregs, "fp": [0] * 32,
                          "pc": entry_pc}
        self.processes[pid] = thread
        self.run_queue.append(pid)
        self.memory.write(thread.pcb_addr, 8, pid)
        self.memory.write(thread.pcb_addr + 8, 8, entry_pc)
        return thread

    def current_process(self) -> Process | None:
        if self.current_pid is None:
            return None
        return self.processes[self.current_pid]

    @property
    def runnable(self) -> list[int]:
        return [pid for pid in self.run_queue
                if self.processes[pid].alive]

    @property
    def any_alive(self) -> bool:
        return any(p.alive for p in self.processes.values())

    # -- dispatch / context switching ----------------------------------------------

    def schedule(self, core: Core) -> Process | None:
        """Pick the next runnable process and install it on *core*."""
        runnable = self.runnable
        if not runnable:
            self.current_pid = None
            return None
        # Round robin: rotate past the current process.
        if self.current_pid in runnable:
            index = (runnable.index(self.current_pid) + 1) % len(runnable)
            next_pid = runnable[index]
        else:
            next_pid = runnable[0]
        self._switch_to(core, next_pid)
        return self.processes[next_pid]

    def _switch_to(self, core: Core, pid: int) -> None:
        outgoing = self.current_process()
        if outgoing is not None and outgoing.pid == pid:
            return
        if outgoing is not None and outgoing.alive:
            outgoing.context = core.arch.snapshot()
            outgoing.state = ProcessState.READY
            # Touch the PCB like a real kernel saving state.
            self.memory.write(outgoing.pcb_addr + 16, 8,
                              core.arch.pc & ((1 << 64) - 1))
        incoming = self.processes[pid]
        core.arch.restore(incoming.context)
        incoming.state = ProcessState.RUNNING
        self.current_pid = pid
        core.pcb_addr = incoming.pcb_addr
        self.context_switches += 1
        if core.injector is not None:
            core.injector.on_context_switch(core, incoming.pcb_addr)
        else:
            core.fi_thread = None

    # -- trap handling ----------------------------------------------------------------

    def syscall(self, core: Core) -> None:
        """PAL ``callsys`` handler (invoked from the CPU's execute phase)."""
        process = self.current_process()
        if process is None:
            raise SimTrap("syscall with no current process")
        try:
            dispatch(self, core, process)
        except BadSyscall as exc:
            raise SimTrap(str(exc), pc=core.arch.pc) from exc

    def on_exit(self, core: Core, exited: ProcessExited) -> None:
        process = self.processes[exited.pid]
        process.state = ProcessState.EXITED
        process.exit_code = exited.code
        process.instructions = core.committed
        self._reclaim(process)
        self.schedule(core)

    def on_crash(self, core: Core, trap: SimTrap) -> None:
        process = self.current_process()
        if process is None:
            raise trap
        process.state = ProcessState.CRASHED
        process.crash_reason = f"{type(trap).__name__}: {trap}"
        process.crash_pc = trap.pc if trap.pc is not None \
            else core.arch.pc
        process.instructions = core.committed
        self._reclaim(process)
        self.schedule(core)

    def _reclaim(self, process: Process) -> None:
        """Release a finished process's memory.  Threads only own their
        stack; the slot belongs to (and dies with) the main process."""
        if process.is_thread:
            self.memory.unmap_region(process.stack_region)
            return
        unload_process(self.memory, process)

    # -- checkpoint support --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "processes": {pid: p.snapshot()
                          for pid, p in self.processes.items()},
            "run_queue": list(self.run_queue),
            "current_pid": self.current_pid,
            "context_switches": self.context_switches,
            "next_pid": self._next_pid,
            "quantum": self.quantum,
            "thread_counts": dict(self._thread_counts),
        }

    def restore(self, snap: dict) -> None:
        self.processes = {pid: Process.from_snapshot(ps)
                          for pid, ps in snap["processes"].items()}
        self.run_queue = list(snap["run_queue"])
        self.current_pid = snap["current_pid"]
        self.context_switches = snap["context_switches"]
        self._next_pid = snap["next_pid"]
        self.quantum = snap["quantum"]
        self._thread_counts = dict(snap.get("thread_counts", {}))
        # Threads share their slot owner's console buffer; restore
        # the aliasing that per-process snapshots flattened (each
        # snapshot holds the whole shared buffer, so no concatenation).
        for process in self.processes.values():
            if process.is_thread and process.slot_pid in self.processes:
                process.console = self.processes[process.slot_pid].console
