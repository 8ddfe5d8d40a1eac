"""Processes and their Process Control Blocks.

GemFI identifies threads "at the hardware/simulator level by their unique
Process Control Block (PCB) address" (Section III.C).  The kernel
allocates one PCB per process inside a dedicated kernel memory region;
context switches update the core's PCB pointer, which is what the fault
injector tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

# Per-process address-space slots (all below 2**31 so that the two-
# instruction ldah/lda idiom can materialise any address).
SLOT_BASE = 0x01000000
SLOT_SIZE = 0x04000000          # 64 MiB per process
TEXT_OFFSET = 0x00000000
DATA_OFFSET = 0x00400000        # 4 MiB of text is plenty
STACK_TOP_OFFSET = 0x03FF0000
STACK_SIZE = 1 << 20            # 1 MiB stacks
# Thread stacks are carved below the main stack inside the owner's
# slot: 256 KiB each, one slot-relative index per spawned thread.
THREAD_STACK_SIZE = 1 << 18

KERNEL_BASE = 0xF0000000
KERNEL_SIZE = 1 << 20
PCB_SIZE = 256


class ProcessState(Enum):
    READY = "ready"
    RUNNING = "running"
    EXITED = "exited"
    CRASHED = "crashed"


def text_base(pid: int) -> int:
    return SLOT_BASE + pid * SLOT_SIZE + TEXT_OFFSET


def data_base(pid: int) -> int:
    return SLOT_BASE + pid * SLOT_SIZE + DATA_OFFSET


def stack_top(pid: int) -> int:
    return SLOT_BASE + pid * SLOT_SIZE + STACK_TOP_OFFSET


def thread_stack_top(slot_pid: int, thread_index: int) -> int:
    """Top of the *thread_index*-th thread stack in a process slot
    (below the main stack, growing downwards per thread)."""
    return (stack_top(slot_pid) - STACK_SIZE
            - thread_index * THREAD_STACK_SIZE)


def pcb_address(pid: int) -> int:
    return KERNEL_BASE + pid * PCB_SIZE


@dataclass
class Process:
    """One schedulable entity with its own address-space slot."""

    pid: int
    name: str
    entry: int
    state: ProcessState = ProcessState.READY
    exit_code: int | None = None
    crash_reason: str | None = None
    crash_pc: int | None = None
    # Saved architectural context (ArchState.snapshot()).
    context: dict | None = None
    console: bytearray = field(default_factory=bytearray)
    brk: int = 0
    symbols: dict[str, int] = field(default_factory=dict)
    instructions: int = 0
    # Threads share the address-space slot of their spawner; for a
    # main process slot_pid == pid.
    slot_pid: int = -1
    is_thread: bool = False
    stack_region: str = ""

    def __post_init__(self) -> None:
        if self.slot_pid < 0:
            self.slot_pid = self.pid

    @property
    def pcb_addr(self) -> int:
        return pcb_address(self.pid)

    @property
    def alive(self) -> bool:
        return self.state in (ProcessState.READY, ProcessState.RUNNING)

    def console_text(self, errors: str = "replace") -> str:
        return self.console.decode("utf-8", errors=errors)

    def symbol(self, name: str) -> int:
        """Address of a program symbol (workload output arrays etc.)."""
        return self.symbols[name]

    def snapshot(self) -> dict:
        return {
            "pid": self.pid,
            "name": self.name,
            "entry": self.entry,
            "state": self.state.value,
            "exit_code": self.exit_code,
            "crash_reason": self.crash_reason,
            "crash_pc": self.crash_pc,
            "context": self.context,
            "console": bytes(self.console),
            "brk": self.brk,
            "symbols": dict(self.symbols),
            "instructions": self.instructions,
            "slot_pid": self.slot_pid,
            "is_thread": self.is_thread,
            "stack_region": self.stack_region,
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Process":
        proc = cls(pid=snap["pid"], name=snap["name"], entry=snap["entry"])
        proc.state = ProcessState(snap["state"])
        proc.exit_code = snap["exit_code"]
        proc.crash_reason = snap["crash_reason"]
        proc.crash_pc = snap["crash_pc"]
        context = snap["context"]
        # Copied: in-memory checkpoint-ladder rungs are restored many
        # times and must never see a process's later register state.
        proc.context = None if context is None else {
            key: list(value) if isinstance(value, list) else value
            for key, value in context.items()}
        proc.console = bytearray(snap["console"])
        proc.brk = snap["brk"]
        proc.symbols = dict(snap["symbols"])
        proc.instructions = snap["instructions"]
        proc.slot_pid = snap.get("slot_pid", proc.pid)
        proc.is_thread = snap.get("is_thread", False)
        proc.stack_region = snap.get("stack_region", "")
        return proc
