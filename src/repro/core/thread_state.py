"""Per-thread fault-injection state (Section III.C).

Threads that have enabled fault injection are represented by
:class:`ThreadEnabledFault` instances, held in a hash table keyed by the
thread's Process Control Block (PCB) address — the hardware-level thread
identity.  Each core carries a pointer to the object of the thread it is
currently running (``None`` when that thread has not activated fault
injection); the pointer is refreshed on context switches so the hot path
never performs a hash lookup per simulated instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fault import Stage


@dataclass
class ThreadEnabledFault:
    """All per-thread information needed for fault injection."""

    thread_id: int
    pcb_addr: int
    activation_tick: int = 0
    # Instructions committed by this thread while FI was active.  To keep
    # the per-instruction fast path free of bookkeeping, the count is
    # accumulated lazily: ``committed`` holds the total up to the last
    # context switch and ``base_committed`` the core's global committed
    # counter at switch-in; the live value is
    # ``committed + core.committed - base_committed``.
    committed: int = 0
    base_committed: int = 0
    stage_counts: dict[Stage, int] = field(
        default_factory=lambda: {stage: 0 for stage in Stage})

    def effective_committed(self, core_committed: int) -> int:
        return self.committed + core_committed - self.base_committed

    def settle(self, core_committed: int) -> None:
        """Fold the pending span into ``committed`` (switch-out /
        deactivation)."""
        self.committed += core_committed - self.base_committed
        self.base_committed = core_committed

    def count_for(self, stage: Stage) -> int:
        return self.stage_counts[stage]

    def bump(self, stage: Stage) -> int:
        value = self.stage_counts[stage] + 1
        self.stage_counts[stage] = value
        return value

    def elapsed_ticks(self, now: int) -> int:
        return now - self.activation_tick


class ThreadTable:
    """The PCB-address → ThreadEnabledFault hash table.

    ``fi_activate_inst`` *toggles* activation: the first call for a PCB
    creates an entry, the second destroys it (Section III.C).
    """

    def __init__(self) -> None:
        self._by_pcb: dict[int, ThreadEnabledFault] = {}

    def toggle(self, pcb_addr: int, thread_id: int,
               now: int) -> ThreadEnabledFault | None:
        """Activate or deactivate FI for the thread with this PCB.

        Returns the (new) ThreadEnabledFault on activation, or None on
        deactivation.
        """
        existing = self._by_pcb.pop(pcb_addr, None)
        if existing is not None:
            return None
        thread = ThreadEnabledFault(thread_id=thread_id, pcb_addr=pcb_addr,
                                    activation_tick=now)
        self._by_pcb[pcb_addr] = thread
        return thread

    def insert(self, thread: ThreadEnabledFault) -> None:
        """Reinstate an active thread (checkpoint-ladder restores)."""
        self._by_pcb[thread.pcb_addr] = thread

    def lookup(self, pcb_addr: int) -> ThreadEnabledFault | None:
        return self._by_pcb.get(pcb_addr)

    def active_threads(self) -> list[ThreadEnabledFault]:
        return list(self._by_pcb.values())

    def clear(self) -> None:
        self._by_pcb.clear()

    def __len__(self) -> int:
        return len(self._by_pcb)

    def __contains__(self, pcb_addr: int) -> bool:
        return pcb_addr in self._by_pcb
