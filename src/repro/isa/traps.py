"""Architectural traps and simulation-terminating exceptions.

Hardware faults injected by GemFI manifest as architectural traps:
illegal-instruction on corrupted opcodes, memory faults on corrupted
addresses, arithmetic traps on corrupted divisors.  The kernel turns
unhandled traps into a process crash, which the campaign classifier
records as the *Crashed* outcome class (Section IV.B of the paper).
"""

from __future__ import annotations


class SimTrap(Exception):
    """Base class for all architectural traps raised during simulation."""

    def __init__(self, message: str, pc: int | None = None) -> None:
        super().__init__(message)
        self.pc = pc


class IllegalInstruction(SimTrap):
    """Fetched word decodes to an unimplemented opcode or function code."""

    def __init__(self, word: int, pc: int | None = None) -> None:
        super().__init__(f"illegal instruction 0x{word:08x}", pc=pc)
        self.word = word


class MemoryFault(SimTrap):
    """Base class for data/instruction memory access violations."""

    def __init__(self, message: str, addr: int, pc: int | None = None) -> None:
        super().__init__(message, pc=pc)
        self.addr = addr


class UnmappedAccess(MemoryFault):
    """Access to an address with no backing page (segmentation fault)."""

    def __init__(self, addr: int, pc: int | None = None) -> None:
        super().__init__(f"unmapped access at 0x{addr:016x}", addr, pc=pc)


class MisalignedAccess(MemoryFault):
    """Access whose address is not aligned to the access size."""

    def __init__(self, addr: int, size: int, pc: int | None = None) -> None:
        super().__init__(
            f"misaligned {size}-byte access at 0x{addr:016x}", addr, pc=pc
        )
        self.size = size


class ArithmeticTrap(SimTrap):
    """Integer divide-by-zero and similar fatal arithmetic conditions."""


class HaltRequest(SimTrap):
    """The PAL HALT instruction was executed (normal machine stop)."""


