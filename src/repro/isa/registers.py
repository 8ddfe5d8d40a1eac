"""Register files for the Alpha-like ISA.

The simulated architecture follows the DEC Alpha register model used by the
paper: 32 64-bit integer registers (R31 hardwired to zero), 32 64-bit
floating-point registers (F31 hardwired to zero, holding raw IEEE-754 bit
patterns), and a small set of special registers.

All registers store *raw unsigned 64-bit integers*.  Floating-point values
are packed/unpacked at the instruction-semantics level so that bit-level
fault injection on FP registers corrupts the IEEE-754 representation, as it
would in hardware.
"""

from __future__ import annotations

import struct

MASK64 = (1 << 64) - 1

NUM_INT_REGS = 32
NUM_FP_REGS = 32

# Alpha software register conventions (used by the compiler and the ABI).
REG_V0 = 0       # return value
REG_T0 = 1       # first caller-saved temporary (t0..t7 = r1..r8)
REG_S0 = 9       # first callee-saved register (s0..s5 = r9..r14)
REG_FP = 15      # frame pointer
REG_A0 = 16      # first argument register (a0..a5 = r16..r21)
REG_T8 = 22      # temporaries t8..t11 = r22..r25
REG_RA = 26      # return address
REG_PV = 27      # procedure value
REG_AT = 28      # assembler temporary
REG_GP = 29      # global pointer
REG_SP = 30      # stack pointer
REG_ZERO = 31    # hardwired zero

FREG_RET = 0     # FP return value
FREG_A0 = 16     # first FP argument register
FREG_ZERO = 31   # hardwired FP zero

INT_REG_NAMES = {
    0: "v0", 15: "fp", 26: "ra", 27: "pv", 28: "at", 29: "gp",
    30: "sp", 31: "zero",
}
for _i in range(1, 9):
    INT_REG_NAMES[_i] = f"t{_i - 1}"
for _i in range(9, 15):
    INT_REG_NAMES[_i] = f"s{_i - 9}"
for _i in range(16, 22):
    INT_REG_NAMES[_i] = f"a{_i - 16}"
for _i in range(22, 26):
    INT_REG_NAMES[_i] = f"t{_i - 14}"

INT_NAME_TO_INDEX = {name: idx for idx, name in INT_REG_NAMES.items()}
# Raw rNN / fNN names are always accepted as well.
for _i in range(NUM_INT_REGS):
    INT_NAME_TO_INDEX.setdefault(f"r{_i}", _i)


def int_reg_name(index: int) -> str:
    """Human-readable name of integer register *index* (ABI name)."""
    return INT_REG_NAMES.get(index, f"r{index}")


def fp_reg_name(index: int) -> str:
    """Human-readable name of FP register *index*."""
    return f"f{index}"


def float_to_bits(value: float) -> int:
    """Pack a Python float into its raw IEEE-754 binary64 representation."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_float(bits: int) -> float:
    """Unpack a raw 64-bit pattern into a Python float."""
    return struct.unpack("<d", struct.pack("<Q", bits & MASK64))[0]


def to_signed64(value: int) -> int:
    """Interpret a raw 64-bit value as a signed integer."""
    value &= MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


def sign_extend(value: int, bits: int) -> int:
    """Sign-extend the low *bits* bits of *value* into the 64-bit domain."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value & MASK64


class RegisterFile:
    """A bank of 64-bit registers with an optional hardwired-zero slot.

    Fault injection mutates registers through :meth:`poke`, which bypasses
    the zero-register write-discard so that campaigns can (harmlessly)
    target R31/F31 exactly like the paper's uniform location sampling does;
    reads of the zero register still always return 0.
    """

    __slots__ = ("regs", "zero_index")

    def __init__(self, count: int, zero_index: int | None = None) -> None:
        self.regs = [0] * count
        self.zero_index = zero_index

    def read(self, index: int) -> int:
        if index == self.zero_index:
            return 0
        return self.regs[index]

    def write(self, index: int, value: int) -> None:
        if index == self.zero_index:
            return
        self.regs[index] = value & MASK64

    def poke(self, index: int, value: int) -> None:
        """Write *value* even to the zero register (fault-injection path)."""
        self.regs[index] = value & MASK64

    def peek(self, index: int) -> int:
        """Read the raw storage, ignoring zero-register semantics."""
        return self.regs[index]

    def snapshot(self) -> list[int]:
        return list(self.regs)

    def restore(self, values: list[int]) -> None:
        if len(values) != len(self.regs):
            raise ValueError(
                f"snapshot has {len(values)} registers, "
                f"file has {len(self.regs)}"
            )
        self.regs = list(values)

    def __len__(self) -> int:
        return len(self.regs)


class ArchState:
    """Complete per-hardware-context architectural register state."""

    __slots__ = ("intregs", "fpregs", "pc")

    def __init__(self) -> None:
        self.intregs = RegisterFile(NUM_INT_REGS, zero_index=REG_ZERO)
        self.fpregs = RegisterFile(NUM_FP_REGS, zero_index=FREG_ZERO)
        self.pc = 0

    def snapshot(self) -> dict:
        return {
            "int": self.intregs.snapshot(),
            "fp": self.fpregs.snapshot(),
            "pc": self.pc,
        }

    def restore(self, snap: dict) -> None:
        self.intregs.restore(snap["int"])
        self.fpregs.restore(snap["fp"])
        self.pc = snap["pc"]
