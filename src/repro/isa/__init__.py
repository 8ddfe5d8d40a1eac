"""Alpha-like ISA substrate: registers, encodings, decoder, assembler."""

from .assembler import Assembler, AssemblyError, Image, assemble
from .disasm import disassemble, disassemble_word
from .encoding import Field, Format
from .instructions import Decoded, DecodeCache, decode, field_of_fetch_bit
from .registers import (
    ArchState,
    MASK64,
    RegisterFile,
    bits_to_float,
    float_to_bits,
    fp_reg_name,
    int_reg_name,
)
from .traps import (
    ArithmeticTrap,
    HaltRequest,
    IllegalInstruction,
    MemoryFault,
    MisalignedAccess,
    SimTrap,
    UnmappedAccess,
)

__all__ = [
    "ArchState", "Assembler", "AssemblyError", "ArithmeticTrap",
    "Decoded", "DecodeCache", "Field", "Format", "HaltRequest",
    "IllegalInstruction", "Image", "MASK64", "MemoryFault",
    "MisalignedAccess", "RegisterFile", "SimTrap",
    "UnmappedAccess", "assemble",
    "bits_to_float", "decode", "disassemble", "disassemble_word",
    "field_of_fetch_bit", "float_to_bits", "fp_reg_name", "int_reg_name",
]
