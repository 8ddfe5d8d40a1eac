"""Sparse paged physical memory.

The simulated machine exposes a 64-bit address space backed by 4 KiB
pages that are allocated on demand, but only inside regions explicitly
mapped by the kernel (text, data, heap, stack).  Accesses outside mapped
regions raise :class:`UnmappedAccess` and misaligned accesses raise
:class:`MisalignedAccess` — exactly the architectural behaviour that turns
fault-corrupted addresses into the *Crashed* outcome class of the paper.
"""

from __future__ import annotations

import struct

from ..isa.traps import MisalignedAccess, UnmappedAccess

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

_STRUCT_BY_SIZE = {size: struct.Struct(fmt) for size, fmt
                   in ((1, "<B"), (2, "<H"), (4, "<I"), (8, "<Q"))}
_WORD = _STRUCT_BY_SIZE[4].unpack_from


class Region:
    """A mapped address-space region with a human-readable name."""

    __slots__ = ("name", "start", "end", "writable")

    def __init__(self, name: str, start: int, end: int,
                 writable: bool = True) -> None:
        if end <= start:
            raise ValueError(f"empty region {name}")
        self.name = name
        self.start = start
        self.end = end
        self.writable = writable

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Region {self.name} 0x{self.start:x}-0x{self.end:x}"
                f"{'' if self.writable else ' ro'}>")


class MainMemory:
    """Byte-addressable sparse memory with region-based protection."""

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        self._regions: list[Region] = []
        # The region the last access check found and the one the last
        # fetch ran from: most accesses fall in the same region as the
        # one before, so each is tested first and the region list is
        # scanned only on a miss.  Mapping, unmapping and restoring
        # regions forget both.
        self._last: Region | None = None
        self._code: Region | None = None

    # -- region management ----------------------------------------------------

    def map_region(self, name: str, start: int, size: int,
                   writable: bool = True) -> Region:
        """Map *size* bytes starting at *start*; overlaps are rejected."""
        region = Region(name, start, start + size, writable)
        for existing in self._regions:
            if region.start < existing.end and existing.start < region.end:
                raise ValueError(
                    f"region {name} overlaps {existing.name}")
        self._regions.append(region)
        self._last = self._code = None
        return region

    def unmap_region(self, name: str) -> None:
        self._regions = [r for r in self._regions if r.name != name]
        self._last = self._code = None

    def region_of(self, addr: int) -> Region | None:
        for region in self._regions:
            if region.contains(addr):
                return region
        return None

    def grow_region(self, name: str, new_end: int) -> None:
        """Extend a region (the ``brk`` syscall uses this for the heap)."""
        for region in self._regions:
            if region.name == name:
                if new_end < region.end:
                    raise ValueError("regions never shrink")
                region.end = new_end
                return
        raise KeyError(name)

    # -- raw access -----------------------------------------------------------

    def read(self, addr: int, size: int, pc: int | None = None) -> int:
        self._check(addr, size, write=False, pc=pc)
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        return _STRUCT_BY_SIZE[size].unpack_from(page, addr & PAGE_MASK)[0]

    def write(self, addr: int, size: int, value: int,
              pc: int | None = None) -> None:
        self._check(addr, size, write=True, pc=pc)
        index = addr >> PAGE_SHIFT
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        _STRUCT_BY_SIZE[size].pack_into(page, addr & PAGE_MASK,
                                        value & ((1 << (8 * size)) - 1))

    def fetch(self, pc: int) -> int:
        """Instruction fetch: a 4-byte aligned read from an executable
        region.  PC corruption (a GemFI fault location) lands here."""
        region = self._code
        if pc & 3 or region is None or not region.start <= pc < region.end:
            region = self._code = self.fetch_region(pc)
        page = self._pages.get(pc >> PAGE_SHIFT)
        return _WORD(page, pc & PAGE_MASK)[0] if page is not None else 0

    def fetch_region(self, pc: int) -> Region:
        """Check a fetch at *pc* as :meth:`fetch` does, raising the same
        traps, and return the region holding it.  Until a region is
        mapped, unmapped or grown, any aligned fetch inside that region
        passes the same check (the atomic model's cold blocks rely on
        this)."""
        self._check(pc, 4, write=False, pc=pc)
        return self._last

    @property
    def pages(self) -> dict[int, bytearray]:
        """Page index -> page bytes; a missing page reads as zeros."""
        return self._pages

    # -- bulk helpers (loader / checkpointing / workload I/O) -----------------

    def write_bytes(self, addr: int, blob: bytes) -> None:
        for offset, byte in enumerate(blob):
            self.write(addr + offset, 1, byte)

    def read_bytes(self, addr: int, length: int) -> bytes:
        return bytes(self.read(addr + i, 1) for i in range(length))

    def peek_bytes(self, addr: int, length: int) -> bytes:
        """Postmortem read that bypasses region protection (missing pages
        read as zeros).  Campaign classifiers use this to extract output
        arrays after the process has exited and been unmapped."""
        out = bytearray()
        while length > 0:
            page = self._pages.get(addr >> PAGE_SHIFT)
            offset = addr & PAGE_MASK
            chunk = min(length, PAGE_SIZE - offset)
            if page is None:
                out += bytes(chunk)
            else:
                out += page[offset:offset + chunk]
            addr += chunk
            length -= chunk
        return bytes(out)

    # -- internals ------------------------------------------------------------

    def _check(self, addr: int, size: int, write: bool,
               pc: int | None) -> None:
        if size not in _STRUCT_BY_SIZE:
            raise ValueError(f"unsupported access size {size}")
        if addr % size:
            raise MisalignedAccess(addr, size, pc=pc)
        region = self._last
        if region is None or not region.start <= addr < region.end:
            if addr < 0 or addr >= 1 << 64:
                raise UnmappedAccess(addr & ((1 << 64) - 1), pc=pc)
            region = self.region_of(addr)
            if region is None:
                raise UnmappedAccess(addr, pc=pc)
            self._last = region
        if write and not region.writable:
            raise UnmappedAccess(addr, pc=pc)

    # -- checkpoint support ----------------------------------------------------

    def snapshot(self, previous: dict | None = None) -> dict:
        """Copy the pages and regions.  Pages equal to one in
        *previous* (an earlier snapshot) share its bytes object."""
        shared = previous["pages"] if previous is not None else {}
        pages = {}
        for idx, page in self._pages.items():
            old = shared.get(idx)
            pages[idx] = old if old == page else bytes(page)
        return {"pages": pages, "regions": self._region_tuples()}

    def matches(self, snap: dict) -> bool:
        """True when pages and regions equal the snapshot *snap*."""
        return (self._pages == snap["pages"]
                and self._region_tuples() == snap["regions"])

    def _region_tuples(self) -> list[tuple]:
        return [(r.name, r.start, r.end, r.writable)
                for r in self._regions]

    def restore(self, snap: dict) -> None:
        self._pages = {idx: bytearray(page)
                       for idx, page in snap["pages"].items()}
        self._regions = [
            Region(name, start, end, writable)
            for name, start, end, writable in snap["regions"]
        ]
        self._last = self._code = None
