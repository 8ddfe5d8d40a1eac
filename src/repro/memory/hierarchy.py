"""The validation-platform memory hierarchy of Section IV.

The paper's simulated system couples each core with an L1 instruction
cache, an L1 data cache and a *unified* L2.  This module wires the cache
levels together over :class:`MainMemory` and exposes the interface the
timing CPU models consume: every access returns both the value and the
modelled latency.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from .cache import Cache, CacheConfig
from .mainmem import MainMemory

_LEVELS = ("l1i", "l1d", "l2")


@dataclass
class HierarchyConfig:
    """Cache geometry for the whole hierarchy (paper Section IV defaults)."""

    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        "l1i", size_bytes=32 * 1024, assoc=2, line_bytes=64, hit_latency=1))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        "l1d", size_bytes=64 * 1024, assoc=2, line_bytes=64, hit_latency=1))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        "l2", size_bytes=2 * 1024 * 1024, assoc=8, line_bytes=64,
        hit_latency=10))
    memory_latency: int = 100


class MemoryHierarchy:
    """L1I + L1D over a unified L2 over DRAM.

    The caches are built on first use, and a restored snapshot is
    applied only then.  The atomic model reads ``memory`` directly, so
    its runs never build, fill or unpickle thousands of cache sets; every
    reader of the caches (the timing models, stats, snapshots, the
    profiler) builds them and sees the restored state.
    """

    # Fixed slots let an instance switch between this class and
    # _UnbuiltHierarchy without moving its attributes, so CPython keeps
    # its fast, specialised loads of them; __dict__ holds per-instance
    # method wrappers (the profiler's).
    __slots__ = ("memory", "config", "_pending", "l1i", "l1d", "l2",
                 "__dict__")

    def __init__(self, memory: MainMemory,
                 config: HierarchyConfig | None = None) -> None:
        self.memory = memory
        self.config = config or HierarchyConfig()
        # The snapshot the caches take when they are built: a
        # snapshot() dict, its pickled bytes, or None for cold caches.
        self._pending = None
        self.__class__ = _UnbuiltHierarchy

    # -- functional + timing access paths -------------------------------------

    def fetch(self, pc: int) -> tuple[int, int]:
        """Instruction fetch: returns (word, latency)."""
        word = self.memory.fetch(pc)
        return word, self.l1i.access(pc)

    def read(self, addr: int, size: int,
             pc: int | None = None) -> tuple[int, int]:
        value = self.memory.read(addr, size, pc=pc)
        return value, self.l1d.access(addr)

    def write(self, addr: int, size: int, value: int,
              pc: int | None = None) -> int:
        self.memory.write(addr, size, value, pc=pc)
        return self.l1d.access(addr, write=True)

    # -- bookkeeping -----------------------------------------------------------

    def stats(self) -> dict:
        return {
            "l1i": self.l1i.stats.as_dict(),
            "l1d": self.l1d.stats.as_dict(),
            "l2": self.l2.stats.as_dict(),
        }

    def snapshot(self) -> dict:
        return {"l1i": self.l1i.snapshot(), "l1d": self.l1d.snapshot(),
                "l2": self.l2.snapshot()}

    def restore(self, snap: dict | bytes) -> None:
        """Install *snap*, a :meth:`snapshot` or its pickled bytes (a
        checkpoint rung's form).  Unbuilt caches take it when they are
        first used."""
        if isinstance(snap, bytes):
            snap = pickle.loads(snap)
        for name in _LEVELS:
            getattr(self, name).restore(snap[name])


class _UnbuiltHierarchy(MemoryHierarchy):
    """A hierarchy whose caches do not exist yet.  The first access to
    one (an empty slot) builds all three, makes the instance a plain
    :class:`MemoryHierarchy` again and applies the pending snapshot.  A
    ``__getattr__`` on the class of a built hierarchy would slow every
    attribute access of the timing models, so built ones have none."""

    __slots__ = ()

    def __getattr__(self, name: str):
        if name not in _LEVELS:
            raise AttributeError(name)
        config = self.config
        self.l2 = Cache(config.l2, memory_latency=config.memory_latency)
        self.l1i = Cache(config.l1i, next_level=self.l2)
        self.l1d = Cache(config.l1d, next_level=self.l2)
        self.__class__ = MemoryHierarchy
        pending, self._pending = self._pending, None
        if pending is not None:
            self.restore(pending)
        return getattr(self, name)

    def restore(self, snap: dict | bytes) -> None:
        self._pending = snap
