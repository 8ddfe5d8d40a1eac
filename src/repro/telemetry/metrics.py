"""gem5-style hierarchical statistics primitives.

gem5 builds its ``stats.txt`` from typed statistic objects — scalars,
distributions, histograms and formulas — registered under dotted
hierarchical names.  This module provides the same vocabulary for the
reproduction: :mod:`repro.sim.stats` assembles a :class:`MetricsRegistry`
per simulator, and every dump renders in the one sorted ``name value``
format the Section IV.A validation diffs.

All statistics are deterministic: insertion order never leaks into the
dump (it is sorted), and floating-point values are formatted with a
fixed precision so byte-level diffs of two identical runs are empty.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator


def format_value(value: Any) -> str:
    """Deterministic rendering of one statistic value."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


class Counter:
    """A monotonically adjustable scalar count."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def items(self, name: str) -> Iterator[tuple[str, Any]]:
        yield name, self.value


class Scalar:
    """A sampled value (counter snapshot, state string, gauge)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def items(self, name: str) -> Iterator[tuple[str, Any]]:
        yield name, self.value


class Distribution:
    """Running summary of a sample stream: count/min/max/mean/stdev.

    Mirrors gem5's ``Stats::Distribution`` summary lines without storing
    the samples themselves, so recording is O(1) per sample.
    """

    __slots__ = ("count", "total", "squares", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.squares = 0.0
        self.min = 0.0
        self.max = 0.0

    def record(self, sample: float) -> None:
        sample = float(sample)
        if self.count == 0:
            self.min = sample
            self.max = sample
        else:
            self.min = min(self.min, sample)
            self.max = max(self.max, sample)
        self.count += 1
        self.total += sample
        self.squares += sample * sample

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stdev(self) -> float:
        if self.count < 2:
            return 0.0
        variance = (self.squares - self.total * self.total / self.count) \
            / (self.count - 1)
        return math.sqrt(max(0.0, variance))

    def items(self, name: str) -> Iterator[tuple[str, Any]]:
        yield f"{name}.count", self.count
        yield f"{name}.min", self.min
        yield f"{name}.max", self.max
        yield f"{name}.mean", self.mean
        yield f"{name}.stdev", self.stdev


class Histogram:
    """Fixed-bucket histogram (gem5's ``Stats::Histogram``).

    *bounds* are inclusive upper edges; samples above the last bound land
    in the overflow bucket.
    """

    __slots__ = ("bounds", "buckets", "overflow", "samples", "total")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and "
                             "non-empty")
        self.bounds = tuple(bounds)
        self.buckets = [0] * len(self.bounds)
        self.overflow = 0
        self.samples = 0
        # Running sum of the samples.  Deliberately *not* part of
        # items(): the gem5-style dump stays byte-identical; only the
        # OpenMetrics exposition (repro.telemetry.export) reads it,
        # as the histogram family's _sum line.
        self.total = 0.0

    def record(self, sample: float) -> None:
        self.samples += 1
        self.total += float(sample)
        for index, bound in enumerate(self.bounds):
            if sample <= bound:
                self.buckets[index] += 1
                return
        self.overflow += 1

    def items(self, name: str) -> Iterator[tuple[str, Any]]:
        yield f"{name}.samples", self.samples
        for bound, count in zip(self.bounds, self.buckets):
            yield f"{name}.le_{format_value(bound)}", count
        yield f"{name}.overflow", self.overflow


class Formula:
    """A statistic derived from others, evaluated lazily at dump time
    (gem5's ``Stats::Formula``; e.g. IPC = instructions / ticks)."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[["MetricsRegistry"], Any]) -> None:
        self.fn = fn

    def items(self, name: str) -> Iterator[tuple[str, Any]]:
        # The registry is bound at registration time via a closure slot
        # injected by MetricsRegistry.formula(); see there.
        raise NotImplementedError  # pragma: no cover - replaced per-registry


class MetricsRegistry:
    """Hierarchical name -> statistic mapping with a diffable dump.

    Names are dotted paths (``system.cpu0.bp.lookups``); :meth:`scope`
    returns a prefixed view so subsystems can register under their own
    subtree without knowing the full path.
    """

    def __init__(self) -> None:
        self._stats: dict[str, Any] = {}

    # -- registration (get-or-create, so hot paths can cache the object) --

    def _register(self, name: str, factory):
        stat = self._stats.get(name)
        if stat is None:
            stat = factory()
            self._stats[name] = stat
        return stat

    def counter(self, name: str) -> Counter:
        return self._register(name, Counter)

    def distribution(self, name: str) -> Distribution:
        return self._register(name, Distribution)

    def histogram(self, name: str,
                  bounds: tuple[float, ...]) -> Histogram:
        return self._register(name, lambda: Histogram(bounds))

    def formula(self, name: str,
                fn: Callable[["MetricsRegistry"], Any]) -> Formula:
        stat = Formula(fn)
        self._stats[name] = stat
        return stat

    def set(self, name: str, value: Any) -> None:
        """Record a sampled scalar (snapshot counters, state strings)."""
        self._stats[name] = Scalar(value)

    def scope(self, prefix: str) -> "Scope":
        return Scope(self, prefix)

    def prune(self, prefix: str) -> int:
        """Drop every statistic at or under *prefix* (the name itself,
        dotted children, and labelled series ``prefix{...}``).  Used
        by scrape-time refreshers to clear enumerated gauge sets —
        e.g. per-tenant queue gauges — so a tenant that disappears
        does not leave a stale series behind."""
        doomed = [name for name in self._stats
                  if name == prefix
                  or name.startswith(prefix + ".")
                  or name.startswith(prefix + "{")]
        for name in doomed:
            del self._stats[name]
        return len(doomed)

    # -- queries -----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    def stats(self) -> dict[str, Any]:
        """A snapshot of the raw statistic objects by name (the
        OpenMetrics renderer walks this to type each family)."""
        return dict(self._stats)

    def get(self, name: str) -> Any:
        """The current value of one statistic (formulas are evaluated).

        Non-formula statistics are resolved directly, so a formula can
        reference them via ``get`` without recursing through itself.
        """
        stat = self._stats.get(name)
        if isinstance(stat, Formula):
            return stat.fn(self)
        if stat is not None:
            return next(iter(stat.items(name)))[1]
        # Expanded sub-line of a distribution/histogram (e.g. "x.mean").
        for base, candidate in self._stats.items():
            if isinstance(candidate, Formula):
                continue
            if name.startswith(base + "."):
                for key, value in candidate.items(base):
                    if key == name:
                        return value
        return None

    def as_flat_dict(self) -> dict[str, Any]:
        """Flatten every statistic into ``{name: value}`` (distributions
        and histograms expand into their summary lines)."""
        flat: dict[str, Any] = {}
        for name, stat in self._stats.items():
            if isinstance(stat, Formula):
                flat[name] = stat.fn(self)
            else:
                for key, value in stat.items(name):
                    flat[key] = value
        return flat

    def dump(self) -> str:
        """Sorted ``name value`` text, one statistic per line — the
        gem5 stats.txt shape, byte-stable for identical runs."""
        lines = [f"{name} {format_value(value)}"
                 for name, value in sorted(self.as_flat_dict().items())]
        return "\n".join(lines) + "\n" if lines else ""


class Scope:
    """A prefixed view over a registry (gem5's group hierarchy)."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix.rstrip(".")

    def _name(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._name(name))

    def distribution(self, name: str) -> Distribution:
        return self._registry.distribution(self._name(name))

    def histogram(self, name: str,
                  bounds: tuple[float, ...]) -> Histogram:
        return self._registry.histogram(self._name(name), bounds)

    def formula(self, name: str, fn) -> Formula:
        return self._registry.formula(self._name(name), fn)

    def set(self, name: str, value: Any) -> None:
        self._registry.set(self._name(name), value)

    def scope(self, prefix: str) -> "Scope":
        return Scope(self._registry, self._name(prefix))
