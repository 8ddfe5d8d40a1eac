"""Simulator self-profiler: where does *host* time go?

PRs 2-3 made the simulated program observable; this module turns the
same lens on the simulator itself.  ZOFI argues that the value of a
fault-injection tool is bounded by its measured overhead — so the repo
needs a first-class way to measure itself before any perf PR can prove
it helped.  Two complementary modes:

* :class:`Profiler` — lightweight *scoped timers*.  ``install(sim)``
  wraps the hot entry points of an assembled platform (the run loop, the
  CPU model's pipeline stages, the cache hierarchy, the OS-lite kernel,
  the injector hooks and the telemetry sinks) with self-time-attributing
  wrappers.  Attribution is exclusive ("self") time: a nested scope's
  elapsed time is subtracted from its parent, so the buckets partition
  the run-loop wall time and sum to ~100% of it.  Full enter-stacks are
  also folded into flame-graph lines (``Profiler.folded``).
* :class:`SamplingProfiler` — optional signal-based statistical
  sampling (``SIGPROF``/``ITIMER_PROF``).  No wrappers, near-zero
  distortion, coarser answers; useful to sanity-check what the scoped
  timers report.

**Zero overhead when disabled** is structural, not a fast-path test:
profiling works by *replacing bound methods on one simulator instance*.
A simulator that never called ``install`` runs the exact same code
objects as before this module existed — there is no flag, no pointer
test, nothing on any instruction path.  ``uninstall`` deletes the
instance attributes again, restoring the class-level methods
byte-identically (asserted in tests/test_profiler.py).

Stage-bucket vocabulary (per-component host-time attribution):

====================  =======================================================
bucket                what lands there (self time)
====================  =======================================================
``loop``              the simulator run loop itself (quantum/poll checks)
``cpu.step``          CPU-model step dispatch and hazard bookkeeping
``cpu.fetch``         instruction fetch (MainMemory/MemoryHierarchy.fetch)
``cpu.decode``        DecodeCache.decode
``cpu.rename``        O3 front end minus fetch/decode: predict + ROB insert
``cpu.issue``         O3 commit-side scoreboard wakeup/select
``cpu.execute``       Core.execute minus nested memory accesses
``cpu.mem``           data-side memory reads/writes
``cpu.commit``        commit bookkeeping (serve_instruction / O3 _retire)
``cpu.block``         the atomic model's cold blocks minus nested memory
                      accesses and decodes (fetch, execute and commit of
                      every instruction no FI hook can touch)
``cpu.switch``        mid-run CPU model switches (drain + rebuild)
``mem.l1i/l1d/l2``    cache tag/LRU modelling per level
``kernel.syscall``    the OS-lite syscall path
``kernel.schedule``   context switches and run-queue management
``kernel.process``    process exit/crash handling
``injector``          all GemFI per-stage hooks and pseudo-instructions
``telemetry.sink``    trace-bus sink delivery
``checkpoint``        checkpoint capture
====================  =======================================================

Models without a stage simply never touch its bucket (an AtomicSimple
run reports no ``cpu.rename`` line), mirroring the uniform-counter
philosophy of :mod:`repro.sim.stats` without emitting noise zeros.
"""

from __future__ import annotations

import signal
import time


class _TimedDecodeCache:
    """Timing proxy for :class:`~repro.isa.instructions.DecodeCache`.

    DecodeCache is ``__slots__``-ed, so its ``decode`` method cannot be
    shadowed per instance; the profiler swaps the core's reference to
    this delegating proxy instead (and swaps the original back on
    uninstall).
    """

    def __init__(self, inner, profiler: "Profiler") -> None:
        self._inner = inner
        self._profiler = profiler

    def decode(self, word):
        profiler = self._profiler
        frame = profiler._enter("cpu.decode")
        try:
            return self._inner.decode(word)
        finally:
            profiler._exit(frame)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Profiler:
    """Scoped-timer host-time attribution over one simulator.

    Accounting model: a stack of frames, one per active scope.  On exit
    a frame's *self* time (elapsed minus the elapsed of its nested
    children) is added to its bucket, and its full elapsed time is
    charged to the parent's child accumulator.  Self times therefore
    partition the wall time of the outermost scopes exactly; wrapper
    bookkeeping executed after a child's exit timestamp is absorbed by
    the parent frame, so nothing leaks except the outermost scope's own
    epilogue (a handful of dict updates per ``run()`` call).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.buckets: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        # Folded enter-stacks: tuple of bucket names -> self seconds.
        self.paths: dict[tuple[str, ...], float] = {}
        self.total_seconds = 0.0        # elapsed of outermost scopes
        self._stack: list[list] = []    # frames: [bucket, start, child]
        # (obj, attr, previous instance override or None)
        self._wrapped: list[tuple] = []
        self._decode_cores: list[tuple] = []  # (core, original_cache)
        self._sim = None

    # -- frame accounting (also usable directly via scope()) -----------------

    def _enter(self, bucket: str) -> list:
        frame = [bucket, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        now = self.clock()
        stack = self._stack
        stack.pop()
        bucket, start, child = frame
        elapsed = now - start
        self_time = elapsed - child
        self.buckets[bucket] = self.buckets.get(bucket, 0.0) + self_time
        self.calls[bucket] = self.calls.get(bucket, 0) + 1
        if stack:
            stack[-1][2] += elapsed
            path = tuple(f[0] for f in stack) + (bucket,)
        else:
            self.total_seconds += elapsed
            path = (bucket,)
        self.paths[path] = self.paths.get(path, 0.0) + self_time

    class _Scope:
        __slots__ = ("profiler", "bucket", "frame")

        def __init__(self, profiler: "Profiler", bucket: str) -> None:
            self.profiler = profiler
            self.bucket = bucket

        def __enter__(self):
            self.frame = self.profiler._enter(self.bucket)
            return self

        def __exit__(self, *exc) -> None:
            self.profiler._exit(self.frame)

    def scope(self, bucket: str) -> "Profiler._Scope":
        """Context manager timing an ad-hoc region into *bucket*."""
        return Profiler._Scope(self, bucket)

    # -- method wrapping ------------------------------------------------------

    def wrap(self, obj, attr: str, bucket: str) -> None:
        """Shadow ``obj.attr`` (a bound method) with a timed wrapper.

        The wrapper lives as an *instance* attribute so other instances
        of the class — and this instance after :meth:`uninstall` — keep
        running the original, untouched code object.
        """
        original = getattr(obj, attr)
        enter = self._enter
        exit_ = self._exit

        def timed(*args, **kwargs):
            frame = enter(bucket)
            try:
                return original(*args, **kwargs)
            finally:
                exit_(frame)

        timed.__profiled__ = bucket
        # An instance override already in place (the hash-lookup
        # ablation's serve_instruction) is put back on uninstall.
        self._wrapped.append((obj, attr, vars(obj).get(attr)))
        setattr(obj, attr, timed)

    # -- platform instrumentation ---------------------------------------------

    def install(self, sim) -> "Profiler":
        """Thread scoped timers through every layer of *sim*.

        Covers the run loop, the active CPU model (re-wrapped across
        mid-run model switches), the memory hierarchy, the kernel, the
        injector and any attached trace-bus sinks.  Returns self.
        """
        if self._sim is not None:
            raise RuntimeError("profiler is already installed")
        self._sim = sim

        self.wrap(sim, "run", "loop")
        self.wrap(sim, "_take_checkpoint", "checkpoint")

        # Memory system: instruction side -> cpu.fetch, data side ->
        # cpu.mem, per-level cache modelling -> mem.l1i/l1d/l2.
        self.wrap(sim.memory, "fetch", "cpu.fetch")
        self.wrap(sim.memory, "read", "cpu.mem")
        self.wrap(sim.memory, "write", "cpu.mem")
        self.wrap(sim.hierarchy, "fetch", "cpu.fetch")
        self.wrap(sim.hierarchy, "read", "cpu.mem")
        self.wrap(sim.hierarchy, "write", "cpu.mem")
        for level in ("l1i", "l1d", "l2"):
            self.wrap(getattr(sim.hierarchy, level), "access",
                      f"mem.{level}")

        core = sim.core
        self.wrap(core, "serve_instruction", "cpu.commit")
        self.wrap(core, "execute", "cpu.execute")
        self._decode_cores.append((core, core.decode_cache))
        core.decode_cache = _TimedDecodeCache(core.decode_cache, self)

        system = sim.system
        self.wrap(system, "syscall", "kernel.syscall")
        self.wrap(system, "schedule", "kernel.schedule")
        self.wrap(system, "on_exit", "kernel.process")
        self.wrap(system, "on_crash", "kernel.process")

        injector = sim.injector
        if injector is not None:
            for hook in ("on_fetch", "on_decode", "on_execute",
                         "on_mem", "on_commit", "on_trace", "observe",
                         "handle_fi_activate"):
                self.wrap(injector, hook, "injector")

        if sim.bus is not None:
            for sink in sim.bus.sinks:
                self.wrap(sink, "accept", "telemetry.sink")

        self._wrap_cpu(sim.cpu)

        # switch_model replaces sim.cpu with a fresh (unwrapped) model;
        # intercept it so the new model's stages stay attributed.
        original_switch = sim.switch_model
        enter = self._enter
        exit_ = self._exit

        def switch_model(model_name: str) -> None:
            frame = enter("cpu.switch")
            try:
                original_switch(model_name)
            finally:
                exit_(frame)
            self._wrap_cpu(sim.cpu)

        switch_model.__profiled__ = "cpu.switch"
        sim.switch_model = switch_model
        self._wrapped.append((sim, "switch_model", None))

        sim.profiler = self
        return self

    def _wrap_cpu(self, cpu) -> None:
        """Per-stage wrappers for the active CPU model."""
        self.wrap(cpu, "step", "cpu.step")
        if cpu.model_name == "atomic":
            self.wrap(cpu, "run_block", "cpu.block")
        if cpu.model_name == "o3":
            # Self times: _frontend minus fetch/decode = predict + ROB
            # insert (rename); _commit minus execute/_retire = the
            # scoreboard wakeup/select loop (issue).
            self.wrap(cpu, "_frontend", "cpu.rename")
            self.wrap(cpu, "_commit", "cpu.issue")
            self.wrap(cpu, "_retire", "cpu.commit")

    def uninstall(self) -> None:
        """Delete every instance override, restoring the original
        class-level methods, or the instance override that was there
        before (and the original decode cache)."""
        for obj, attr, previous in reversed(self._wrapped):
            if previous is not None:
                setattr(obj, attr, previous)
                continue
            try:
                delattr(obj, attr)
            except AttributeError:
                pass
        self._wrapped.clear()
        for core, cache in self._decode_cores:
            core.decode_cache = cache
        self._decode_cores.clear()
        if self._sim is not None:
            self._sim.profiler = None
            self._sim = None

    @property
    def installed(self) -> bool:
        return self._sim is not None

    # -- results ---------------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Total elapsed time of the outermost profiled scopes (i.e.
        time spent inside ``sim.run``)."""
        return self.total_seconds

    def attribution(self) -> dict[str, float]:
        """Bucket -> self seconds, every recorded bucket."""
        return dict(self.buckets)

    def attributed_seconds(self) -> float:
        return sum(self.buckets.values())

    def coverage(self, wall_seconds: float | None = None) -> float:
        """Fraction of *wall_seconds* the buckets account for (the
        acceptance bar is >= 0.90 on every CPU model)."""
        wall = self.total_seconds if wall_seconds is None \
            else wall_seconds
        if wall <= 0:
            return 0.0
        return self.attributed_seconds() / wall

    def folded(self) -> str:
        """Brendan-Gregg folded-stack lines (``a;b;c <microseconds>``),
        ready for ``flamegraph.pl`` or speedscope."""
        lines = []
        for path, seconds in sorted(self.paths.items()):
            micros = round(seconds * 1e6)
            if micros:
                lines.append(";".join(path) + f" {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render_table(self, wall_seconds: float | None = None) -> str:
        """The ``gemfi run --profile`` attribution table."""
        wall = self.total_seconds if wall_seconds is None \
            else wall_seconds
        rows = sorted(self.buckets.items(),
                      key=lambda item: (-item[1], item[0]))
        lines = [f"{'component':<18} {'self':>10} {'share':>7} "
                 f"{'calls':>12}"]
        for bucket, seconds in rows:
            share = seconds / wall if wall > 0 else 0.0
            lines.append(f"{bucket:<18} {seconds:>9.4f}s {share:>6.1%} "
                         f"{self.calls.get(bucket, 0):>12}")
        attributed = self.attributed_seconds()
        share = attributed / wall if wall > 0 else 0.0
        lines.append(f"{'attributed':<18} {attributed:>9.4f}s "
                     f"{share:>6.1%}")
        return "\n".join(lines)


# -- sim-rate helpers ---------------------------------------------------------


def sim_rates(instructions: int, ticks: int,
              wall_seconds: float) -> dict[str, float]:
    """The three sim-rate gauges: committed-KIPS, ticks/second and
    host-seconds per simulated instruction."""
    if wall_seconds <= 0:
        return {"kips": 0.0, "ticks_per_second": 0.0,
                "host_seconds_per_instruction": 0.0}
    return {
        "kips": instructions / wall_seconds / 1e3,
        "ticks_per_second": ticks / wall_seconds,
        "host_seconds_per_instruction":
            wall_seconds / instructions if instructions else 0.0,
    }


# -- signal-based sampling ----------------------------------------------------

# Innermost-repro-frame -> component mapping for sample attribution.
_COMPONENT_PREFIXES = (
    ("repro/cpu/", "cpu"),
    ("repro/memory/", "mem"),
    ("repro/system/", "kernel"),
    ("repro/core/", "injector"),
    ("repro/telemetry/", "telemetry"),
    ("repro/isa/", "isa"),
    ("repro/sim/", "loop"),
)


def _component_of(filename: str) -> str | None:
    normalized = filename.replace("\\", "/")
    for prefix, component in _COMPONENT_PREFIXES:
        if prefix in normalized:
            return component
    return None


class SamplingProfiler:
    """Statistical profiler: periodic ``SIGPROF`` stack samples.

    Complements the scoped timers: no wrappers, so (almost) no observer
    effect, at the cost of needing enough CPU seconds for the sample
    population to stabilise.  ``ITIMER_PROF`` counts *CPU* time, so a
    sleeping simulator is never sampled.  Main-thread only (a CPython
    signal-handler restriction); :meth:`start` raises ``ValueError``
    elsewhere, which ``gemfi run --sample`` reports cleanly.
    """

    def __init__(self, hz: int = 97, max_depth: int = 64) -> None:
        if hz <= 0:
            raise ValueError("sampling frequency must be positive")
        self.interval = 1.0 / hz
        self.max_depth = max_depth
        self.samples = 0
        self.stacks: dict[tuple[str, ...], int] = {}
        self.components: dict[str, int] = {}
        self._previous_handler = None
        self._running = False

    # The handler body is also the test seam: tests call sample() with a
    # real frame object directly, no timer involved.
    def _handle(self, signum, frame) -> None:  # pragma: no cover - timer
        self.sample(frame)

    def sample(self, frame) -> None:
        """Record one stack sample rooted at *frame*."""
        stack: list[str] = []
        component = None
        depth = 0
        while frame is not None and depth < self.max_depth:
            code = frame.f_code
            name = code.co_filename.rsplit("/", 1)[-1]
            if name.endswith(".py"):
                name = name[:-3]
            stack.append(f"{name}.{code.co_name}")
            if component is None:
                component = _component_of(code.co_filename)
            frame = frame.f_back
            depth += 1
        stack.reverse()
        path = tuple(stack)
        self.stacks[path] = self.stacks.get(path, 0) + 1
        self.samples += 1
        bucket = component or "other"
        self.components[bucket] = self.components.get(bucket, 0) + 1

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGPROF,
                                               self._handle)
        signal.setitimer(signal.ITIMER_PROF, self.interval,
                         self.interval)
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGPROF, self._previous_handler)
        self._previous_handler = None
        self._running = False

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def folded(self) -> str:
        """Folded-stack lines, weights in sample counts."""
        lines = [";".join(path) + f" {count}"
                 for path, count in sorted(self.stacks.items())]
        return "\n".join(lines) + ("\n" if lines else "")

    def attribution(self) -> dict[str, float]:
        """Component -> fraction of samples."""
        if not self.samples:
            return {}
        return {name: count / self.samples
                for name, count in sorted(self.components.items())}

    def render_table(self) -> str:
        lines = [f"{'component':<18} {'samples':>8} {'share':>7}"]
        for name, count in sorted(self.components.items(),
                                  key=lambda item: (-item[1], item[0])):
            share = count / self.samples if self.samples else 0.0
            lines.append(f"{name:<18} {count:>8} {share:>6.1%}")
        lines.append(f"{'total':<18} {self.samples:>8}")
        return "\n".join(lines)
