"""Whole-simulator checkpointing (the DMTCP substitute, Section III.D).

The paper checkpoints the *Linux process running the simulator* with
DMTCP rather than using gem5's internal checkpoints (which either force a
pipeline-flushing model switch or require the slow MOESI-hammer ruby
model).  The Python equivalent of a process-level checkpoint is a
complete snapshot of the simulator object graph: memory pages, caches,
architectural state, kernel state, predictor tables and the tick clock.

Restoring builds a fresh ``FaultInjector`` from the experiment's fault
configuration and resets it, so one checkpoint fast-forwards *every*
experiment of a campaign past boot + application initialisation
(Fig. 3).

Campaigns also snapshot fault-free runs at later points (the *rungs* of
a checkpoint ladder, :func:`rung_state`): an experiment whose faults
cannot fire before a rung starts there, and a faulty run whose machine
state equals a later rung exactly (:func:`matches_rung`) has rejoined
the golden run.  Unlike a checkpoint, a rung keeps the O3 model's
in-flight pipeline, as a DMTCP process snapshot would.
"""

from __future__ import annotations

import io
import pickle

from ..core.fault import Fault
from ..core.injector import FaultInjector
from ..core.thread_state import ThreadEnabledFault
from .config import SimConfig
from .simulator import Simulator

FORMAT_VERSION = 3

#: CPU models that never touch the cache hierarchy: their rungs share
#: one hierarchy snapshot and comparisons skip it.
CACHELESS_MODELS = ("atomic",)


class CheckpointError(Exception):
    """Raised for version or content mismatches on restore."""


def snapshot_state(sim: Simulator) -> dict:
    """Capture everything needed to resume *sim* exactly where it is."""
    return _state(sim, sim.memory.snapshot(), sim.hierarchy.snapshot())


def _state(sim: Simulator, memory: dict, hierarchy) -> dict:
    return {
        "version": FORMAT_VERSION,
        "config": sim.config,
        "tick": sim.tick,
        "instructions": sim.instructions,
        "memory": memory,
        "hierarchy": hierarchy,
        "core": sim.core.snapshot(),
        "cpu_model": sim.cpu.model_name,
        "cpu": sim.cpu.snapshot(),
        "system": sim.system.snapshot(),
        "program_sources": dict(sim.program_sources),
    }


def rung_state(sim: Simulator, previous: dict | None = None) -> dict:
    """Snapshot *sim* mid-run as one rung of a checkpoint ladder.

    On top of :func:`snapshot_state` a rung carries what a resume past
    the FI activation needs and a boot checkpoint does not: the
    scheduler's quantum counter, the FI thread table (thread id, PCB,
    activation tick, committed, base_committed) and, on the O3 model,
    the in-flight pipeline (``O3CPU.inflight``).  Memory pages
    equal to *previous*'s share its bytes objects, and so does the
    hierarchy on cacheless models, so a ladder costs little more than
    the pages each rung dirtied.  The hierarchy is kept pickled: as
    thousands of per-set lists it would swell the garbage collector's
    long-lived generation for as long as the ladder lives.
    """
    if previous is not None and sim.cpu.model_name in CACHELESS_MODELS:
        hierarchy = previous["hierarchy"]
    else:
        hierarchy = _hierarchy_blob(sim)
    state = _state(sim, sim.memory.snapshot(
        previous["memory"] if previous is not None else None), hierarchy)
    state["quantum_counter"] = sim._quantum_counter
    state["fi_threads"] = [
        (t.thread_id, t.pcb_addr, t.activation_tick, t.committed,
         t.base_committed)
        for t in sim.injector.threads.active_threads()]
    inflight = _inflight(sim)
    if inflight is not None:
        state["inflight"] = inflight
    return state


def _inflight(sim: Simulator) -> tuple | None:
    """The CPU model's in-flight state; None on models without one."""
    inflight = getattr(sim.cpu, "inflight", None)
    return inflight() if inflight is not None else None


def matches_rung(sim: Simulator, state: dict) -> bool:
    """True when *sim*'s machine state equals the rung *state* exactly:
    clock, instruction count and quantum counter; register files, PC,
    PCB and committed count; memory; the kernel (consoles included);
    the CPU model and its in-flight pipeline; and, on models that read
    it, the cache hierarchy.  Cheap fields are compared first."""
    if (sim.tick != state["tick"]
            or sim.instructions != state["instructions"]
            or sim._quantum_counter != state["quantum_counter"]
            or sim.core.snapshot() != state["core"]
            or not sim.memory.matches(state["memory"])
            or sim.system.snapshot() != state["system"]
            or sim.cpu.model_name != state["cpu_model"]
            or sim.cpu.snapshot() != state["cpu"]
            or _inflight(sim) != state.get("inflight")):
        return False
    return (sim.cpu.model_name in CACHELESS_MODELS
            or _hierarchy_blob(sim) == state["hierarchy"])


def _hierarchy_blob(sim: Simulator) -> bytes:
    return pickle.dumps(sim.hierarchy.snapshot(),
                        protocol=pickle.HIGHEST_PROTOCOL)


def save_checkpoint(sim: Simulator, path) -> None:
    """Serialise a checkpoint to *path*."""
    with open(path, "wb") as handle:
        pickle.dump(snapshot_state(sim), handle,
                    protocol=pickle.HIGHEST_PROTOCOL)


def dumps_checkpoint(sim: Simulator) -> bytes:
    """Serialise a checkpoint to bytes (in-memory campaigns)."""
    buffer = io.BytesIO()
    pickle.dump(snapshot_state(sim), buffer,
                protocol=pickle.HIGHEST_PROTOCOL)
    return buffer.getvalue()


def restore_checkpoint(source, faults: list[Fault] | None = None,
                       config_override: SimConfig | None = None,
                       bus=None, tracer=None) -> Simulator:
    """Rebuild a simulator from a checkpoint.

    ``source`` is a path, a bytes blob or an in-memory rung
    (:func:`rung_state`; never mutated).  ``faults`` installs a fresh
    fault configuration (the per-experiment input file); the injector is
    always reset, matching ``fi_read_init_all`` semantics.
    ``config_override`` lets campaigns restore into a different CPU model
    (e.g. the detailed O3 model for the injection window).  ``bus``
    attaches a :class:`~repro.telemetry.TraceBus` to the restored
    platform and reports the restore on it.  ``tracer`` wraps the
    restore in a ``checkpoint_restore`` span and stays attached to the
    simulator, so span context survives the save/restore boundary.
    """
    span = None
    if tracer is not None:
        span = tracer.start("checkpoint_restore", kind="checkpoint")
    try:
        sim = _restore(source, faults, config_override, bus)
    except Exception:
        if span is not None:
            tracer.finish(span, error=True)
        raise
    if tracer is not None:
        sim.tracer = tracer
        tracer.finish(span, tick=sim.tick,
                      instructions=sim.instructions,
                      faults=len(faults or []))
    return sim


def _restore(source, faults, config_override, bus) -> Simulator:
    if isinstance(source, dict):
        state = source
    elif isinstance(source, (bytes, bytearray)):
        state = pickle.loads(bytes(source))
    else:
        with open(source, "rb") as handle:
            state = pickle.load(handle)
    if state.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint version {state.get('version')} != "
            f"{FORMAT_VERSION}")

    config = config_override or state["config"]
    injector = FaultInjector(faults or [])
    sim = Simulator(config=config, injector=injector)

    # Blow away the fresh platform state and install the snapshot.
    sim.tick = state["tick"]
    sim.instructions = state["instructions"]
    sim.memory.restore(state["memory"])
    # Dict or a rung's pickled bytes: applied when a reader builds the
    # caches, which an atomic run never does.
    sim.hierarchy.restore(state["hierarchy"])
    sim.core.restore(state["core"])
    sim.system.restore(state["system"])
    sim.program_sources = dict(state["program_sources"])

    # CPU model: honour the override, otherwise resume the stored model.
    target_model = config.cpu_model if config_override is not None \
        else state["cpu_model"]
    if sim.cpu.model_name != target_model:
        from ..cpu import CPU_MODELS
        sim.cpu = CPU_MODELS[target_model](sim.core)
    if sim.cpu.model_name == state["cpu_model"]:
        sim.cpu.restore(state["cpu"])
        if "inflight" in state:
            sim.cpu.restore_inflight(state["inflight"])

    # The restored core must point at the (restored) injector state.
    injector.reset()
    if sim.system.current_pid is not None:
        current = sim.system.processes[sim.system.current_pid]
        sim.core.pcb_addr = current.pcb_addr
    # Rungs resume mid-window: reinstate the FI threads and the quantum
    # (a boot checkpoint has neither, so both start empty).
    sim._quantum_counter = state.get("quantum_counter", 0)
    for thread_id, pcb_addr, tick, committed, base in \
            state.get("fi_threads", ()):
        injector.threads.insert(ThreadEnabledFault(
            thread_id=thread_id, pcb_addr=pcb_addr, activation_tick=tick,
            committed=committed, base_committed=base))
    sim.core.fi_thread = injector.threads.lookup(sim.core.pcb_addr)
    if bus is not None:
        sim.attach_bus(bus)
        bus.emit("checkpoint_restore", tick=sim.tick,
                 instructions=sim.instructions,
                 faults=len(faults or []))
        for fault in faults or []:
            bus.emit("fault_armed", fault=fault.describe())
    return sim
