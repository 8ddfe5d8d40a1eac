"""Campaign execution: golden run, checkpoint ladder, per-experiment
restore.

Implements the methodology of Section IV.B.1:

1. run the application once without faults — this provides the golden
   outputs, the FI-window profile used for fault-time sampling, and (at
   the ``fi_read_init_all`` call, i.e. after boot + initialisation) the
   checkpoint all experiments restore from (Fig. 3).  The golden run
   then continues on a restore of that checkpoint — the path every
   experiment takes — and snapshots a bounded *ladder* of later points
   (rungs) on the way;
2. per experiment: restore the latest rung its faults cannot precede,
   install the experiment's fault configuration, simulate (optionally
   starting in the detailed O3 model and dropping to atomic once the
   fault has committed), stop as soon as the faulty run's machine state
   equals a later rung (the rest of the run is the golden run's), and
   classify the outcome.

With a detailed model the golden run (atomic) has no rungs the
experiments could start at.  Its ladder holds empty slots instead, a
golden climb's stride apart, and the experiments fill them: until a
fault strikes, a detailed run *is* the fault-free detailed run, so it
keeps its state at each empty slot it stops at.  Detailed runs never
exit early, since their ticks differ from the atomic golden run's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

from ..compiler import compile_source
from ..core.fault import Fault, TimeMode
from ..core.injector import FaultInjector
from ..core.parser import render_fault_file
from ..sim.checkpoint import (dumps_checkpoint, matches_rung,
                              restore_checkpoint, rung_state)
from ..sim.config import POLL_INTERVAL, SimConfig
from ..sim.simulator import RunResult, Simulator
from ..system.process import Process, ProcessState
from ..workloads.quality import Outputs, extract_outputs
from ..workloads.spec import WorkloadSpec
from .classify import Outcome, classify
from .generator import WindowProfile

#: Watchdog of the golden run and of the golden replays (instructions).
GOLDEN_LIMIT = 50_000_000
#: Watchdog of an experiment: this many golden runs' instructions
#: (plus 100k) from the boot checkpoint, then it counts as crashed.
WATCHDOG_FACTOR = 4.0
#: Most rungs a checkpoint ladder keeps, the boot rung included.
LADDER_RUNGS = 32
#: First distance between rungs, in scheduler poll intervals.  It
#: doubles, dropping every other rung, whenever the ladder fills, so
#: short windows get rungs and long ones thin back to a wide spacing.
RUNG_STRIDE_POLLS = 1


def _stride(length: int) -> int:
    """The stride a golden climb over *length* post-checkpoint
    instructions ends at: the first doubling that leaves fewer than
    ``LADDER_RUNGS`` rungs past the boot one."""
    stride = RUNG_STRIDE_POLLS * POLL_INTERVAL
    while (length - 1) // stride >= LADDER_RUNGS:
        stride *= 2
    return stride


@dataclass
class ExperimentResult:
    """Everything recorded about one fault-injection experiment."""

    fault: Fault
    outcome: Outcome
    injected: bool
    propagated: bool | None
    crash_reason: str | None
    instructions: int
    ticks: int
    wall_seconds: float
    console: str
    time_fraction: float          # fault time / FI-window length
    injection_pc: int | None = None
    injection_asm: str = ""
    injection_detail: str = ""
    # Pre-corruption value at the injection point (for FETCH faults
    # this is the original instruction word, used by the Table I
    # per-field analysis).
    injection_before: int | None = None
    # Whether the liveness analysis predicted this result instead of
    # simulating it.
    predicted: bool = False
    # Provenance (repro.telemetry): what produced this result, so the
    # campaign result JSON is self-describing and re-runnable — the
    # workload name, the generator's RNG seed (None for hand-written
    # fault files) and the complete fault input file of the experiment.
    workload: str = ""
    seed: int | None = None
    fault_file: str = ""
    # Flight recorder (repro.telemetry.flight): the first architectural
    # divergence from the golden run, and the def-use propagation graph
    # fault site -> corrupted defs -> outputs/trap.  None when the
    # runner's flight recorder is not enabled.
    divergence: dict | None = None
    propagation: dict | None = None
    # Host-time attribution of wall_seconds (repro.telemetry.profiler):
    # boot (simulator construction / checkpoint restore), window
    # (restore point to first injection), injection (first to last
    # injection) and drain (last injection to completion).  The four
    # values sum to wall_seconds.
    phases: dict | None = None
    # Checkpoint ladder: instructions after the boot checkpoint where
    # simulation resumed (0 = the boot checkpoint itself), and where
    # the faulty run's state rejoined the golden run, ending the
    # simulation early (None = it ran to completion).
    replay_start: int = 0
    early_exit: int | None = None

    def as_dict(self) -> dict:
        return {
            "fault": self.fault.describe(),
            "workload": self.workload,
            "seed": self.seed,
            "fault_file": self.fault_file,
            "outcome": self.outcome.value,
            "injected": self.injected,
            "propagated": self.propagated,
            "crash_reason": self.crash_reason,
            "instructions": self.instructions,
            "ticks": self.ticks,
            "wall_seconds": self.wall_seconds,
            "time_fraction": self.time_fraction,
            "injection_pc": self.injection_pc,
            "injection_asm": self.injection_asm,
            "injection_detail": self.injection_detail,
            "predicted": self.predicted,
            "divergence": self.divergence,
            "propagation": self.propagation,
            "phases": self.phases,
            "replay_start": self.replay_start,
            "early_exit": self.early_exit,
        }


def _experiment_phases(start: float, run_start: float, run_end: float,
                       injector) -> dict:
    """Attribute one experiment's wall time to campaign phases.

    ``boot`` is simulator construction (checkpoint restore); ``window``
    runs from the restore point to the first injection; ``injection``
    spans first to last injection; ``drain`` is everything after the
    last fault fired (simulate-to-outcome).  The injector stamps the
    injection host times inside ``_record`` — a per-experiment-rare
    event — so the split costs nothing per instruction.  The four
    phases sum to ``run_end - start``, i.e. exactly ``wall_seconds``.
    """
    boot = run_start - start
    first = getattr(injector, "first_injection_host", None)
    last = getattr(injector, "last_injection_host", None)
    if first is None or last is None:
        window = run_end - run_start
        injection = drain = 0.0
    else:
        window = first - run_start
        injection = last - first
        drain = run_end - last
    return {"boot": boot, "window": window,
            "injection": injection, "drain": drain}


@dataclass
class Rung:
    """One snapshot of a fault-free run on the checkpoint ladder."""

    position: int               # instructions after the boot checkpoint
    # rung_state(); None = the boot checkpoint (position 0) or a slot
    # no detailed run has filled yet
    state: dict | None = None
    # The rung's single active FI thread (None when it has none, or has
    # had another window) and its window position: the highest
    # instruction count any stage hook has seen there.  That is the
    # committed instructions since activation, plus one while an O3
    # ROB head has executed and waits out its latency.  Only faults of
    # that thread timed after the position can start here.
    thread_id: int | None = None
    window: int = 0


@dataclass
class GoldenRun:
    """Artifacts of the fault-free reference run."""

    outputs: Outputs
    profile: WindowProfile
    checkpoint: bytes | None
    instructions: int
    ticks: int
    wall_seconds: float
    boot_instructions: int      # instructions before the checkpoint
    console: str = ""
    stats_dump: str = ""
    exit_code: int | None = 0
    # The checkpoint ladder, by position; rungs[0] is the boot
    # checkpoint.  Empty without a checkpoint.  With a detailed model
    # the other rungs start as empty slots that experiments fill
    # (CampaignRunner._simulate).  Cutting it to rungs[:1] turns the
    # ladder, the harvest and the reconvergence exit off.
    rungs: list[Rung] = field(default_factory=list)


class CampaignRunner:
    """Runs fault-injection experiments for one workload."""

    def __init__(self, spec: WorkloadSpec,
                 config: SimConfig | None = None,
                 use_checkpoint: bool = True,
                 detailed_model: str | None = None,
                 bus=None, golden: GoldenRun | None = None) -> None:
        self.spec = spec
        self.config = config or SimConfig()
        self.use_checkpoint = use_checkpoint
        # Paper methodology: start experiments in the detailed model and
        # switch to atomic after the fault commits.  None = keep the
        # configured model for the whole run.
        self.detailed_model = detailed_model
        # Optional repro.telemetry trace bus: experiment lifecycle events
        # plus every simulator/injector event of each experiment run.
        self.bus = bus
        # Optional repro.telemetry.spans tracer: per-experiment spans
        # with phase children, threaded into checkpoint save/restore.
        self.tracer = None
        self._trace = None
        self._liveness = None
        self._flight = None
        self._flight_interval = None
        # rung position -> (count, stores) of the golden flight replay
        self._flight_marks: dict[int, tuple[int, int]] = {}
        self._experiment_index = 0
        # A published golden run (a worker's golden.pkl) is reused as is.
        self.golden = golden if golden is not None else self._golden_run()
        spec.golden_instructions = self.golden.profile.committed

    @cached_property
    def asm(self) -> str:
        """The workload's program, compiled on first use: only the
        golden run and the paths without a checkpoint load it."""
        return compile_source(self.spec.source)

    # -- golden phase ----------------------------------------------------------

    def _golden_run(self) -> GoldenRun:
        sim = Simulator(self.config, injector=FaultInjector())
        sim.load(self.asm, self.spec.name)
        checkpoint: bytes | None = None
        boot_instructions = 0
        rungs: list[Rung] = []
        start = time.perf_counter()
        if self.use_checkpoint:
            holder: dict[str, bytes] = {}
            sim.on_checkpoint = lambda s: holder.__setitem__(
                "blob", dumps_checkpoint(s))
            result = sim.run(until_checkpoint=True,
                             max_instructions=GOLDEN_LIMIT)
            if "blob" not in holder:
                raise RuntimeError(
                    f"workload '{self.spec.name}' never called "
                    "fi_read_init_all(); cannot checkpoint")
            checkpoint = holder["blob"]
            boot_instructions = sim.instructions
            # Continue on the path every experiment takes, so the
            # ladder's rungs are states an experiment really passes.
            sim = restore_checkpoint(checkpoint, faults=[])
            rungs = [Rung(position=0)]
            if self.detailed_model is None:
                rungs = self._climb(sim, boot_instructions)
        result = sim.run(max_instructions=GOLDEN_LIMIT)
        wall = time.perf_counter() - start
        injector = sim.injector
        if result.status != "completed":
            raise RuntimeError(
                f"golden run of '{self.spec.name}' did not complete: "
                f"{result.status}")
        process = sim.process(0)
        if process.crash_reason:
            raise RuntimeError(
                f"golden run of '{self.spec.name}' crashed: "
                f"{process.crash_reason}")
        if not injector.windows:
            raise RuntimeError(
                f"workload '{self.spec.name}' never completed an "
                "fi_activate window")
        profile = WindowProfile.from_injector_window(injector.windows[0])
        outputs = extract_outputs(self.spec, sim, process)
        if rungs and self.detailed_model is not None:
            length = result.instructions - boot_instructions
            stride = _stride(length)
            rungs += [Rung(position=position)
                      for position in range(stride, length, stride)]
        return GoldenRun(
            outputs=outputs, profile=profile, checkpoint=checkpoint,
            instructions=result.instructions, ticks=result.ticks,
            wall_seconds=wall, boot_instructions=boot_instructions,
            console=process.console_text(), stats_dump=sim.stats_dump(),
            exit_code=process.exit_code, rungs=rungs)

    # -- checkpoint ladder ---------------------------------------------------

    def _climb(self, sim: Simulator, boot: int) -> list[Rung]:
        """Run the golden simulator towards completion, snapshotting a
        rung at every stride-th poll boundary after the boot checkpoint
        (*boot* instructions).  A full ladder doubles the stride and
        keeps every other rung."""
        rungs = [Rung(position=0)]
        stride = RUNG_STRIDE_POLLS * POLL_INTERVAL
        while True:
            target = boot + rungs[-1].position + stride
            if target >= GOLDEN_LIMIT or \
                    sim.run(max_instructions=target).status != "limit":
                return rungs
            rungs.append(self._rung(sim, boot, rungs[-1].state))
            if len(rungs) > LADDER_RUNGS:
                stride *= 2
                rungs = rungs[:1] + rungs[2::2]

    @staticmethod
    def _rung(sim: Simulator, boot: int, previous: dict | None) -> Rung:
        """A rung at *sim*'s position, its state sharing pages with
        *previous* (an earlier rung's state or None)."""
        rung = Rung(position=sim.instructions - boot,
                    state=rung_state(sim, previous))
        injector = sim.injector
        threads = injector.threads.active_threads()
        if len(threads) == 1 and not injector.windows:
            thread = threads[0]
            rung.thread_id = thread.thread_id
            rung.window = thread.committed
            if sim.core.fi_thread is thread:
                rung.window = (
                    thread.effective_committed(sim.core.committed)
                    + getattr(sim.cpu, "executed_ahead", 0))
        return rung

    def _start_rung(self, faults: list[Fault]) -> Rung | None:
        """The latest rung no fault can fire before: every fault is
        instruction-timed and targets the rung's single active FI
        thread, and the rung's window position is below the earliest
        fault time.  With the flight recorder on, only rungs its golden
        log has a mark at qualify.  Otherwise the boot rung (None
        without a checkpoint)."""
        rungs = self.golden.rungs
        if not rungs:
            return None
        start = rungs[0]
        if not faults or any(f.time_mode is not TimeMode.INSTRUCTIONS
                             for f in faults):
            return start
        earliest = min(f.time for f in faults)
        marks = (self._flight_marks if self._flight_interval is not None
                 else None)
        for rung in rungs[1:]:
            if (rung.thread_id is not None and rung.window < earliest
                    and all(f.thread_id == rung.thread_id
                            for f in faults)
                    and (marks is None or rung.position in marks)):
                start = rung
        return start

    def _simulate(self, sim: Simulator, start: int, base: int,
                  limit: int, scanner) -> tuple[RunResult, Rung | None]:
        """Run *sim* to completion or to the *limit* watchdog, stopping
        at each rung past *start* (positions count from *base*, the
        boot checkpoint's instruction count).  A base-model run tests
        for reconvergence there.  A detailed run that no fault has
        struck yet fills each empty slot it stops at; once struck it
        stops no more.  Returns the run's result and the rung it
        rejoined the golden run at, if any."""
        rungs = self.golden.rungs
        harvest = self.detailed_model is not None
        for index, rung in enumerate(rungs):
            if rung.position <= start:
                continue
            target = base + rung.position
            if target >= limit or harvest and sim.injector.records:
                break
            result = sim.run(max_instructions=target)
            if result.status != "limit":
                return result, None
            if not harvest:
                if self._rejoined(sim, rung, scanner):
                    return result, rung
            elif rung.state is None and not sim.injector.records:
                rungs[index] = self._rung(sim, base,
                                          rungs[index - 1].state)
        return sim.run(max_instructions=limit), None

    def _rejoined(self, sim: Simulator, rung: Rung, scanner) -> bool:
        """True once every fault has fired and expired, no register
        watch is pending, a flight scan would find nothing more, and
        the machine state equals the rung exactly: from here on the
        run is the golden run."""
        injector = sim.injector
        if not injector.records or not injector.all_faults_done \
                or injector.has_watches:
            return False
        if scanner is not None and scanner.divergence is None \
                and scanner.position != self._flight_marks.get(
                    rung.position):
            return False
        return matches_rung(sim, rung.state)

    def _golden_end(self) -> tuple[RunResult, Process]:
        """The golden run's end state: the run result and a process
        carrying its exit status and console."""
        golden = self.golden
        process = Process(pid=0, name=self.spec.name, entry=0,
                          state=ProcessState.EXITED,
                          exit_code=golden.exit_code)
        process.console = bytearray(golden.console.encode("utf-8"))
        return RunResult(status="completed",
                         instructions=golden.instructions,
                         ticks=golden.ticks), process

    # -- experiment phase ----------------------------------------------------------

    def run_experiment(self, faults: list[Fault] | Fault,
                       seed: int | None = None) -> ExperimentResult:
        if isinstance(faults, Fault):
            faults = [faults]
        index = self._experiment_index
        self._experiment_index += 1
        if self.bus is not None:
            self.bus.emit("experiment_start", tick=0,
                          experiment=index, workload=self.spec.name,
                          faults=[f.describe() for f in faults])
        tracer = self.tracer
        span = None
        owns_span = False
        if tracer is not None:
            # A SharedDirCampaign worker opens the experiment span
            # before calling us; standalone runners open their own.
            span = tracer.current
            if span is None:
                span = tracer.start(f"exp_{index:04d}",
                                    kind="experiment",
                                    experiment=f"exp_{index:04d}")
                owns_span = True
        start = time.perf_counter()
        log = self.flight_log() if self._flight_interval is not None \
            else None
        rung = self._start_rung(faults)
        replay_start = rung.position if rung is not None else 0
        sim = self._fresh_simulator(faults, rung)
        start_tick = sim.tick
        scanner = None
        if log is not None:
            from ..telemetry.flight import DivergenceScanner
            scanner = DivergenceScanner(log)
            if replay_start:
                scanner.resume(*self._flight_marks[replay_start])
            sim.injector.install_tracer(scanner)
        # Instructions and the watchdog count from the boot checkpoint,
        # wherever the run resumed.
        base = sim.instructions - replay_start
        budget = int(self.golden.instructions * WATCHDOG_FACTOR) \
            + 100_000
        run_start = time.perf_counter()
        result, rejoined = self._simulate(sim, replay_start, base,
                                          base + budget, scanner)
        run_end = time.perf_counter()
        wall = run_end - start
        phases = _experiment_phases(start, run_start, run_end,
                                    sim.injector)
        injector = sim.injector
        outputs = None
        if rejoined is None:
            process = sim.process(0)
        else:
            if self.bus is not None:
                self.bus.emit("reconverged", tick=sim.tick,
                              experiment=index,
                              instructions=rejoined.position)
            result, process = self._golden_end()
            outputs = self.golden.outputs
        outcome = classify(self.spec, self.golden.outputs, sim, process,
                           injector, result, outputs=outputs)
        fault = faults[0]
        window = max(1, self.golden.profile.count_for(fault.location))
        first = injector.records[0] if injector.records else None
        divergence = propagation = None
        if scanner is not None:
            divergence, propagation = self._flight_artifacts(
                scanner, fault, first, outcome, process, index, sim)
        if self.bus is not None:
            self.bus.emit("experiment_end", tick=result.ticks,
                          experiment=index, workload=self.spec.name,
                          outcome=outcome.value,
                          injected=bool(injector.records),
                          wall_seconds=wall)
        if span is not None:
            self._emit_spans(tracer, span, phases, start_tick,
                             result.ticks, injector, outcome, wall,
                             result.instructions - base, divergence)
            if owns_span:
                tracer.finish(span)
        return ExperimentResult(
            fault=fault,
            outcome=outcome,
            injected=bool(injector.records),
            propagated=(first.propagated if first is not None else None),
            crash_reason=process.crash_reason,
            instructions=result.instructions - base,
            ticks=result.ticks,
            wall_seconds=wall,
            console=process.console_text(),
            time_fraction=min(1.0, fault.time / window),
            injection_pc=(first.pc if first is not None else None),
            injection_asm=(first.asm if first is not None else ""),
            injection_detail=(first.detail if first is not None else ""),
            injection_before=(first.before if first is not None
                              else None),
            workload=self.spec.name,
            seed=seed,
            fault_file=render_fault_file(faults),
            divergence=divergence,
            propagation=propagation,
            phases=phases,
            replay_start=replay_start,
            early_exit=rejoined.position if rejoined is not None
            else None,
        )

    def run_campaign(self, fault_sets, progress=None,
                     seed: int | None = None,
                     prune: bool = False) -> list[ExperimentResult]:
        """One record per fault set, in order.  With *prune*, a
        single-fault set that the liveness analysis proves masked gets
        a predicted record instead of a simulation."""
        liveness = self.liveness() if prune else None
        results = []
        for index, faults in enumerate(fault_sets):
            if isinstance(faults, Fault):
                faults = [faults]
            verdict = None
            if liveness is not None and len(faults) == 1:
                verdict = liveness.classify(faults[0])
            if verdict is not None and verdict.masked:
                results.append(self._predicted(faults[0], verdict, seed))
            else:
                results.append(self.run_experiment(faults, seed=seed))
            if progress is not None:
                progress(index + 1, len(fault_sets))
        return results

    def _predicted(self, fault: Fault, verdict,
                   seed: int | None) -> ExperimentResult:
        """The record of a provably masked site: its outputs equal the
        golden run's, so it is strictly correct when the corrupted value
        was read (``propagated``) and non-propagated otherwise."""
        outcome = (Outcome.STRICTLY_CORRECT if verdict.propagated
                   else Outcome.NON_PROPAGATED)
        window = max(1, self.golden.profile.count_for(fault.location))
        return ExperimentResult(
            fault=fault, outcome=outcome, injected=verdict.injected,
            propagated=verdict.propagated if verdict.injected else None,
            crash_reason=None, instructions=0, ticks=0,
            wall_seconds=0.0, console="",
            time_fraction=min(1.0, fault.time / window),
            injection_detail=f"predicted: {verdict.reason}",
            predicted=True, workload=self.spec.name, seed=seed,
            fault_file=render_fault_file([fault]))

    # -- span tracing (repro.telemetry.spans) ----------------------------------

    def enable_tracing(self, tracer) -> None:
        """Attach a span tracer: every subsequent experiment emits an
        experiment span whose phase children (boot/window/injection/
        drain) partition its wall time exactly, with checkpoint
        save/restore spans nested inside."""
        self.tracer = tracer

    def _emit_spans(self, tracer, span, phases, start_tick, end_tick,
                    injector, outcome, wall, instructions,
                    divergence) -> None:
        """Retro-record the phase children and annotate the experiment
        span with its outcome and tick bounds (host times come from the
        already-computed phase split, so this costs four dict writes per
        experiment)."""
        records = injector.records
        first_tick = records[0].tick if records else None
        last_tick = records[-1].tick if records else None
        if first_tick is None:
            bounds = {"boot": (start_tick, start_tick),
                      "window": (start_tick, end_tick),
                      "injection": (end_tick, end_tick),
                      "drain": (end_tick, end_tick)}
        else:
            bounds = {"boot": (start_tick, start_tick),
                      "window": (start_tick, first_tick),
                      "injection": (first_tick, last_tick),
                      "drain": (last_tick, end_tick)}
        edge = span.t0
        for name in ("boot", "window", "injection", "drain"):
            seconds = float(phases.get(name, 0.0))
            tick0, tick1 = bounds[name]
            tracer.record(name, edge, edge + seconds, tick0=tick0,
                          tick1=tick1, parent=span, kind="phase",
                          seconds=seconds)
            edge += seconds
        span.tick0 = start_tick
        span.tick1 = end_tick
        attrs = {"outcome": outcome.value, "injected": bool(records),
                 "wall_seconds": wall, "instructions": instructions,
                 "ticks": end_tick - start_tick,
                 "phases": dict(phases),
                 "injection_tick": first_tick,
                 "last_injection_tick": last_tick}
        if divergence is not None:
            attrs["divergence_tick"] = divergence.get("tick")
        tracer.annotate(span, **attrs)

    # -- flight recorder (repro.telemetry.flight) ------------------------------

    def enable_flight(self, interval: int | None = None):
        """Turn the fault-propagation flight recorder on for all
        subsequent experiments: each run gets a first-divergence record
        and a propagation graph attached to its result.  Returns the
        (cached) golden flight log."""
        from ..telemetry.flight import DEFAULT_INTERVAL
        self._flight_interval = interval or DEFAULT_INTERVAL
        return self.flight_log()

    def flight_log(self):
        """Acquire (once) the golden run's flight log — per-interval
        architectural digests plus the committed-store log — by
        replaying from the checkpoint with a recorder installed, the
        same cost model as :meth:`ensure_trace`."""
        if self._flight is not None:
            return self._flight
        from ..telemetry.flight import DEFAULT_INTERVAL, FlightRecorder
        recorder = FlightRecorder(self._flight_interval
                                  or DEFAULT_INTERVAL)
        sim = self._golden_replay()
        sim.injector.install_tracer(recorder)
        # Where the recorder stands at each golden rung, so scans of
        # runs that start or end at a rung stay aligned with the log.
        # Rungs a detailed run fills get no mark, so a detailed run
        # with the recorder on starts at the boot rung.
        base = sim.instructions
        climbed = self.golden.rungs[1:] if self.detailed_model is None \
            else []
        for rung in climbed:
            sim.run(max_instructions=base + rung.position)
            self._flight_marks[rung.position] = (
                recorder.count, len(recorder.log.stores))
        result = sim.run(max_instructions=GOLDEN_LIMIT)
        if result.status != "completed":
            raise RuntimeError(
                f"flight replay of '{self.spec.name}' did not "
                f"complete: {result.status}")
        self._flight = recorder.log
        return self._flight

    def _flight_artifacts(self, scanner, fault, first, outcome,
                          process, index, sim):
        """Post-run flight products: the (latency-stamped) divergence
        record and the def-use propagation graph of one experiment."""
        divergence = scanner.divergence
        if divergence is None and first is not None \
                and process.crash_reason:
            # The run trapped before reaching the next store or digest
            # boundary: the trap itself is the first observable
            # architectural divergence.
            from ..telemetry.flight import Divergence
            divergence = Divergence(
                kind="control", tick=sim.tick, count=scanner.count,
                window=None, interval=None, pc=sim.core.arch.pc,
                location=f"trap: {process.crash_reason}")
        div_dict = None
        if divergence is not None:
            if first is not None:
                divergence.latency = max(0, divergence.tick - first.tick)
            div_dict = divergence.as_dict()
            if self.bus is not None:
                self.bus.emit("flight_divergence", tick=divergence.tick,
                              experiment=index,
                              workload=self.spec.name,
                              divergence=div_dict)
        prop_dict = None
        if first is not None:
            from ..analysis.propagation import build_propagation_graph
            graph = build_propagation_graph(
                self.ensure_trace(), fault, outcome=outcome.value,
                crash_reason=process.crash_reason)
            prop_dict = graph.as_dict()
        return div_dict, prop_dict

    # -- liveness analysis and campaign pruning (repro.analysis) ---------------

    def ensure_trace(self):
        """Acquire (once) the golden def-use trace by replaying the run
        from the checkpoint with a tracer installed — boot is skipped,
        so a trace costs roughly one FI-window replay."""
        if self._trace is not None:
            return self._trace
        from ..analysis import DefUseTracer
        tracer = DefUseTracer()
        sim = self._golden_replay()
        sim.injector.install_tracer(tracer)
        result = sim.run(max_instructions=GOLDEN_LIMIT)
        if result.status != "completed":
            raise RuntimeError(
                f"trace replay of '{self.spec.name}' did not complete: "
                f"{result.status}")
        self._trace = tracer
        return tracer

    def liveness(self):
        """The (cached) liveness analysis over the golden trace."""
        if self._liveness is None:
            from ..analysis import LivenessAnalysis
            self._liveness = LivenessAnalysis(self.ensure_trace())
        return self._liveness

    # -- helpers ----------------------------------------------------------------------

    def _golden_replay(self) -> Simulator:
        """A fault-free simulator at the start of the golden run's
        post-checkpoint part (at power-on without a checkpoint)."""
        if self.use_checkpoint and self.golden.checkpoint is not None:
            return restore_checkpoint(self.golden.checkpoint)
        sim = Simulator(self.config, injector=FaultInjector())
        sim.load(self.asm, self.spec.name)
        return sim

    def _fresh_simulator(self, faults: list[Fault],
                         rung: Rung | None = None) -> Simulator:
        """A simulator armed with *faults*, restored from *rung*
        (default: the boot checkpoint) or at power-on without one."""
        if self.use_checkpoint and self.golden.checkpoint is not None:
            config_override = None
            if self.detailed_model is not None:
                config_override = self._detailed_config()
            source = self.golden.checkpoint
            if rung is not None and rung.state is not None:
                source = rung.state
            return restore_checkpoint(source, faults=faults,
                                      config_override=config_override,
                                      bus=self.bus, tracer=self.tracer)
        config = (self._detailed_config()
                  if self.detailed_model is not None else self.config)
        injector = FaultInjector(faults)
        sim = Simulator(config, injector=injector, bus=self.bus)
        sim.load(self.asm, self.spec.name)
        if self.tracer is not None:
            sim.tracer = self.tracer
        return sim

    def _detailed_config(self) -> SimConfig:
        from dataclasses import replace
        return replace(self.config, cpu_model=self.detailed_model,
                       switch_to_atomic_after_fi=True)
