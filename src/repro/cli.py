"""Command-line interface — the gem5-style front end of the tool.

Usage mirrors the paper's workflow (Section III.B): compile or assemble
an application, hand the simulator a fault-description input file on the
command line, run, and inspect the postmortem report / statistics.

    gemfi run app.mc --fault-file faults.txt --cpu o3 --stats stats.txt
    gemfi campaign --workload dct --scale tiny -n 50 [--prune]
    gemfi campaign -w pi -n 20 --flight 32 --share-dir /mnt/share/pi
    gemfi analyze --workload dct --scale tiny -n 200
    gemfi workloads
    gemfi sample-size --confidence 0.99 --margin 0.01

Observability surfaces (repro.telemetry); those of one run are flags of
`gemfi run`, which also takes a paper workload by name:

    gemfi run app.mc -f faults.txt --trace run.jsonl [--ring 64]
    gemfi run app.mc --cpu o3 --trace pipe.jsonl --pipe
    gemfi run dct --cpu o3 --profile [--json] [--folded out.folded]
    gemfi trace run.jsonl                    # tail a live --trace file
    gemfi pipeview pipe.jsonl
    gemfi status /mnt/share/campaign [--json]
    gemfi stats-diff golden.txt faulty.txt [--tolerance 0.02]
    gemfi report /mnt/share/campaign --format html -o report.html
    gemfi coverage /mnt/share/campaign [--json|--format md]
    gemfi campaign -w pi -n 20 --share-dir /mnt/share/pi --trace
    gemfi timeline /mnt/share/pi -o trace.json    # Perfetto-loadable
    gemfi dashboard /mnt/share/pi [--once]        # live view + alerts

Campaign-as-a-service (repro.service):

    gemfi serve /var/lib/gemfi --port 8642        # API + dispatcher
    gemfi submit --url http://host:8642 -w dct -n 50 --wait
    gemfi jobs --url http://host:8642
    gemfi fetch --url http://host:8642 <digest> -o results.json

(`python -m repro ...` works identically.)
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections import Counter

from .analysis.coverage import DIMENSIONS
from .campaign import (
    CampaignRunner,
    SEUGenerator,
    render_location_table,
    sample_size,
)
from .compiler import CompileError, compile_source
from .core import (
    FaultInjector,
    FaultParseError,
    LocationKind,
    parse_fault_file,
)
from .isa import AssemblyError
from .sim import SimConfig, Simulator
from .telemetry.campaign import SHARE_DIRS
from .workloads import WORKLOAD_NAMES, build

LOCATION_CHOICES = tuple(kind.value for kind in LocationKind)


# -- argument types: bad values are argparse errors (exit 2), not
# tracebacks from deep inside a command.


def _ranged(cast, ok, expected: str):
    """A *cast* (int or float) value for which *ok* holds, else an
    argparse error asking for *expected*."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return value
    return parse


_confidence = _ranged(float, lambda v: 0.5 < v < 1.0,
                      "a number in (0.5, 1)")
_margin = _ranged(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
# A compare margin of 0 counts every significant delta as a change.
_delta_margin = _ranged(float, lambda v: 0.0 <= v < 1.0,
                        "a number in [0, 1)")
_positive_int = _ranged(int, lambda v: v >= 1, "an integer >= 1")
_non_negative_int = _ranged(int, lambda v: v >= 0, "an integer >= 0")
_interval = _ranged(float, lambda v: 0.0 <= v < math.inf,
                    "a finite number >= 0")


def _existing_file(text: str) -> str:
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"no such file: {text}")
    return text


def _file_or_stdin(text: str) -> str:
    return text if text == "-" else _existing_file(text)


def _workload_or_file(text: str) -> str:
    return text if text in WORKLOAD_NAMES else _existing_file(text)


def _share_dir(text: str) -> str:
    """A directory holding any of a campaign share's subdirectories."""
    if not any(os.path.isdir(os.path.join(text, sub))
               for sub in SHARE_DIRS):
        raise argparse.ArgumentTypeError(
            f"not a campaign share (none of "
            f"{', '.join(sub + '/' for sub in SHARE_DIRS)}): {text}")
    return text


def _emit(text: str, output: str | None, note: str) -> None:
    """Print *text*, or write it to *output* and say *note* there."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"# {note} -> {output}", file=sys.stderr)
    else:
        print(text, end="")


def _usage_error(command: str, message: str):
    """One ``gemfi COMMAND: error:`` line on stderr, then exit 2."""
    print(f"gemfi {command}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _read_text(path: str) -> str:
    """A ``gemfi run`` input file; one that is not UTF-8 is a usage
    error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        _usage_error("run", f"{path}: not UTF-8 text (byte "
                            f"{exc.object[exc.start]:#04x} at offset "
                            f"{exc.start})")


def _single_run(args: argparse.Namespace):
    """The one set-up of a single-program run: parse the faults, build
    the simulator, load the program (a workload name builds it at
    ``--scale``), open the output files and, for ``--trace``, attach a
    trace bus with its sink.  Returns ``(sim, sink, outputs)``; *sink*
    is None without ``--trace``, and *outputs* maps ``trace``,
    ``stats`` and ``folded`` to the open file of each one given
    (``--trace -`` is stdout).  A malformed fault line or program, an
    input that is not UTF-8 and an output that cannot be opened are
    usage errors (exit 2), reported before anything runs."""
    from .telemetry import JsonlFileSink, RingBufferSink, TraceBus
    try:
        faults = []
        if args.fault_file:
            faults.extend(parse_fault_file(_read_text(args.fault_file)))
        for line in args.fault or ():
            faults.extend(parse_fault_file(line))
        if args.program in WORKLOAD_NAMES:
            asm = compile_source(build(args.program, args.scale).source)
            name = args.program
        else:
            asm = _read_text(args.program)
            if not args.program.endswith((".s", ".asm")):
                asm = compile_source(asm)
            name = "app"
        config = SimConfig(cpu_model=args.cpu,
                           switch_to_atomic_after_fi=args.switch_to_atomic)
        sim = Simulator(config, injector=FaultInjector(faults))
        sim.load(asm, name)
    except (FaultParseError, CompileError, AssemblyError) as exc:
        where = "" if isinstance(exc, FaultParseError) \
            else f"{args.program}: "
        _usage_error("run", f"{where}{exc}")
    outputs = {}
    for key, path in (("trace", args.trace), ("stats", args.stats),
                      ("folded", args.folded)):
        if path and (key, path) != ("trace", "-"):
            try:
                outputs[key] = open(path, "w", encoding="utf-8")
            except OSError as exc:
                _usage_error("run", f"cannot write {path}: "
                                    f"{exc.strerror}")
    sink = None
    if args.trace:
        sink = RingBufferSink(capacity=args.ring) if args.ring else \
            JsonlFileSink(outputs.get("trace", sys.stdout))
        sim.attach_bus(TraceBus(sink, pipe_trace=args.pipe))
        # The injector parsed its faults before the bus existed; report
        # the armed configuration at the head of the trace.
        for fault in faults:
            sim.bus.emit("fault_armed", fault=fault.describe())
    return sim, sink, outputs


def cmd_run(args: argparse.Namespace) -> int:
    """Run one program with any mix of instruments: fault injection,
    the trace bus (``--trace``), the self-profiler (``--profile``) and
    a stats dump."""
    sim, sink, outputs = _single_run(args)
    profiler = sampler = None
    if (args.profile or args.json or args.folded
            or args.folded_source or args.sample):
        from .telemetry.profiler import Profiler, SamplingProfiler
        profiler = Profiler().install(sim)
        if args.sample:
            sampler = SamplingProfiler(hz=args.sample)
            try:
                sampler.start()
            except ValueError as exc:
                print(f"# sampling unavailable: {exc}", file=sys.stderr)
                sampler = None
    result = sim.run(max_instructions=args.max_instructions)
    if sampler is not None:
        sampler.stop()

    # Machine-readable output (a JSONL trace or the profile's JSON)
    # keeps stdout to itself; the run summary then goes to stderr.
    say = functools.partial(
        print, file=sys.stderr if args.trace == "-" or args.json
        else sys.stdout)
    process = sim.process(0)
    say(f"status      : {result.status}")
    say(f"process     : {process.state.value}"
        + (f" ({process.crash_reason})" if process.crash_reason
           else f" exit={process.exit_code}"))
    say(f"instructions: {result.instructions}  ticks: {result.ticks}")
    console = process.console_text()
    if console:
        say("--- console ---")
        say(console, end="" if console.endswith("\n") else "\n")
    if sim.injector.records:
        say("--- injections ---")
        for record in sim.injector.records:
            say(f"  {record.fault.describe()}")
            say(f"    pc={record.pc:#x} window-instr="
                f"{record.instruction_count} {record.detail} "
                f"{record.before:#x}->{record.after:#x} "
                f"propagated={record.propagated}")
    if profiler is not None:
        _print_profile(args, sim, result, profiler, sampler, say,
                       outputs.get("folded"))
    if args.stats:
        outputs["stats"].write(sim.stats_dump())
        say(f"stats written to {args.stats}")
    if profiler is not None:
        profiler.uninstall()
    if sink is not None:
        sim.bus.close()
        if args.ring:
            outputs.get("trace", sys.stdout).write(sink.dump_jsonl())
            if "trace" in outputs:
                print(f"# last {len(sink.events)} events -> "
                      f"{args.trace}", file=sys.stderr)
            if sink.dropped:
                print(f"# ring buffer dropped {sink.dropped} older "
                      f"events", file=sys.stderr)
        print(f"# status={result.status} process={process.state.value} "
              f"events={sink.count}", file=sys.stderr)
    for handle in outputs.values():
        handle.close()
    limited = result.status == "limit"
    return 0 if limited or process.state.value == "exited" else 1


def _print_profile(args, sim, result, profiler, sampler, say,
                   folded_file) -> None:
    """``--profile``: host-time attribution and sim rate (KIPS), as a
    table after the run summary or as ``--json`` on stdout; with
    ``--folded``, the folded stacks go to *folded_file*."""
    import json

    from .telemetry.profiler import sim_rates
    wall = profiler.wall_seconds
    rates = sim_rates(result.instructions, result.ticks, wall)
    if args.folded:
        folded_file.write(
            sampler.folded() if args.folded_source == "sample"
            and sampler is not None else profiler.folded())
    if args.json:
        payload = {
            "workload": sim.process(0).name,
            "cpu": args.cpu,
            "status": result.status,
            "instructions": result.instructions,
            "ticks": result.ticks,
            "wall_seconds": wall,
            "kips": rates["kips"],
            "ticks_per_second": rates["ticks_per_second"],
            "host_seconds_per_instruction":
                rates["host_seconds_per_instruction"],
            "attribution": profiler.attribution(),
            "coverage": profiler.coverage(),
        }
        if sampler is not None:
            payload["samples"] = sampler.samples
            payload["sample_attribution"] = sampler.attribution()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    say(f"wall        : {wall:.4f}s  {rates['kips']:.1f} KIPS  "
        f"{rates['ticks_per_second']:.0f} ticks/s")
    say("--- host-time attribution ---")
    say(profiler.render_table())
    if sampler is not None:
        say(f"--- sampled ({sampler.samples} samples) ---")
        say(sampler.render_table())
    if args.folded:
        say(f"# folded stacks -> {args.folded} (flamegraph.pl / speedscope)")


def cmd_campaign(args: argparse.Namespace) -> int:
    spec = build(args.workload, args.scale)
    print(f"# {spec.description}")
    runner = CampaignRunner(spec, detailed_model=args.detailed_model)
    print(f"# golden: window={runner.golden.profile.committed} "
          f"instructions, boot={runner.golden.boot_instructions}")
    if args.flight:
        log = runner.enable_flight(args.flight)
        print(f"# flight recorder: interval={log.interval}, "
              f"{len(log.intervals)} digests, {len(log.stores)} stores")
    location = None
    if args.location:
        location = LocationKind(args.location)
    if args.share_dir:
        # Shared-directory (NoW) mode: publish the experiments and the
        # golden run, drain the queue with local workers, and leave the
        # share behind for gemfi status / gemfi report.
        from .campaign import SharedDirCampaign, outcome_counts
        campaign = SharedDirCampaign(args.share_dir, args.workload,
                                     args.scale)
        generator = SEUGenerator(runner.golden.profile, seed=args.seed)
        faults = generator.batch(args.experiments, location=location)
        campaign.publish(runner, faults, seed=args.seed,
                         flight=args.flight or None,
                         trace=args.trace)
        campaign.run_local(workers=args.workers, runner=runner)
        results = campaign.collect()
        counts = outcome_counts(results)
        print(f"# share: {args.share_dir} — {len(results)} results")
        for name, count in sorted(counts.items()):
            print(f"#   {name:10s} {count}")
        print(f"# inspect with: gemfi status {args.share_dir} / "
              f"gemfi report {args.share_dir}")
        if args.trace:
            print(f"# span tracing on: gemfi timeline {args.share_dir} "
                  f"/ gemfi dashboard {args.share_dir}")
        if len(results) < args.experiments:
            # Dead workers leave experiments unrun; never pass that
            # off as a finished campaign.
            print(f"error: {len(results)} results for "
                  f"{args.experiments} experiments (a worker failed)",
                  file=sys.stderr)
            return 1
        return 0
    progress = lambda done, total: print(  # noqa: E731
        f"\r# {done}/{total}", end="", file=sys.stderr)
    if args.prune and args.detailed_model is not None:
        print("# warning: liveness verdicts for fetch/decode sites "
              "assume an in-order frontend; --detailed-model o3 "
              "fetches speculatively and may time them differently",
              file=sys.stderr)
    generator = SEUGenerator(runner.golden.profile, seed=args.seed)
    faults = generator.batch(args.experiments, location=location)
    results = runner.run_campaign(faults, progress=progress,
                                  prune=args.prune)
    print(file=sys.stderr)
    if args.prune:
        masked = sum(1 for r in results if r.predicted)
        print(f"# pruned: {len(results)} sites -> "
              f"{len(results) - masked} simulations ({masked} provably "
              f"masked; {masked / len(results):.0%} saved)")
    print(render_location_table(
        results, title=f"{args.workload} ({args.scale}) — "
                       f"{args.experiments} experiments, "
                       f"seed {args.seed}"))
    if args.flight:
        diverged = sum(1 for r in results
                       if getattr(r, "divergence", None))
        print(f"# flight recorder: {diverged}/{len(results)} runs "
              f"reached an architectural divergence")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Liveness analysis report: how much of a sampled campaign the
    pruner would skip, and why."""
    spec = build(args.workload, args.scale)
    print(f"# {spec.description}")
    runner = CampaignRunner(spec)
    trace = runner.ensure_trace()
    print(f"window instructions : {runner.golden.profile.committed}")
    print(f"trace events        : {len(trace.events)}"
          + (" (tainted)" if trace.tainted else ""))
    location = None
    if args.location:
        location = LocationKind(args.location)
    generator = SEUGenerator(runner.golden.profile, seed=args.seed)
    liveness = runner.liveness()
    reasons = Counter()
    for fault in generator.batch(args.experiments, location=location):
        verdict = liveness.classify(fault)
        if verdict.masked:
            reasons[verdict.reason] += 1
    masked = sum(reasons.values())
    print(f"sampled fault sites : {args.experiments}")
    print(f"provably masked     : {masked}")
    for reason, count in sorted(reasons.items()):
        print(f"  {reason:28s} {count}")
    print(f"simulated sites     : {args.experiments - masked}")
    print(f"experiments saved   : {masked} "
          f"({masked / args.experiments:.1%})")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Tail a JSONL trace file that a live ``gemfi run --trace FILE``
    is writing."""
    from .telemetry import follow_jsonl
    if not args.file:
        print("gemfi trace: error: no JSONL file to tail", file=sys.stderr)
        return 2
    try:
        for event in follow_jsonl(args.file, poll=args.poll,
                                  idle_timeout=args.idle_timeout):
            print(event.to_json(), flush=True)
    except KeyboardInterrupt:
        pass
    except ValueError as exc:
        _usage_error("trace", f"{args.file}: {exc}")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Live status of a shared-directory campaign."""
    from .telemetry import read_status, render_status

    status = read_status(args.share_dir, coverage=args.coverage)
    if args.json:
        import json
        print(json.dumps(status.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_status(status))
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Merge a traced campaign's span logs into one Chrome trace-event
    JSON, loadable at https://ui.perfetto.dev or chrome://tracing."""
    from .telemetry import (
        render_span_tree,
        render_timeline,
        timeline_summary,
        validate_trace,
    )
    if args.tree:
        text = render_span_tree(args.share_dir)
        if not text:
            print("# no span records on the share — was the campaign "
                  "run with --trace?", file=sys.stderr)
            return 2
        print(text)
        return 0
    try:
        text = render_timeline(args.share_dir, timebase=args.timebase,
                               slots=args.slots, indent=args.indent)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    events = validate_trace(text)
    summary = timeline_summary(args.share_dir)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"# {summary['experiments']} experiments / {events} "
              f"events -> {args.output}", file=sys.stderr)
        print("# open it at https://ui.perfetto.dev (or "
              "chrome://tracing)", file=sys.stderr)
    else:
        print(text, end="")
    if summary["open_spans"]:
        print(f"# note: {summary['open_spans']} span(s) still open "
              f"(in-flight or dead workers) — not on the timeline",
              file=sys.stderr)
    if not summary["experiments"]:
        print("# no experiment spans on the share — was the campaign "
              "run with --trace?", file=sys.stderr)
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Live campaign dashboard: the status block and the watchdog alert
    strip (also journalled to alerts.jsonl)."""
    import time as _time

    from .telemetry import append_alerts, render_dashboard
    try:
        while True:
            text, alerts = render_dashboard(args.share_dir)
            if not args.once:
                print("\x1b[H\x1b[2J", end="")
            print(text)
            sys.stdout.flush()
            if alerts and not args.no_alerts:
                append_alerts(args.share_dir, alerts)
            if args.once:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def cmd_stats_diff(args: argparse.Namespace) -> int:
    """Section IV.A validation: diff two stats dumps."""
    from .telemetry import diff_stats
    with open(args.a, "r", encoding="utf-8") as handle:
        a_text = handle.read()
    with open(args.b, "r", encoding="utf-8") as handle:
        b_text = handle.read()
    differences = diff_stats(a_text, b_text, tolerance=args.tolerance)
    if not differences:
        print(f"0 differences: {args.a} and {args.b} are statistically "
              f"identical")
        return 0
    for line in differences:
        print(line)
    print(f"{len(differences)} differences")
    return 1


def cmd_pipeview(args: argparse.Namespace) -> int:
    """Render an O3 pipeline timeline from a captured JSONL trace."""
    from .telemetry import read_jsonl, render_from_events
    try:
        events = read_jsonl(sys.stdin if args.trace == "-"
                            else args.trace)
    except ValueError as exc:
        name = "<stdin>" if args.trace == "-" else args.trace
        _usage_error("pipeview", f"{name}: {exc}")
    print(render_from_events(events))
    return 0


def _load_summary(ref: str, url: str | None = None,
                  tenant: str = "default"):
    """Resolve a `gemfi compare` operand — a share directory, a
    summary/diff JSON file, or (with *url*) a job id / baseline name
    on a running service — into a CampaignSummary."""
    import json

    from .analysis.diff import CampaignSummary
    if os.path.isdir(ref):
        return CampaignSummary.from_share(ref)
    if os.path.isfile(ref):
        with open(ref, "r", encoding="utf-8") as handle:
            return CampaignSummary.from_payload(json.load(handle))
    if url:
        from .service import ServiceClient
        client = ServiceClient(url, tenant=tenant)
        try:
            return CampaignSummary.from_payload(client.summary(ref))
        finally:
            client.close()
    raise ValueError(
        f"{ref!r} is neither a share directory nor a summary JSON "
        f"file (pass --url to resolve job ids / baseline names)")


def cmd_report(args: argparse.Namespace) -> int:
    """Aggregate a campaign share directory into an outcome report."""
    from .telemetry import load_share, read_results, render_report
    results = read_results(args.share_dir)
    report = load_share(args.share_dir, results)
    baseline = None
    if args.baseline:
        from .analysis.diff import CampaignDiff, CampaignSummary
        from .service import ServiceError
        try:
            base = _load_summary(args.baseline, url=args.url,
                                 tenant=args.tenant)
        except (ServiceError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        head = CampaignSummary.from_share(args.share_dir,
                                          results=results)
        baseline = CampaignDiff(base, head).payload
    text = render_report(report, fmt=args.format, baseline=baseline)
    _emit(text, args.output, f"{report.experiments} experiments")
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    """Fault-space coverage analytics of a campaign share: space
    visited, per-dimension outcome heatmaps with Wilson intervals,
    and margin convergence."""
    import json

    from .analysis.coverage import (
        coverage_from_share,
        coverage_report_tables,
        heatmap_table,
    )
    from .telemetry import render_markdown, render_text
    space = coverage_from_share(args.share_dir,
                                confidence=args.confidence,
                                margin=args.margin)
    payload = space.as_dict()
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "md":
        name = os.path.basename(os.path.normpath(args.share_dir))
        prose, tables = coverage_report_tables(payload)
        text = render_markdown(f"Fault-space coverage: {name}", prose,
                               [(None, [], tables)])
    elif args.dimension:
        text = render_text([], [heatmap_table(payload, args.dimension)])
    else:
        text = render_text(*coverage_report_tables(payload))
    _emit(text, args.output, f"{space.accounted} experiments")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Differential campaign analytics: significance-tested outcome
    deltas between two campaigns (share dirs, summary JSON files, or
    --url + job ids / baseline names), with --gate exiting nonzero on
    a significant regression — the outcome-distribution analogue of
    the CI KIPS gate."""
    import json

    from .analysis.diff import CampaignDiff, diff_report_tables
    from .service import ServiceError
    from .telemetry import render_markdown, render_text
    try:
        base = _load_summary(args.base, url=args.url,
                             tenant=args.tenant)
        head = _load_summary(args.head, url=args.url,
                             tenant=args.tenant)
        diff = CampaignDiff(base, head, confidence=args.confidence,
                            margin=args.margin)
    except (ServiceError, OSError, ValueError) as exc:
        _usage_error("compare", str(exc))
    payload = diff.payload
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "md":
        prose, tables = diff_report_tables(payload)
        text = render_markdown(
            f"Campaign diff: {payload['base']['name'] or 'base'} vs "
            f"{payload['head']['name'] or 'head'}", prose,
            [(caption, [], [(None, header, rows)])
             for caption, header, rows in tables])
    else:
        text = render_text(*diff_report_tables(payload))
    _emit(text, args.output, f"verdict: {diff.verdict}")
    if args.gate and diff.regressed:
        print(f"# gate: outcome distribution regressed "
              f"(margin ±{args.margin * 100:g}%, "
              f"{args.confidence * 100:g}% confidence)",
              file=sys.stderr)
        return 1
    return 0


def cmd_store_verify(args: argparse.Namespace) -> int:
    """Integrity-sweep a service content store: recompute every
    object's digest and list corrupt/orphaned entries, exiting
    nonzero when anything is wrong."""
    import json

    from .service.store import ContentStore
    root = args.data_dir
    if os.path.isdir(os.path.join(root, "store", "objects")):
        root = os.path.join(root, "store")  # service data dir
    elif not os.path.isdir(os.path.join(root, "objects")):
        print(f"error: {args.data_dir!r} has no content store "
              f"(expected store/objects/ or objects/)",
              file=sys.stderr)
        return 2
    report = ContentStore(root).verify_all()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"# {report['checked']} objects checked: "
              f"{len(report['corrupt'])} corrupt, "
              f"{len(report['orphaned'])} orphaned")
        for digest in report["corrupt"]:
            print(f"corrupt  {digest}")
        for path in report["orphaned"]:
            print(f"orphaned {path}")
    return 0 if report["ok"] else 1


def cmd_workloads(_args: argparse.Namespace) -> int:
    for name in WORKLOAD_NAMES:
        spec = build(name, "small")
        print(f"{name:12s} {spec.description}")
    return 0


def cmd_sample_size(args: argparse.Namespace) -> int:
    population = math.inf if args.population is None else args.population
    n = sample_size(population, confidence=args.confidence,
                    error_margin=args.margin)
    pop_text = "inf" if population == math.inf else str(population)
    print(f"N={pop_text} confidence={args.confidence} "
          f"margin={args.margin} -> n={n}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the campaign service: HTTP API on a background thread,
    job dispatch on this (main) thread so campaign workers can fork."""
    from .service import Service
    service = Service(args.data_dir, host=args.host, port=args.port,
                      default_quota=args.quota,
                      lease_seconds=args.lease_seconds, ui=args.ui)
    _stop_on_signals()
    try:
        service.start_http()
        print(f"# gemfi service on {service.url}  data={args.data_dir}",
              file=sys.stderr)
        if args.ui:
            print(f"# web console on {service.url}/ui", file=sys.stderr)
        print(f"# submit with: gemfi submit --url {service.url} "
              f"-w dct -n 20", file=sys.stderr)
        service.dispatch_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return 0


def _stop_on_signals() -> None:
    """Route SIGINT and SIGTERM to the KeyboardInterrupt that stops
    ``gemfi serve`` cleanly, also when it was started with SIGINT
    ignored (``nohup ... &``).  Forked campaign workers get back the
    handlers they had before."""
    import signal

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = {signum: signal.signal(signum, interrupt)
                for signum in (signal.SIGINT, signal.SIGTERM)}
    os.register_at_fork(after_in_child=lambda: [
        signal.signal(signum, handler)
        for signum, handler in previous.items()])


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a campaign job to a running service."""
    import json

    from .service import ServiceClient, ServiceError
    client = ServiceClient(args.url, tenant=args.tenant)
    spec = {"workload": args.workload, "scale": args.scale,
            "experiments": args.experiments, "seed": args.seed,
            "location": args.location, "workers": args.workers,
            "trace": args.trace}
    try:
        job = client.submit(spec, priority=args.priority,
                            reuse=not args.no_reuse)
        if args.wait and job["state"] not in ("done", "failed",
                                              "cancelled"):
            job = client.wait(job["id"], timeout=args.timeout,
                              poll=args.poll)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(job, indent=2, sort_keys=True))
    else:
        print(f"job     : {job['id']}  state={job['state']}"
              + (f"  (reused {job['reused_from']})"
                 if job.get("reused_from") else ""))
        print(f"spec    : {job['spec_digest']}")
        if job.get("result_digest"):
            print(f"results : {job['result_digest']}")
            print(f"fetch   : gemfi fetch --url {args.url} "
                  f"{job['result_digest']}")
        if job.get("error"):
            print(f"error   : {job['error']}")
    if job["state"] == "failed":
        return 1
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    """List jobs (and queue/tenant state) on a running service."""
    import json

    from .service import ServiceClient, ServiceError
    client = ServiceClient(args.url, tenant=args.tenant)
    try:
        listing = client.jobs(tenant=args.tenant
                              if args.mine else None)
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
    if args.json:
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    print(f"# queue depth: {listing['queue_depth']}")
    for tenant, counts in sorted(listing["tenants"].items()):
        states = " ".join(f"{state}={count}" for state, count
                          in sorted(counts.items()))
        print(f"# tenant {tenant}: {states}")
    for job in listing["jobs"]:
        spec = job["spec"]
        print(f"{job['id']}  {job['state']:9s} p{job['priority']} "
              f"{job['tenant']:10s} {spec['workload']}/{spec['scale']} "
              f"n={spec['experiments']} seed={spec['seed']}"
              + (f"  -> {job['result_digest'][:12]}"
                 if job.get("result_digest") else ""))
    return 0


def cmd_usage(args: argparse.Namespace) -> int:
    """Per-tenant usage metering from a running service: completed
    jobs, experiments, simulated instructions and campaign wall time
    (persisted in the queue database across restarts)."""
    import json

    from .service import ServiceClient, ServiceError
    client = ServiceClient(args.url, tenant=args.tenant)
    try:
        usage = client.usage(tenant=args.tenant if args.mine else None)
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
    if args.json:
        print(json.dumps(usage, indent=2, sort_keys=True))
        return 0
    if not usage:
        print("# no metered usage yet")
        return 0
    print(f"{'tenant':<16} {'jobs':>6} {'experiments':>12} "
          f"{'instructions':>14} {'wall_s':>10}")
    for tenant, totals in sorted(usage.items()):
        print(f"{tenant:<16} {totals['jobs']:>6} "
              f"{totals['experiments']:>12} "
              f"{totals['instructions']:>14} "
              f"{totals['wall_seconds']:>10.2f}")
    return 0


def cmd_fetch(args: argparse.Namespace) -> int:
    """Fetch a stored artifact by digest (or a job's results/report)
    and verify the content address on the way out."""
    import hashlib

    from .service import ServiceClient, ServiceError
    client = ServiceClient(args.url, tenant=args.tenant)
    try:
        if args.digest.startswith("job-"):
            job = client.job(args.digest)
            if args.report:
                text = client.report(args.digest)
                data = text.encode("utf-8")
                digest = None
            else:
                digest = job.get("result_digest")
                if not digest:
                    print(f"error: job {args.digest} has no results "
                          f"(state={job['state']})", file=sys.stderr)
                    return 1
                data = client.fetch(digest)
        else:
            digest = args.digest
            data = client.fetch(digest)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if digest is not None:
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            print(f"error: digest mismatch: asked {digest}, "
                  f"got {actual}", file=sys.stderr)
            return 1
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(data)
        print(f"# {len(data)} bytes -> {args.output}"
              + ("  (sha256 verified)" if digest else ""),
              file=sys.stderr)
    else:
        sys.stdout.write(data.decode("utf-8", "replace"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gemfi",
        description="GemFI: fault injection on a full-system simulator "
                    "(DSN 2014 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="simulate one program with optional faults, trace "
                    "and self-profile",
        description="Simulate one program from power-on.  Exit status: "
                    "0 when the program exited or the run stopped at "
                    "--max-instructions, 1 when it crashed or halted, "
                    "2 on bad input.")
    run_p.add_argument("program", type=_workload_or_file,
                       help="paper workload name (built at --scale), "
                            "MiniC source (.mc/.py) or assembly (.s)")
    run_p.add_argument("--scale", default="tiny",
                       choices=("tiny", "small", "medium", "paper"),
                       help="workload scale (workload names only)")
    run_p.add_argument("--fault-file", "-f", type=_existing_file,
                       help="Listing-1 style fault input file")
    run_p.add_argument("--fault", action="append",
                       help="inline fault description (repeatable)")
    run_p.add_argument("--cpu", default="atomic",
                       choices=("atomic", "timing", "inorder", "o3"))
    run_p.add_argument("--max-instructions", type=_positive_int,
                       default=50_000_000, metavar="N",
                       help="stop after N committed instructions "
                            "(status limit)")
    run_p.add_argument("--stats", help="write a stats dump to this file "
                                       "(with host.* gauges under "
                                       "--profile)")
    run_p.add_argument("--switch-to-atomic", action="store_true",
                       help="drop to AtomicSimple once the fault commits")
    run_p.add_argument("--trace", metavar="FILE",
                       help="write the trace bus's JSONL events here "
                            "('-' = stdout; the run summary then goes "
                            "to stderr)")
    run_p.add_argument("--ring", type=_non_negative_int, default=0,
                       metavar="N",
                       help="with --trace, keep only the last N events "
                            "(crash post-mortem mode)")
    run_p.add_argument("--pipe", action="store_true",
                       help="with --trace, also capture per-instruction "
                            "O3 pipeline events (for gemfi pipeview)")
    run_p.add_argument("--profile", action="store_true",
                       help="self-profile the simulator: host-time "
                            "attribution and sim rate (KIPS)")
    run_p.add_argument("--json", action="store_true",
                       help="print the profile as JSON on stdout "
                            "(implies --profile)")
    run_p.add_argument("--folded", metavar="FILE",
                       help="write folded flame-graph stacks here "
                            "(implies --profile)")
    run_p.add_argument("--folded-source", default=None,
                       choices=("timers", "sample"),
                       help="which profile feeds --folded (default "
                            "timers; implies --profile)")
    run_p.add_argument("--sample", type=_positive_int, nargs="?",
                       const=97, default=None, metavar="HZ",
                       help="also run the SIGPROF sampling profiler "
                            "(default 97 Hz; implies --profile)")
    run_p.set_defaults(func=cmd_run)

    camp_p = sub.add_parser(
        "campaign", help="run an SEU campaign on a paper workload")
    camp_p.add_argument("--workload", "-w", default="dct",
                        choices=WORKLOAD_NAMES)
    camp_p.add_argument("--scale", default="tiny",
                        choices=("tiny", "small", "medium", "paper"))
    camp_p.add_argument("--experiments", "-n", type=_positive_int,
                        default=40)
    camp_p.add_argument("--seed", type=int, default=0)
    camp_p.add_argument("--location", default=None,
                        choices=LOCATION_CHOICES,
                        help="pin the fault location")
    camp_p.add_argument("--detailed-model", default=None,
                        choices=(None, "o3", "inorder", "timing"),
                        help="inject in this model, then switch to "
                             "atomic (paper methodology; not with "
                             "--share-dir)")
    camp_p.add_argument("--prune", action="store_true",
                        help="predict provably-masked sites instead "
                             "of simulating them (repro.analysis; not "
                             "with --share-dir)")
    camp_p.add_argument("--flight", type=int, nargs="?", const=32,
                        default=None, metavar="INTERVAL",
                        help="enable the fault-propagation flight "
                             "recorder (digest every INTERVAL committed "
                             "instructions; default 32)")
    camp_p.add_argument("--share-dir", default=None,
                        help="run as a shared-directory (NoW) campaign "
                             "rooted here, leaving the share behind for "
                             "gemfi status / gemfi report")
    camp_p.add_argument("--workers", type=_positive_int, default=2,
                        help="local workers in --share-dir mode (1 "
                             "runs in this process, more are forked)")
    camp_p.add_argument("--trace", action="store_true",
                        help="span-trace the campaign (share mode): "
                             "workers append span logs for gemfi "
                             "timeline / gemfi dashboard")
    camp_p.set_defaults(func=cmd_campaign)

    ana_p = sub.add_parser(
        "analyze",
        help="liveness analysis: report what a pruned campaign saves")
    ana_p.add_argument("--workload", "-w", default="dct",
                       choices=WORKLOAD_NAMES)
    ana_p.add_argument("--scale", default="tiny",
                       choices=("tiny", "small", "medium", "paper"))
    ana_p.add_argument("--experiments", "-n", type=_positive_int,
                       default=200)
    ana_p.add_argument("--seed", type=int, default=0)
    ana_p.add_argument("--location", default=None,
                       choices=LOCATION_CHOICES,
                       help="pin the fault location")
    ana_p.set_defaults(func=cmd_analyze)

    trace_p = sub.add_parser(
        "trace",
        help="tail a JSONL trace file that gemfi run --trace is writing")
    trace_p.add_argument("file", nargs="?", default=None, metavar="FILE",
                         type=_existing_file,
                         help="the JSONL trace file to tail")
    trace_p.add_argument("--poll", type=float, default=0.2, metavar="S",
                         help="poll interval in seconds")
    trace_p.add_argument("--idle-timeout", type=float, default=None,
                         metavar="S",
                         help="stop after this many seconds without a "
                              "new event (default: forever)")
    trace_p.set_defaults(func=cmd_trace)

    pipe_p = sub.add_parser(
        "pipeview",
        help="render an O3 fetch->commit timeline from a --pipe trace")
    pipe_p.add_argument("trace", type=_file_or_stdin,
                        help="JSONL trace file ('-' reads stdin)")
    pipe_p.set_defaults(func=cmd_pipeview)

    status_p = sub.add_parser(
        "status",
        help="live status of a shared-directory (NoW) campaign")
    status_p.add_argument("share_dir", type=_share_dir,
                          help="the campaign share directory")
    status_p.add_argument("--json", action="store_true",
                          help="machine-readable output")
    status_p.add_argument("--coverage", action="store_true",
                          help="append the fault-space coverage frame "
                               "(space visited, Wilson-interval "
                               "outcome rates, margin convergence)")
    status_p.set_defaults(func=cmd_status)

    tl_p = sub.add_parser(
        "timeline",
        help="merge a traced campaign's span logs into Chrome "
             "trace-event JSON (Perfetto / chrome://tracing)")
    tl_p.add_argument("share_dir", type=_share_dir,
                      help="the campaign share directory")
    tl_p.add_argument("--output", "-o", default=None,
                      help="write the trace JSON here instead of stdout")
    tl_p.add_argument("--timebase", default="host",
                      choices=("host", "ticks"),
                      help="host = real wall-clock tracks; ticks = "
                           "deterministic simulated-tick layout "
                           "(byte-identical across same-seed reruns)")
    tl_p.add_argument("--slots", type=_positive_int, default=None,
                      help="workstation slots for --timebase ticks "
                           "(default: the workers that heartbeated)")
    tl_p.add_argument("--indent", type=int, default=None,
                      help="pretty-print the JSON with this indent")
    tl_p.add_argument("--tree", action="store_true",
                      help="print the span tree as indented text "
                           "instead of trace-event JSON (service jobs "
                           "root at their originating HTTP request)")
    tl_p.set_defaults(func=cmd_timeline)

    dash_p = sub.add_parser(
        "dashboard",
        help="live campaign dashboard with watchdog alerts")
    dash_p.add_argument("share_dir", type=_share_dir,
                        help="the campaign share directory")
    dash_p.add_argument("--interval", type=_interval, default=2.0,
                        help="refresh interval in seconds")
    dash_p.add_argument("--once", action="store_true",
                        help="print one frame and exit (scripts/CI)")
    dash_p.add_argument("--no-alerts", action="store_true",
                        help="do not journal alerts to alerts.jsonl")
    dash_p.set_defaults(func=cmd_dashboard)

    diff_p = sub.add_parser(
        "stats-diff",
        help="diff two stats dumps (Section IV.A validation)")
    diff_p.add_argument("a", type=_existing_file,
                        help="baseline stats dump")
    diff_p.add_argument("b", type=_existing_file,
                        help="comparison stats dump")
    diff_p.add_argument("--tolerance", type=float, default=0.0,
                        help="ignore relative differences up to this "
                             "fraction on timing-sensitive counters "
                             "(ticks/cycles/latencies); default 0 = "
                             "strict")
    diff_p.set_defaults(func=cmd_stats_diff)

    report_p = sub.add_parser(
        "report",
        help="aggregate a campaign share into an outcome report")
    report_p.add_argument("share_dir", type=_share_dir,
                         help="the campaign share directory")
    report_p.add_argument("--format", default="md",
                          choices=("md", "html"))
    report_p.add_argument("--output", "-o", default=None,
                          help="write here instead of stdout")
    report_p.add_argument("--baseline", default=None,
                          help="append a 'vs baseline' diff section: "
                               "a share dir, summary JSON file, or "
                               "(with --url) a job id / baseline name")
    report_p.add_argument("--url", default=None,
                          help="campaign service URL for resolving "
                               "--baseline job ids / baseline names")
    report_p.add_argument("--tenant", default="default")
    report_p.set_defaults(func=cmd_report)

    cmp_p = sub.add_parser(
        "compare",
        help="differential campaign analytics: significance-tested "
             "outcome deltas between two campaigns, with an optional "
             "regression gate")
    cmp_p.add_argument("base",
                       help="baseline campaign: share dir, summary "
                            "JSON file, or (with --url) a job id / "
                            "baseline name")
    cmp_p.add_argument("head",
                       help="head campaign (same forms as base)")
    cmp_p.add_argument("--url", default=None,
                       help="campaign service URL for resolving job "
                            "ids / baseline names")
    cmp_p.add_argument("--tenant", default="default")
    cmp_p.add_argument("--format", default="table",
                       choices=("table", "md", "json"),
                       help="aligned delta tables (default), "
                            "Markdown, or the raw JSON payload")
    cmp_p.add_argument("--json", dest="format", action="store_const",
                       const="json",
                       help="shorthand for --format json")
    cmp_p.add_argument("--md", dest="format", action="store_const",
                       const="md",
                       help="shorthand for --format md")
    cmp_p.add_argument("--confidence", type=_confidence, default=0.95,
                       help="Newcombe interval confidence level for "
                            "per-class deltas (default 0.95)")
    cmp_p.add_argument("--margin", type=_delta_margin, default=0.02,
                       help="minimum absolute rate delta to call a "
                            "class changed (default 0.02 = +-2%%)")
    cmp_p.add_argument("--output", "-o", default=None,
                       help="write here instead of stdout")
    cmp_p.add_argument("--gate", action="store_true",
                       help="exit 1 when the overall verdict is "
                            "'regressed' (CI regression gate)")
    cmp_p.set_defaults(func=cmd_compare)

    store_p = sub.add_parser(
        "store",
        help="campaign-service content store maintenance")
    store_sub = store_p.add_subparsers(dest="store_command",
                                       required=True)
    verify_p = store_sub.add_parser(
        "verify",
        help="recompute every stored object's digest; exit 1 on "
             "corrupt or orphaned entries")
    verify_p.add_argument("--data-dir", required=True,
                          help="service data dir (or the store root "
                               "itself)")
    verify_p.add_argument("--json", action="store_true",
                          help="emit the raw verification report")
    verify_p.set_defaults(func=cmd_store_verify)

    cov_p = sub.add_parser(
        "coverage",
        help="fault-space coverage analytics: space visited, outcome "
             "heatmaps with Wilson intervals, margin convergence")
    cov_p.add_argument("share_dir", type=_share_dir,
                       help="the campaign share directory")
    cov_p.add_argument("--format", default="table",
                       choices=("table", "md", "json"),
                       help="aligned heatmap tables (default), "
                            "Markdown, or the raw JSON payload")
    cov_p.add_argument("--json", dest="format", action="store_const",
                       const="json",
                       help="shorthand for --format json")
    cov_p.add_argument("--dimension", default=None, choices=DIMENSIONS,
                       help="render only this heatmap dimension "
                            "(table format)")
    cov_p.add_argument("--confidence", type=_confidence, default=0.99,
                       help="Wilson interval confidence level "
                            "(default 0.99)")
    cov_p.add_argument("--margin", type=_margin, default=0.01,
                       help="convergence margin on outcome-rate "
                            "half-widths (default 0.01 = +-1%%)")
    cov_p.add_argument("--output", "-o", default=None,
                       help="write here instead of stdout")
    cov_p.set_defaults(func=cmd_coverage)

    list_p = sub.add_parser("workloads",
                            help="list the paper's benchmarks")
    list_p.set_defaults(func=cmd_workloads)

    serve_p = sub.add_parser(
        "serve",
        help="run the campaign service (HTTP API + job dispatcher)")
    serve_p.add_argument("data_dir",
                         help="service state directory (queue.db, "
                              "content store, per-job shares)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="TCP port (0 = pick a free one)")
    serve_p.add_argument("--quota", type=int, default=0,
                         help="default per-tenant cap on active "
                              "(queued+leased) jobs; 0 = unlimited")
    serve_p.add_argument("--lease-seconds", type=float, default=600.0,
                         help="job lease length; a dispatcher that "
                              "dies is recovered after this long")
    serve_p.add_argument("--ui", action="store_true",
                         help="serve the embedded web console at /ui "
                              "(stdlib-rendered, zero dependencies)")
    serve_p.set_defaults(func=cmd_serve)

    sub_p = sub.add_parser(
        "submit", help="submit a campaign job to a running service")
    sub_p.add_argument("--url", default="http://127.0.0.1:8642",
                       help="service URL (see gemfi serve)")
    sub_p.add_argument("--tenant", default="default")
    sub_p.add_argument("--workload", "-w", default="dct",
                       choices=WORKLOAD_NAMES)
    sub_p.add_argument("--scale", default="tiny",
                       choices=("tiny", "small", "medium", "paper"))
    sub_p.add_argument("--experiments", "-n", type=int, default=40)
    sub_p.add_argument("--seed", type=int, default=0)
    sub_p.add_argument("--location", default=None,
                       choices=LOCATION_CHOICES,
                       help="pin the fault location")
    sub_p.add_argument("--workers", type=int, default=1,
                       help="worker processes for this job (0/1 = run "
                            "inside the dispatcher)")
    sub_p.add_argument("--priority", type=int, default=0,
                       help="higher runs first")
    sub_p.add_argument("--no-reuse", action="store_true",
                       help="run even if an identical job already "
                            "finished (skip result dedup)")
    sub_p.add_argument("--trace", action="store_true",
                       help="span-trace the campaign; its tree roots "
                            "at this submit request (gemfi timeline "
                            "--tree on the job's share)")
    sub_p.add_argument("--wait", action="store_true",
                       help="block until the job is terminal")
    sub_p.add_argument("--timeout", type=float, default=600.0,
                       help="--wait limit in seconds")
    sub_p.add_argument("--poll", type=float, default=0.5,
                       help="--wait poll interval in seconds")
    sub_p.add_argument("--json", action="store_true",
                       help="print the final job record as JSON")
    sub_p.set_defaults(func=cmd_submit)

    jobs_p = sub.add_parser(
        "jobs", help="list jobs on a running service")
    jobs_p.add_argument("--url", default="http://127.0.0.1:8642")
    jobs_p.add_argument("--tenant", default="default")
    jobs_p.add_argument("--mine", action="store_true",
                        help="only this tenant's jobs")
    jobs_p.add_argument("--json", action="store_true")
    jobs_p.set_defaults(func=cmd_jobs)

    usage_p = sub.add_parser(
        "usage",
        help="per-tenant usage metering from a running service")
    usage_p.add_argument("--url", default="http://127.0.0.1:8642")
    usage_p.add_argument("--tenant", default="default")
    usage_p.add_argument("--mine", action="store_true",
                         help="only this tenant's usage")
    usage_p.add_argument("--json", action="store_true")
    usage_p.set_defaults(func=cmd_usage)

    fetch_p = sub.add_parser(
        "fetch",
        help="fetch a stored artifact by digest (sha256-verified), "
             "or a job's results by job id")
    fetch_p.add_argument("digest",
                         help="a SHA-256 digest, or a job-... id "
                              "(fetches its result set)")
    fetch_p.add_argument("--url", default="http://127.0.0.1:8642")
    fetch_p.add_argument("--tenant", default="default")
    fetch_p.add_argument("--report", action="store_true",
                         help="with a job id: fetch the markdown "
                              "report instead of the result set")
    fetch_p.add_argument("--output", "-o", default=None,
                         help="write here instead of stdout")
    fetch_p.set_defaults(func=cmd_fetch)

    size_p = sub.add_parser(
        "sample-size",
        help="Leveugle DATE'09 statistical campaign sizing")
    size_p.add_argument("--population", type=_positive_int,
                        default=None)
    size_p.add_argument("--confidence", type=_confidence, default=0.99)
    size_p.add_argument("--margin", type=_margin, default=0.01)
    size_p.set_defaults(func=cmd_sample_size)
    return parser


def _campaign_flag_error(args: argparse.Namespace) -> str | None:
    """A ``gemfi campaign`` flag that the chosen mode would ignore: share
    workers run plain SEU experiments in the atomic model, and span
    tracing follows the share protocol."""
    if args.share_dir is None:
        return "--trace needs --share-dir" if args.trace else None
    if args.prune:
        return "--prune cannot run on a share (--share-dir)"
    if args.detailed_model is not None:
        return "--detailed-model cannot run on a share (--share-dir)"
    return None


def _run_flag_error(args: argparse.Namespace) -> str | None:
    """A ``gemfi run`` flag that needs another: the ring buffer and the
    pipeline events shape the ``--trace`` output, and a JSONL trace and
    the profile's JSON cannot share stdout."""
    if not args.trace:
        if args.ring:
            return "--ring needs --trace"
        return "--pipe needs --trace" if args.pipe else None
    if args.trace == "-" and args.json:
        return "--json and --trace - both write to stdout"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    check = {cmd_campaign: _campaign_flag_error,
             cmd_run: _run_flag_error}.get(args.func)
    error = check(args) if check else None
    if error:
        parser.exit(2, f"gemfi {args.command}: error: {error}\n")
    try:
        return args.func(args)
    except BrokenPipeError:
        # `gemfi jobs | head` (or any table command piped into a
        # pager that exits early) closes stdout mid-print; point the
        # fd at devnull so the interpreter-exit flush stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
