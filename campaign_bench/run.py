"""GemFI campaign benchmark: experiments/s, set-up and latency on the
direct, detailed-O3 and ``gemfi serve`` paths, split by layer.

    python3 campaign_bench/run.py --workload dct-atomic --seed 7 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (from in-memory spans written to
``.campaign_bench/spans-<workload>-<seed>.jsonl`` at exit).  Every run
checks each batch's outcome vector against ``references.json``; the
last stdout line is one JSON object ``{correct, attempted, failed,
metrics}``.  Exit status is 0 only when the run completed and every
outcome matched.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from harness import (DEFAULT_SEED, POOLS, SRC, WORK_DIR, WORKLOADS,
                     OracleMismatch)

E2E_METRICS = ("setup_s", "experiments_per_s", "experiment_ms_p50",
               "experiment_ms_p90", "job_s_p50", "peak_rss_mb")
#: per-layer metric -> unit.  A layer the workload's path never crosses
#: (the service on a direct workload, share I/O in-process) reads 0.
LAYER_METRICS = {
    "golden.s": "s", "golden.instructions": "count",
    "checkpoint.kb": "KB", "restore.ms": "ms", "window.ms": "ms",
    "injection.ms": "ms", "drain.ms": "ms", "sim.kips": "kinst/s",
    "sim.instructions": "count", "classify.ms": "ms",
    "share.first_experiment_s": "s", "share.protocol_ms": "ms",
    "share.publish_s": "s", "share.collect_s": "s",
    "queue.wait_s": "s", "dispatch.golden_s": "s",
    "dispatch.campaign_s": "s", "dispatch.report_s": "s",
    "http.submit_ms": "ms", "http.results_ms": "ms",
    "dedup.job_ms": "ms", "trace.overhead_frac": "fraction",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="orders the pool's fault batches")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", choices=sorted(POOLS),
                        default="pinned",
                        help="fault pool (held-out: re-check a claim "
                             "on seeds it was not tuned on)")
    return parser.parse_args(argv)


def measure(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    if workload.path == "serve":
        import serve as path
    else:
        import direct as path
    return path.run(workload, args.seed, args.seconds, bool(args.trace),
                    args.pool)


def metrics_of(result: dict, trace: bool) -> dict:
    if not trace:
        return {name: result["e2e"][name] for name in E2E_METRICS}
    layers = result["layers"]
    return {name: layers.get(name, (0.0, unit))
            for name, unit in LAYER_METRICS.items()}


def report(args, result: dict) -> None:
    """Human-readable summary (stdout, before the JSON line)."""
    tally = result["tally"]
    print(f"# {args.workload}  seed={args.seed}  pool={args.pool}  "
          f"trace={args.trace}  samples={result['samples']}")
    for name, (value, unit) in {**result["e2e"],
                                **result["unscaled"]}.items():
        print(f"#   {name:<22} {value:>12.4f} {unit}")
    print(f"#   {'failed_frac':<22} {tally.failed_frac:>12.4f} "
          f"({tally.failed}/{tally.attempted})")
    for name, (value, unit) in result["layers"].items():
        print(f"#   {name:<26} {value:>12.4f} {unit}")
    spans = result["spans"]
    if spans.enabled:
        path = WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.write(path)
        print("# spans (self time = duration minus children)")
        for line in spans.render().splitlines():
            print(f"#   {line}")
        print(f"# spans written to {path.relative_to(WORK_DIR.parent)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = measure(args)
    except OracleMismatch as exc:
        print(f"OUTCOME MISMATCH: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except Exception:
        traceback.print_exc()
        return 3
    report(args, result)
    tally = result["tally"]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
               in metrics_of(result, bool(args.trace)).items()}
    print(json.dumps({"correct": True, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
