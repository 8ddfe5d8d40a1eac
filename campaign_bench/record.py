"""Record the outcome oracle: ``references.json``.

For every workload and fault pool, run each batch through a direct
``CampaignRunner`` (the serve workload too: the service must reproduce
the direct outcomes byte for byte) and store its per-experiment outcome
vector in fault order, with the vector's sha256 and outcome mix; and
per pool the same over all its batches in seed order (the serve
warm-up batch is recorded but not part of the pool).

    python3 campaign_bench/record.py [--workload NAME]

Re-record only when a change is *meant* to alter outcomes; a perf
change that moves any outcome must fail the benchmark instead.
"""

from __future__ import annotations

import argparse
import json
import sys

from harness import (POOLS, REFERENCES, SRC, WORKLOADS, batch_seeds,
                     fault_batch, outcome_mix, vector_digest,
                     warmup_seed)


def record_workload(workload) -> dict:
    from repro.campaign import CampaignRunner
    from repro.workloads import build
    runner = CampaignRunner(build(workload.app, workload.scale),
                            detailed_model=workload.detailed_model)
    pools = {}
    for pool in POOLS:
        seeds = batch_seeds(workload, pool)
        extra = [warmup_seed(workload, pool)] \
            if workload.path == "serve" else []
        batches, vector = {}, []
        for seed in seeds + extra:
            results = runner.run_campaign(
                fault_batch(runner, seed, workload.batch), seed=seed)
            outcomes = [result.outcome.value for result in results]
            batches[str(seed)] = {"outcomes": outcomes,
                                  "sha256": vector_digest(outcomes),
                                  "mix": outcome_mix(outcomes)}
            if seed in seeds:
                vector.extend(outcomes)
            print(f"# {workload.name} {pool} seed {seed}: "
                  f"{outcome_mix(outcomes)}", file=sys.stderr)
        pools[pool] = {"sha256": vector_digest(vector),
                       "mix": outcome_mix(vector), "batches": batches}
    return {"app": workload.app, "scale": workload.scale,
            "detailed_model": workload.detailed_model,
            "batch": workload.batch, "pools": pools}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="record only these (default: all)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        with open(REFERENCES, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        data = {"format": 1, "workloads": {}}
    for name in args.workload or sorted(WORKLOADS):
        data["workloads"][name] = record_workload(WORKLOADS[name])
        with open(REFERENCES, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
