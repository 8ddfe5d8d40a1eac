#!/usr/bin/env python3
"""Campaign on a (simulated) network of workstations — Section III.E.

Demonstrates both halves of the paper's NoW support:

* the **shared-directory protocol**: experiments and the checkpoint are
  published to a share; workers claim experiments atomically, run them
  locally from the checkpointed state and write results back (steps 1-6
  of Section III.E) — executed here with real OS processes, or in this
  process when one worker is asked for;
* the **makespan arithmetic** behind Fig. 8's ~108x: the measured
  per-experiment durations replayed over 27 workstations x 4 slots.

Run:  python examples/now_campaign.py [experiments] [workers]
"""

import sys
import tempfile

from repro.campaign import (
    CampaignRunner,
    NoWConfig,
    SEUGenerator,
    SharedDirCampaign,
    now_speedup,
    outcome_counts,
    simulate_makespan,
)
from repro.workloads import build


def main():
    experiments = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    print("preparing golden run + checkpoint for 'pi' (tiny scale)...")
    runner = CampaignRunner(build("pi", "tiny"))
    generator = SEUGenerator(runner.golden.profile, seed=77)
    faults = [generator.batch(1) for _ in range(experiments)]

    with tempfile.TemporaryDirectory(prefix="gemfi_share_") as share:
        campaign = SharedDirCampaign(share, "pi", "tiny")
        campaign.publish(runner, faults)
        print(f"published {experiments} experiment files + checkpoint "
              f"to the share; launching {workers} worker(s)...")
        campaign.run_local(workers=workers, runner=runner)
        results = campaign.collect()

    print(f"collected {len(results)} results: "
          f"{outcome_counts(results)}")

    durations = [entry["wall_seconds"] for entry in results]
    serial = sum(durations)
    for workstations, slots in ((2, 2), (8, 4), (27, 4)):
        config = NoWConfig(workstations, slots)
        scale = max(1, 2500 // len(durations))
        scaled = durations * scale
        makespan = simulate_makespan(scaled, config)
        speedup = now_speedup(scaled, config)
        print(f"  {workstations:2d} workstations x {slots} slots: "
              f"paper-sized campaign makespan {makespan:7.1f}s, "
              f"speedup {speedup:6.1f}x (slots={config.total_slots})")
    print(f"\n(the paper's 27x4 cluster measured ~108x — consistent "
          "with the slot count)")
    print(f"serial time of this campaign: {serial:.1f}s")


if __name__ == "__main__":
    main()
