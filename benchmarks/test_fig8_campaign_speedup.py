"""Fig. 8 — effect of GemFI's optimisations on campaign execution time.

Three configurations per the paper (log-scale bars there):

1. **plain** — every experiment simulates from power-on (boot + program
   initialisation + FI window);
2. **checkpoint** — one checkpoint taken at ``fi_read_init_all`` (after
   boot + init) fast-forwards every experiment (paper: 3x-244x, 64.5x
   average — dominated by each app's init/kernel time ratio);
3. **NoW** — the campaign spread over 27 workstations x 4 simulation
   slots via the shared-directory protocol (paper: ~108x extra,
   consistent with the slot count).

The checkpoint column is the paper's single boot checkpoint: the
runner's checkpoint ladder is cut to its boot rung.  The extra
**ladder** column is the full runner, which also starts each
experiment at the latest golden snapshot before its fault and stops
once the faulty run rejoins the golden run.

The checkpoint speedup is *measured* on real campaigns; the NoW speedup
replays the measured per-experiment durations through the deterministic
makespan meta-scheduler (this host has one core; the real multi-process
executor is exercised in the test suite).
"""

from __future__ import annotations

import copy
import dataclasses
import zlib

from repro.campaign import (
    NoWConfig,
    SEUGenerator,
    now_speedup,
    simulate_makespan,
)

from conftest import publish, runner_for, runs_setting

EXPERIMENTS = runs_setting(12)
WORKLOADS = ("dct", "jacobi", "pi", "knapsack", "deblocking", "canneal")
NOW = NoWConfig(workstations=27, slots_per_workstation=4)


def _measure(name: str):
    laddered = runner_for(name)
    checkpointed = copy.copy(laddered)
    checkpointed.golden = dataclasses.replace(
        laddered.golden, rungs=laddered.golden.rungs[:1])
    from repro.campaign import CampaignRunner
    from repro.workloads import build
    from conftest import SCALE
    plain = CampaignRunner(build(name, SCALE), use_checkpoint=False)

    generator = SEUGenerator(checkpointed.golden.profile,
                             seed=808 + zlib.crc32(name.encode()) % 100)
    faults = generator.batch(EXPERIMENTS)

    plain_results = plain.run_campaign(faults)
    ckpt_results = checkpointed.run_campaign(faults)
    ladder_results = laddered.run_campaign(faults)
    assert [r.outcome for r in ladder_results] == \
        [r.outcome for r in ckpt_results]
    plain_time = sum(r.wall_seconds for r in plain_results)
    ckpt_time = sum(r.wall_seconds for r in ckpt_results)
    ladder_time = sum(r.wall_seconds for r in ladder_results)
    ckpt_durations = [r.wall_seconds for r in ckpt_results]
    return plain_time, ckpt_time, ladder_time, ckpt_durations


def test_fig8_campaign_time_optimisations(benchmark):
    measured = benchmark.pedantic(
        lambda: {name: _measure(name) for name in WORKLOADS},
        rounds=1, iterations=1)

    lines = ["workload      plain(s)  ckpt(s)  ckpt-speedup  "
             "ladder(s)  ladder-speedup  NoW-makespan(s)  "
             "NoW-extra-speedup"]
    ckpt_speedups = []
    ladder_speedups = []
    now_speedups = []
    for name, (plain_time, ckpt_time, ladder_time,
               durations) in measured.items():
        ckpt_speedup = plain_time / ckpt_time if ckpt_time else 1.0
        ladder_speedup = plain_time / ladder_time if ladder_time else 1.0
        # Scale the measured campaign to paper size (~2500 experiments)
        # for the NoW makespan arithmetic.
        paper_scale = max(1, 2500 // max(1, len(durations)))
        scaled = durations * paper_scale
        makespan = simulate_makespan(scaled, NOW)
        now_extra = now_speedup(scaled, NOW)
        ckpt_speedups.append(ckpt_speedup)
        ladder_speedups.append(ladder_speedup)
        now_speedups.append(now_extra)
        lines.append(
            f"{name:12s}  {plain_time:7.2f}  {ckpt_time:7.2f}  "
            f"{ckpt_speedup:11.2f}x  {ladder_time:8.2f}  "
            f"{ladder_speedup:13.2f}x  {makespan:14.2f}  "
            f"{now_extra:16.1f}x")

    average_ckpt = sum(ckpt_speedups) / len(ckpt_speedups)
    average_ladder = sum(ladder_speedups) / len(ladder_speedups)
    average_now = sum(now_speedups) / len(now_speedups)
    text = ("Fig. 8 — campaign execution time under GemFI optimisations"
            f" ({EXPERIMENTS} experiments/app, NoW modelled at "
            f"{NOW.workstations}x{NOW.slots_per_workstation} slots "
            "over paper-sized 2500-experiment campaigns):\n\n"
            + "\n".join(lines)
            + f"\n\naverage checkpoint speedup: {average_ckpt:.2f}x "
              "(paper: 3x-244x, avg 64.5x — proportional to each app's "
              "pre-checkpoint share,\n  which is small at these reduced "
              "input scales and grows with REPRO_SCALE)\n"
              f"average ladder speedup: {average_ladder:.2f}x "
              "(checkpoint ladder + reconvergence exit; not in the "
              "paper)\n"
              f"average NoW extra speedup: {average_now:.1f}x "
              "(paper: ~108x, 'consistent with the number of "
              "simultaneously executed experiments')")
    # Published before the shape checks, so a failing check still
    # leaves the measured table to read.
    publish("fig8_campaign_speedup", text)

    # Shape: checkpointing always helps; NoW scheduling approaches the
    # slot count for paper-sized campaigns (paper: ~108x).
    assert all(s > 1.0 for s in ckpt_speedups), \
        "checkpoint fast-forward must speed up every campaign"
    assert all(90.0 < s <= NOW.total_slots for s in now_speedups), \
        "NoW speedup should approach the 108-slot count"
