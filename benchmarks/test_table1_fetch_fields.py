"""Table I — Alpha instruction formats: fetch-stage faults per field.

The paper validates fetch-stage injection by correlating the affected
*bit location* (hence instruction field — opcode, Ra, Rb, function,
displacement, literal, unused/SBZ) with the end result:

* "experiments affecting unused bits always resulted into strict
  correct results";
* "when faults were injected into the opcode or the function and the
  resulting opcode/function is not implemented the benchmarks always
  terminated ... due to illegal instruction";
* "whenever faults altered the displacement field of memory
  instructions the application would crash with a high probability".
"""

from __future__ import annotations

import zlib

from repro.campaign import Outcome, SEUGenerator, by_fetch_field, \
    render_table
from repro.core import LocationKind

from conftest import publish, runner_for, runs_setting

RUNS_PER_APP = runs_setting(40)
WORKLOADS = ("dct", "jacobi", "pi", "knapsack", "deblocking", "canneal")


def test_table1_fetch_field_analysis(benchmark):
    def campaign():
        merged = []
        for name in WORKLOADS:
            runner = runner_for(name)
            seed = 0x7AB1 + zlib.crc32(name.encode()) % 1000
            generator = SEUGenerator(runner.golden.profile, seed=seed)
            faults = generator.batch(RUNS_PER_APP,
                                     location=LocationKind.FETCH)
            merged.extend(runner.run_campaign(faults))
        return merged

    merged = benchmark.pedantic(campaign, rounds=1, iterations=1)
    groups = by_fetch_field(merged)
    text = ("Table I analysis — fetch-stage flips classified by the "
            "instruction field hit\n"
            f"({RUNS_PER_APP} fetch SEU per app, "
            f"{len(merged)} total):\n\n"
            + render_table(groups))

    masked = (Outcome.NON_PROPAGATED, Outcome.STRICTLY_CORRECT)

    if "unused" in groups:
        unused_masked = sum(groups["unused"].fraction(o) for o in masked)
        assert unused_masked == 1.0, \
            "flips in SBZ bits must always be architecturally invisible"
        text += ("\n\nunused/SBZ bits: "
                 f"{unused_masked:.0%} strictly masked "
                 "[paper: 'always resulted into strict correct']")

    if "opcode" in groups:
        opcode_crash = groups["opcode"].fraction(Outcome.CRASHED)
        displacement_crash = groups.get("displacement")
        assert opcode_crash >= 0.3, \
            f"opcode flips should often be fatal, got {opcode_crash:.0%}"
        text += (f"\nopcode flips: {opcode_crash:.0%} crash "
                 "[paper: unimplemented opcode -> illegal instruction]")

    if "displacement" in groups:
        disp_crash = groups["displacement"].fraction(Outcome.CRASHED)
        text += (f"\ndisplacement flips: {disp_crash:.0%} crash "
                 "[paper: memory-instruction displacement -> crash "
                 "with high probability]")

    # Register-selection fields mostly change data, not control.
    for field_name in ("ra", "rb"):
        if field_name in groups:
            changed = 1.0 - sum(groups[field_name].fraction(o)
                                for o in masked)
            text += (f"\n{field_name} flips: {changed:.0%} "
                     "visible (SDC/crash/correct-by-luck)")

    publish("table1_fetch_fields", text)
