"""The pinned-seed perf suite: the repo's continuous perf trajectory.

Measures sim-rate (KIPS) and host-time attribution for every
``<workload>/<model>`` case and writes ``BENCH_perf.json`` at the repo
root (schema ``gemfi-bench-v1``).  The committed copy of that file is
the baseline the CI ``perf`` job gates against (>25% KIPS regression
fails the build; see ``check_regression.py``).

Cases are parametrized by CPU model so CI can run a host-noise-friendly
subset (``-k "atomic or o3"``, which also selects the
``atomic-checkpoint`` cases: atomic runs resumed from the boot
checkpoint, so the gate covers window and drain code, not only boot
code); the session-scoped collector writes
whichever cases actually ran, and the regression gate compares the
intersection with the baseline.
"""

from __future__ import annotations

import pytest

from perf_common import (CHECKPOINT_MODEL, MODELS, REPEATS, SCALE,
                         WORKLOADS, measure_case)

COVERAGE_FLOOR = 0.90   # acceptance: buckets sum to >= 90% of wall

_CASES: dict[str, dict] = {}


@pytest.fixture(scope="session", autouse=True)
def _write_bench():
    """Write BENCH_perf.json from every case measured this session."""
    yield
    if not _CASES:
        return
    from bench_schema import write_bench
    kips = [case["kips_mean"] for case in _CASES.values()]
    coverage = [case["coverage"] for case in _CASES.values()]
    path = write_bench(
        "perf", scale=SCALE, repeats=REPEATS, cases=dict(_CASES),
        summary={
            "kips_min": min(kips),
            "kips_max": max(kips),
            "coverage_min": min(coverage),
            "models": sorted({key.split("/", 1)[1] for key in _CASES}),
            "workloads": sorted({key.split("/", 1)[0]
                                 for key in _CASES}),
        })
    print(f"\n# wrote {path}")


@pytest.mark.parametrize("model", MODELS + (CHECKPOINT_MODEL,))
def test_perf_model(model):
    """Measure both workloads on one CPU model; assert the profiler's
    attribution covers >= 90% of the measured wall time."""
    for workload in WORKLOADS:
        case = measure_case(workload, model, REPEATS)
        assert case["coverage"] >= COVERAGE_FLOOR, \
            f"{workload}/{model}: attribution covers only " \
            f"{case['coverage']:.1%} of wall time"
        assert case["kips_mean"] > 0
        _CASES[f"{workload}/{model}"] = case
