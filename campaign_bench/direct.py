"""Direct workloads: ``CampaignRunner(...)`` then ``run_campaign`` over
fault batches, one batch (campaign) in flight at a time.

A run executes every batch of its pool once, in the order ``--seed``
gives, then cycles through them again until ``--seconds`` have passed.
A fault's (and a batch's) time is the median over the times it ran, so
every run reports on the same experiments.  The progress callback runs
a ~10 ms calibration loop after each experiment; its time is left out
of every measured time, and the batch's times are scaled to the
reference host by the mean of its calibrations.
"""

from __future__ import annotations

import statistics
import time
import traceback

from harness import (PHASES, Oracle, Spans, Tally, Workload, calibrate,
                     calibrations, fault_batch, host_factor, log,
                     median_rate, overhead, peak_rss_mb, quantile,
                     run_order, sim_layers)

#: set-ups per run (setup_s is their median); one takes 0.5-2 s.
SETUP_REPEATS = 3
#: calibration loops before and after each set-up
SETUP_CALIBRATIONS = 5


def build_runner(workload: Workload, spans: Spans):
    """One set-up: compile, golden run, checkpoint.  Returns the runner,
    the seconds its construction took and the scale factor of the
    calibrations taken around it."""
    from repro.campaign import CampaignRunner
    from repro.workloads import build
    before = calibrations(SETUP_CALIBRATIONS)
    t0 = time.perf_counter()
    runner = CampaignRunner(build(workload.app, workload.scale),
                            detailed_model=workload.detailed_model)
    t1 = time.perf_counter()
    after = calibrations(SETUP_CALIBRATIONS)
    setup = spans.add("setup", t0, t1)
    # GoldenRun.wall_seconds times sim.run only; compile and load come
    # first, so the golden span ends where construction does.
    spans.add("golden", t1 - runner.golden.wall_seconds, t1, setup)
    return runner, t1 - t0, host_factor(before + after)


class Batch:
    """One ``run_campaign`` call, timed around its experiments.

    Experiment k runs from ``starts[k]`` to ``ends[k + 1]``; between
    ``ends[k]`` and ``starts[k]`` the progress callback calibrates
    (``cals[k]`` seconds).  ``ends[0]`` is the call's start, ``end``
    its return."""

    def __init__(self, runner, faults, seed: int) -> None:
        self.seed = seed
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.cals: list[float] = []
        self.mark()
        try:
            self.results = runner.run_campaign(faults, progress=self.mark,
                                               seed=seed)
        except Exception:
            log(traceback.format_exc())
            self.results = []
        self.end = time.perf_counter()

    def mark(self, *_) -> None:
        self.ends.append(time.perf_counter())
        self.cals.append(calibrate())
        self.starts.append(time.perf_counter())

    def experiment_seconds(self) -> list[float]:
        return [self.ends[k + 1] - self.starts[k]
                for k in range(len(self.results))]

    def seconds(self) -> float:
        """The call's time without the calibrations inside it."""
        paused = sum(start - end for start, end
                     in zip(self.starts[1:], self.ends[1:]))
        return self.end - self.starts[0] - paused

    def add_spans(self, spans: Spans) -> None:
        campaign = spans.add("campaign", self.starts[0], self.end,
                             seed=self.seed)
        for end, start in zip(self.ends[1:], self.starts[1:]):
            spans.add("calibrate", end, start, campaign)
        for k, result in enumerate(self.results):
            exp = spans.add("experiment", self.starts[k], self.ends[k + 1],
                            campaign, outcome=result.outcome.value,
                            instructions=result.instructions)
            phases = result.phases or {}
            edge = spans.seq(exp, self.starts[k],
                             [(name, phases.get(key, 0.0))
                              for name, key in PHASES])
            spans.add("classify", edge, self.ends[k + 1], exp)


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        pool: str) -> dict:
    spans = Spans(trace)
    oracle = Oracle(workload.name, pool)
    setups, raw_setups, goldens = [], [], []
    for _ in range(SETUP_REPEATS):
        runner, setup_seconds, scale = build_runner(workload, spans)
        setups.append(scale * setup_seconds)
        raw_setups.append(setup_seconds)
        goldens.append(runner.golden)
    order = run_order(workload, pool, seed)
    batches = {s: fault_batch(runner, s, workload.batch) for s in order}

    tally = Tally()
    # scaled seconds of each experiment, by (batch seed, index), and of
    # each complete campaign, by batch seed, over the times they ran
    exp_s: dict[tuple[int, int], list[float]] = {}
    campaign_s: dict[int, list[float]] = {}
    campaign_wall: list[float] = []
    factors: list[float] = []
    # [experiments, seconds] of untraced / traced batches: their ratio
    # is the tracing overhead.
    rate = {False: [0, 0.0], True: [0, 0.0]}
    deadline = time.perf_counter() + seconds
    index = 0
    # A traced run alternates untraced and traced batches; every pool
    # has more than two, so it runs at least one of each.
    while index < len(order) or time.perf_counter() < deadline:
        batch_seed = order[index % len(order)]
        traced = trace and index % 2 == 1
        index += 1
        faults = batches[batch_seed]
        batch = Batch(runner, faults, batch_seed)
        results = batch.results
        if traced:
            batch.add_spans(spans)
        tally.attempted += len(faults)
        tally.failed += len(faults) - len(results)
        rate[traced][0] += len(results)
        rate[traced][1] += batch.seconds()
        if len(results) < len(faults):
            continue
        oracle.check(batch_seed,
                     [result.outcome.value for result in results])
        scale = host_factor(batch.cals)
        factors.append(scale)
        campaign_s.setdefault(batch_seed, []).append(
            scale * batch.seconds())
        campaign_wall.append(batch.seconds())
        for k, exp in enumerate(batch.experiment_seconds()):
            exp_s.setdefault((batch_seed, k), []).append(scale * exp)

    per_fault = [statistics.median(times) for times in exp_s.values()]
    per_batch = [statistics.median(times) for times in campaign_s.values()]
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "experiments_per_s": (workload.batch * len(per_batch)
                              / sum(per_batch), "1/s"),
        "experiment_ms_p50": (1000 * statistics.median(per_fault), "ms"),
        "experiment_ms_p90": (1000 * quantile(per_fault, 90), "ms"),
        "job_s_p50": (statistics.median(per_batch), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    unscaled = {
        "host.factor": (statistics.median(factors), "x"),
        "wall.setup_s": (statistics.median(raw_setups), "s"),
        "wall.experiments_per_s": (median_rate(workload.batch,
                                               campaign_wall), "1/s"),
        "wall.job_s_p50": (statistics.median(campaign_wall), "s"),
    }
    layers = direct_layers(spans, goldens, rate) if trace else {}
    return {"e2e": e2e, "unscaled": unscaled, "layers": layers,
            "tally": tally, "spans": spans,
            "samples": {"faults": len(per_fault),
                        "campaigns": len(campaign_wall)}}


def direct_layers(spans: Spans, goldens: list, rate: dict) -> dict:
    layers = sim_layers(spans, goldens, "experiment")
    layers["classify.ms"] = (spans.mean("classify", 1000), "ms")
    layers["trace.overhead_frac"] = (overhead(rate), "fraction")
    return layers
