"""Self-tests of the campaign benchmark harness.

    PYTHONPATH=src python3 -m pytest campaign_bench/tests -q

Small-N runs: a two-batch pool and one set-up where the test drives the
harness in-process.  The CLI smoke runs execute each workload's whole
pool, so the file takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import direct
import harness
import run as bench
import serve
from harness import WORKLOADS, Oracle, OracleMismatch

ROOT = harness.ROOT
SERVE = WORKLOADS["deblocking-serve"]


def run_cli(*args, cwd=ROOT, script=harness.BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=600,
                          cwd=cwd)


@pytest.fixture(scope="module")
def one_setup():
    saved = direct.SETUP_REPEATS, serve.SETUP_REPEATS
    direct.SETUP_REPEATS = serve.SETUP_REPEATS = 1
    yield
    direct.SETUP_REPEATS, serve.SETUP_REPEATS = saved


@pytest.fixture(scope="module")
def traced(one_setup):
    """One traced small-N run per workload, shared by the tests below."""
    cache = {}

    def get(name):
        if name not in cache:
            workload = replace(WORKLOADS[name], pool_size=2)
            path = serve if workload.path == "serve" else direct
            cache[name] = path.run(workload, 7, 0.0, True, "pinned")
        return cache[name]
    return get


# -- smoke runs: the CLI output -----------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(name):
    proc = run_cli("--workload", name, "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] >= WORKLOADS[name].batch
    assert set(line["metrics"]) == set(bench.E2E_METRICS)
    for metric in line["metrics"].values():
        assert metric["unit"]
        assert metric["value"] > 0
    assert "failed_frac" in proc.stdout
    assert "host.factor" in proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer(traced, name):
    result = traced(name)
    assert result["tally"].failed == 0
    metrics = bench.metrics_of(result, trace=True)
    assert set(metrics) == set(bench.LAYER_METRICS)
    crossed = ["golden.s", "golden.instructions", "checkpoint.kb",
               "restore.ms", "window.ms", "drain.ms", "sim.kips",
               "sim.instructions"]
    if WORKLOADS[name].path == "serve":
        crossed += ["share.first_experiment_s", "share.protocol_ms",
                    "share.publish_s", "share.collect_s",
                    "queue.wait_s", "dispatch.golden_s",
                    "dispatch.campaign_s", "dispatch.report_s",
                    "http.submit_ms", "http.results_ms", "dedup.job_ms"]
    else:
        crossed.append("classify.ms")
    for name_ in crossed:
        assert metrics[name_][0] > 0, name_
    assert float(metrics["golden.instructions"][0]).is_integer()


@pytest.mark.parametrize("name", ["dct-atomic", "jacobi-o3"])
def test_traced_partition_accounts_for_the_experiment(traced, name):
    spans = traced(name)["spans"]
    children: dict[int, list] = {}
    for span in spans.spans:
        children.setdefault(span.parent, []).append(span)
    experiments = spans.named("experiment")
    assert experiments
    for exp in experiments:
        parts = {child.name: child.seconds for child in children[exp.id]}
        assert set(parts) == {"restore", "window", "injection", "drain",
                              "classify"}
        assert parts["classify"] >= 0
        assert sum(parts.values()) == pytest.approx(exp.seconds, rel=0.01)


class _SleepingRunner:
    """Stands in for CampaignRunner: each experiment sleeps 20 ms."""

    def run_campaign(self, faults, progress=None, seed=None):
        for index in range(len(faults)):
            time.sleep(0.02)
            progress(index + 1, len(faults))
        return list(faults)


def test_batch_times_leave_the_calibrations_out():
    batch = direct.Batch(_SleepingRunner(), [0, 1, 2], seed=7)
    assert len(batch.cals) == 4         # one before each experiment + last
    experiments = batch.experiment_seconds()
    assert all(0.02 <= s < 0.02 + min(batch.cals) for s in experiments)
    calibrating = sum(batch.cals[1:])
    assert batch.seconds() == pytest.approx(
        batch.end - batch.starts[0] - calibrating, abs=0.002)
    assert harness.host_factor([harness.REFERENCE_CALIBRATION_S / 2]) \
        == pytest.approx(2.0)


# -- the outcome oracle -------------------------------------------------------


def test_references_cover_both_pools_with_consistent_digests():
    data = json.loads(harness.REFERENCES.read_text())
    for name, workload in WORKLOADS.items():
        pools = data["workloads"][name]["pools"]
        assert set(pools) == set(harness.POOLS)
        for pool, entry in pools.items():
            seeds = harness.batch_seeds(workload, pool)
            vector = [o for seed in seeds
                      for o in entry["batches"][str(seed)]["outcomes"]]
            assert len(vector) == workload.batch * workload.pool_size
            assert entry["sha256"] == harness.vector_digest(vector)
            assert entry["mix"] == harness.outcome_mix(vector)


def test_oracle_rejects_a_changed_outcome():
    oracle = Oracle("dct-atomic", "pinned")
    seed = harness.batch_seeds(WORKLOADS["dct-atomic"], "pinned")[0]
    outcomes = list(oracle.batches[seed])
    oracle.check(seed, outcomes)
    outcomes[3] = "sdc" if outcomes[3] != "sdc" else "crashed"
    with pytest.raises(OracleMismatch, match=f"batch seed {seed}"):
        oracle.check(seed, outcomes)


# -- the serve path -----------------------------------------------------------


@pytest.fixture(scope="module")
def service():
    from repro.service import ServiceClient
    server = serve.Server(harness.WORK_DIR / "test-serve").start()
    client = ServiceClient(server.url)
    yield server, client
    client.close()
    server.stop()


def test_serve_results_are_byte_identical_to_a_direct_run(service):
    from repro.campaign import CampaignRunner
    from repro.service import canonical_json_bytes
    from repro.service.jobs import canonical_results
    from repro.workloads import build
    _, client = service
    seed = harness.batch_seeds(SERVE, "pinned")[0]
    job, *_ = serve.submit_and_wait(client, serve.job_spec(SERVE, seed))
    assert job["state"] == "done"
    served = client.fetch(job["result_digest"])

    runner = CampaignRunner(build(SERVE.app, SERVE.scale))
    results = runner.run_campaign(
        harness.fault_batch(runner, seed, SERVE.batch), seed=seed)
    local = canonical_json_bytes(
        canonical_results([result.as_dict() for result in results]))
    assert served == local
    Oracle(SERVE.name, "pinned").check(
        seed, [result.outcome.value for result in results])


class _FailingClient:
    """Answers like a service whose dispatcher failed the job."""

    def submit(self, spec, reuse=True):
        return {"id": "job-1", "state": "queued"}

    def job(self, job_id):
        return {"id": job_id, "state": "failed",
                "error": "RuntimeError: forced"}


def test_failed_job_counts_all_its_experiments():
    run = serve.ServeRun(SERVE, 7, False, "pinned")
    run.job_pair(_FailingClient(), 7, traced=False)
    assert (run.tally.attempted, run.tally.failed) == (SERVE.batch,
                                                       SERVE.batch)
    assert run.tally.failed_frac == 1.0
    assert run.job_s == {}


def test_timed_out_job_is_a_failure_and_the_busy_server_is_reaped(
        service):
    server, client = service
    run = serve.ServeRun(SERVE, 7, False, "pinned", job_timeout=0.0)
    seed = harness.batch_seeds(SERVE, "pinned")[1]
    run.job_pair(client, seed, traced=False)
    assert run.tally.failed == run.tally.attempted == SERVE.batch
    process = server.process
    client.close()
    server.stop()           # the job is still running in its workers
    assert process.returncode is not None
    assert not server.data_dir.exists()


# -- without the program ------------------------------------------------------


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "campaign_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "dct-atomic", "--seconds", "1",
                   cwd=tmp_path,
                   script=tmp_path / "campaign_bench" / "run.py")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
