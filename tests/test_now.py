"""Network-of-workstations campaign tests (Section III.E, Fig. 8)."""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.campaign import (
    CampaignRunner,
    NoWConfig,
    SEUGenerator,
    SharedDirCampaign,
    now_speedup,
    outcome_counts,
    simulate_makespan,
)
from repro.campaign import now
from repro.campaign.now import load_golden
from repro.telemetry import campaign as telemetry_campaign
from repro.telemetry import read_status
from repro.workloads import build


class TestMakespanMetaSimulator:
    def test_empty_campaign(self):
        assert simulate_makespan([], NoWConfig()) == 0.0

    def test_single_slot_serialises(self):
        config = NoWConfig(workstations=1, slots_per_workstation=1)
        assert simulate_makespan([1.0, 2.0, 3.0], config) == 6.0

    def test_perfect_parallelism_with_equal_jobs(self):
        config = NoWConfig(workstations=2, slots_per_workstation=2)
        assert simulate_makespan([1.0] * 8, config) == 2.0

    def test_makespan_bounded_by_longest_job(self):
        config = NoWConfig(workstations=4, slots_per_workstation=1)
        durations = [10.0] + [0.1] * 30
        makespan = simulate_makespan(durations, config)
        assert makespan >= 10.0
        assert makespan < 12.0

    def test_checkpoint_copy_adds_constant(self):
        config = NoWConfig(workstations=2, slots_per_workstation=1)
        without = simulate_makespan([1.0] * 4, config)
        with_copy = simulate_makespan([1.0] * 4, config,
                                      checkpoint_copy_seconds=5.0)
        assert with_copy == without + 5.0

    def test_paper_scale_speedup_approaches_slot_count(self):
        """Fig. 8: with 27x4 = 108 slots and thousands of similar-length
        experiments the speedup approaches ~108x."""
        config = NoWConfig(workstations=27, slots_per_workstation=4)
        durations = [1.0 + (i % 7) * 0.01 for i in range(2500)]
        speedup = now_speedup(durations, config)
        assert 95.0 < speedup <= 108.0

    def test_speedup_capped_by_work(self):
        config = NoWConfig(workstations=27, slots_per_workstation=4)
        assert now_speedup([5.0], config) == 1.0


class TestSharedDirProtocol:
    @pytest.fixture(scope="class")
    def runner(self):
        return CampaignRunner(build("pi", "tiny"))

    def test_publish_creates_share_layout(self, tmp_path, runner):
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=3)
        campaign.publish(runner, generator.batch(4))
        assert sorted(os.listdir(tmp_path / "todo")) == [
            f"exp_{i:04d}.txt" for i in range(4)]
        # The checkpoint travels inside golden.pkl, which workers load.
        golden = load_golden(str(tmp_path))
        assert golden.checkpoint == runner.golden.checkpoint
        assert (tmp_path / "workload.json").exists()

    def test_claim_is_exclusive(self, tmp_path, runner):
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=4)
        campaign.publish(runner, generator.batch(3))
        claims = [campaign.claim("w0"), campaign.claim("w1"),
                  campaign.claim("w0"), campaign.claim("w1")]
        assert claims[3] is None
        assert len({c for c in claims if c}) == 3
        assert sorted(os.listdir(tmp_path / "claims")) == [
            f"exp_{i:04d}.txt.claim" for i in range(3)]

    def test_worker_loop_in_process(self, tmp_path, runner):
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=5)
        campaign.publish(runner, generator.batch(5))
        completed = campaign.worker_loop("w0", runner)
        assert completed == 5
        results = campaign.collect()
        assert len(results) == 5
        counts = outcome_counts(results)
        assert sum(counts.values()) == 5

    def test_worker_writes_a_claim_a_result_and_a_manifest_per_run(
            self, tmp_path, runner, monkeypatch):
        """Per experiment a worker creates its claim, its result and its
        run manifest, and nothing else: the claim names the running
        experiment, so no heartbeat is written around it.  The worker
        beats once at the start and once at the end (the periodic beat
        does not come round in a campaign this short)."""
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=26)
        campaign.publish(runner, generator.batch(3))
        written = []
        real_open, real_replace = os.open, os.replace

        def creating_open(path, flags, *args, **kwargs):
            if flags & os.O_CREAT:
                written.append(path)
            return real_open(path, flags, *args, **kwargs)

        def replace(src, dst, *args, **kwargs):
            written.append(dst)
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "open", creating_open)
        monkeypatch.setattr(os, "replace", replace)
        assert campaign.worker_loop("w0", runner) == 3
        monkeypatch.undo()
        per_run = [f"{directory}/exp_{index:04d}{suffix}"
                   for index in range(3)
                   for directory, suffix in (("claims", ".txt.claim"),
                                             ("results", ".json"),
                                             ("manifests", ".json"))]
        assert sorted(os.path.relpath(path, tmp_path)
                      for path in written) == \
            sorted(per_run + ["heartbeats/w0.json"] * 2)

    def test_worker_ids_with_underscores_run_each_experiment_once(
            self, tmp_path, runner):
        """A worker id with an "_" in it must not garble the names of
        the experiments it runs, or a later worker finds no result,
        steals the claims and runs them all again."""
        share = str(tmp_path)
        campaign = SharedDirCampaign(share, "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=11)
        campaign.publish(runner, generator.batch(3))
        assert campaign.worker_loop("node_1", runner) == 3
        assert sorted(os.listdir(tmp_path / "results")) == [
            f"exp_{i:04d}.json" for i in range(3)]
        late = SharedDirCampaign(share, "pi", "tiny",
                                 clock=lambda: time.time() + 1000)
        assert late.worker_loop("ws1", runner) == 0
        assert len(campaign.collect()) == 3
        status = read_status(share)
        assert (status.completed, status.claimed) == (3, 0)

    def test_claim_writes_exclusive_claim_file(self, tmp_path, runner):
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=7)
        campaign.publish(runner, generator.batch(1))
        target = campaign.claim("w0")
        assert target is not None
        assert target == "exp_0000"
        claim_path = tmp_path / "claims" / "exp_0000.txt.claim"
        entry = json.loads(claim_path.read_text())
        assert entry["worker"] == "w0"
        assert entry["pid"] == os.getpid()
        assert "time" in entry

    def test_existing_claim_file_blocks_the_experiment(self, tmp_path,
                                                       runner):
        """The O_CREAT|O_EXCL claim is the lock: a pre-existing claim
        file (a racing workstation that won) makes claim() skip the
        experiment even though the todo file is still visible."""
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=8)
        campaign.publish(runner, generator.batch(2))
        blocker = tmp_path / "claims" / "exp_0000.txt.claim"
        blocker.write_text(json.dumps(
            {"worker": "rival", "pid": 1, "time": 10 ** 12}))
        target = campaign.claim("w0")
        assert target == "exp_0001"
        # exp_0000 stays with its (live) claimant.
        assert json.loads(blocker.read_text())["worker"] == "rival"
        assert campaign.claim("w0") is None

    def test_threaded_claim_storm_is_disjoint(self, tmp_path, runner):
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=9)
        campaign.publish(runner, generator.batch(12))
        claims: dict[str, list[str]] = {}

        def drain(worker_id):
            mine = claims.setdefault(worker_id, [])
            view = SharedDirCampaign(str(tmp_path), "pi", "tiny")
            while True:
                got = view.claim(worker_id)
                if got is None:
                    return
                mine.append(got)

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        winners = [name for mine in claims.values() for name in mine]
        assert sorted(winners) == [f"exp_{i:04d}" for i in range(12)]
        assert len(os.listdir(tmp_path / "claims")) == 12

    def test_stale_claim_is_recovered_once(self, tmp_path, runner):
        clock = {"now": 1000.0}
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny",
                                     clock=lambda: clock["now"])
        generator = SEUGenerator(runner.golden.profile, seed=10)
        campaign.publish(runner, generator.batch(1))
        assert campaign.claim("w0") is not None
        # Fresh claim, no result: nothing to steal yet.
        assert campaign.claim("w1") is None
        # The claimant "crashes"; after the timeout another workstation
        # recovers the experiment and re-claims it.
        clock["now"] += 601.0
        stolen = campaign.claim("w1")
        assert stolen is not None
        assert stolen == "exp_0000"
        entry = json.loads(
            (tmp_path / "claims" / "exp_0000.txt.claim").read_text())
        assert entry["worker"] == "w1"
        assert os.listdir(tmp_path / "claims") == ["exp_0000.txt.claim"]
        # The queue is drained while w1's claim is fresh.
        assert campaign.claim("w2") is None

    def test_finished_experiments_are_never_stolen(self, tmp_path,
                                                   runner):
        clock = {"now": 1000.0}
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny",
                                     clock=lambda: clock["now"])
        generator = SEUGenerator(runner.golden.profile, seed=11)
        campaign.publish(runner, generator.batch(1))
        assert campaign.claim("w0") is not None
        (tmp_path / "results" / "exp_0000.json").write_text(
            json.dumps({"outcome": "correct"}))
        clock["now"] += 10_000.0
        assert campaign.claim("w1") is None
        entry = json.loads(
            (tmp_path / "claims" / "exp_0000.txt.claim").read_text())
        assert entry["worker"] == "w0"

    def test_empty_claim_is_recovered_by_its_age(self, tmp_path, runner):
        """A claimant killed between creating its claim file and writing
        it leaves an empty claim: it counts as a claim with no worker
        at the file's mtime, so it is recovered once that is older than
        the claim limit instead of blocking the experiment forever."""
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=12)
        campaign.publish(runner, generator.batch(2))
        empty = tmp_path / "claims" / "exp_0000.txt.claim"
        empty.write_bytes(b"")
        aged = time.time() - 700
        os.utime(empty, (aged, aged))
        assert campaign.worker_loop("w0", runner) == 2
        assert sorted(os.listdir(tmp_path / "results")) == [
            "exp_0000.json", "exp_0001.json"]

    def test_recovery_puts_back_a_claim_made_after_its_read(
            self, tmp_path, runner, monkeypatch):
        """Two workstations recover the same abandoned claim.  B steals
        it and claims the experiment again after A read the claims, so
        A's rename takes B's live claim: A must find that it is not the
        claim it judged abandoned and put it back, or the experiment
        runs twice."""
        share = str(tmp_path)
        generator = SEUGenerator(runner.golden.profile, seed=13)
        SharedDirCampaign(share, "pi", "tiny").publish(
            runner, generator.batch(1))
        assert SharedDirCampaign(share, "pi", "tiny").claim("w0") == \
            "exp_0000"
        # w0 never heartbeats, and to A and B its claim is 1000 s old.
        a = SharedDirCampaign(share, "pi", "tiny",
                              clock=lambda: time.time() + 1000)
        b = SharedDirCampaign(share, "pi", "tiny",
                              clock=lambda: time.time() + 1000)
        read_claims = now.read_claims

        def read_then_b_recovers(*args, **kwargs):
            claims = read_claims(*args, **kwargs)
            monkeypatch.setattr(now, "read_claims", read_claims)
            assert b.claim("b") == "exp_0000"
            return claims

        monkeypatch.setattr(now, "read_claims", read_then_b_recovers)
        assert a.claim("a") is None
        entry = json.loads(
            (tmp_path / "claims" / "exp_0000.txt.claim").read_text())
        assert entry["worker"] == "b"
        assert os.listdir(tmp_path / "claims") == ["exp_0000.txt.claim"]

    def test_claims_cost_no_listing_of_the_whole_campaign(
            self, tmp_path, runner, monkeypatch):
        """Fault files stay in todo/, so a worker claims from the names
        it listed last: five claims list claims/ and todo/ once, and the
        empty-queue claim on a drained share opens no finished claim."""
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=14)
        campaign.publish(runner, generator.batch(5))
        listed = []
        listdir = os.listdir

        def counting_listdir(path):
            listed.append(os.path.basename(path))
            return listdir(path)

        monkeypatch.setattr(os, "listdir", counting_listdir)
        assert [campaign.claim("w0") for _ in range(5)] == [
            f"exp_{i:04d}" for i in range(5)]
        assert listed == ["claims", "todo"]
        for i in range(5):
            (tmp_path / "results" / f"exp_{i:04d}.json").write_text(
                json.dumps({"outcome": "correct"}))
        opened = []
        monkeypatch.setattr(telemetry_campaign, "read_claim",
                            opened.append)
        assert campaign.claim("w1") is None
        assert opened == []

    @pytest.mark.slow
    def test_multiprocess_workers_drain_queue(self, tmp_path, runner):
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=6)
        campaign.publish(runner, generator.batch(4))
        campaign.run_local(workers=2)
        results = campaign.collect()
        assert len(results) == 4
        assert all("outcome" in entry for entry in results)


def _block_in_run_experiment(share_dir: str, marker: str) -> None:
    """A worker process whose runner blocks inside run_experiment, after
    touching *marker*."""

    class BlockingRunner:
        def run_experiment(self, faults, seed=None):
            open(marker, "w").close()
            time.sleep(3600)

    SharedDirCampaign(share_dir, "pi", "tiny").worker_loop(
        "w0", BlockingRunner())


class TestCrashRecovery:
    """A worker killed with SIGKILL while it runs an experiment loses no
    result and has none counted twice."""

    @pytest.fixture(scope="class")
    def runner(self):
        return CampaignRunner(build("pi", "tiny"))

    def test_sigkilled_worker_is_recovered_exactly_once(self, tmp_path,
                                                        runner):
        share = tmp_path / "share"
        marker = tmp_path / "inside_run_experiment"
        faults = SEUGenerator(runner.golden.profile, seed=31).batch(3)
        SharedDirCampaign(str(share), "pi", "tiny").publish(
            runner, faults, seed=31)
        worker = multiprocessing.get_context("fork").Process(
            target=_block_in_run_experiment,
            args=(str(share), str(marker)))
        worker.start()
        try:
            deadline = time.monotonic() + 60
            while not marker.exists():
                assert worker.is_alive() and time.monotonic() < deadline
                time.sleep(0.01)
            claim = json.loads(
                (share / "claims" / "exp_0000.txt.claim").read_text())
            assert (claim["worker"], claim["pid"]) == ("w0", worker.pid)
        finally:
            worker.kill()  # SIGKILL: no handler, no clean-up
            worker.join(timeout=30)
        assert worker.exitcode == -signal.SIGKILL
        # A second worker comes along once w0's heartbeat has aged past
        # the 120 s timeout, and drains the share.
        late = SharedDirCampaign(str(share), "pi", "tiny",
                                 clock=lambda: time.time() + 300)
        assert late.worker_loop("w1", runner) == 3
        assert sorted(os.listdir(share / "results")) == [
            f"exp_{i:04d}.json" for i in range(3)]
        direct = [r.as_dict() for r in runner.run_campaign(faults, seed=31)]
        canonical = TestWorkersReuseGolden._canonical
        assert canonical(late.collect()) == canonical(direct)
        status = read_status(str(share))
        assert (status.completed, status.claimed, status.todo) == (3, 0, 0)
        assert [name for name in os.listdir(share / "claims")
                if ".steal." in name] == []


class TestAtomicPublication:
    """Result/workload files appear atomically: a reader (collect, a
    claiming worker, gemfi status) must never observe a half-written
    file, only a complete one or a skippable ``.tmp.*`` leftover."""

    @pytest.fixture(scope="class")
    def runner(self):
        return CampaignRunner(build("pi", "tiny"))

    def test_collect_skips_tmp_leftovers(self, tmp_path, runner):
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=21)
        campaign.publish(runner, generator.batch(2))
        campaign.worker_loop("w0", runner)
        # a writer that crashed mid-publish leaves its temp file
        (tmp_path / "results" / "exp_0009.json.tmp.1234.5678"
         ).write_text('{"outcome": "tru')
        results = campaign.collect()
        assert len(results) == 2
        assert all(entry["outcome"] for entry in results)

    def test_collect_survives_truncated_result(self, tmp_path,
                                               runner):
        """Regression: a torn write (pre-atomic-publication crash)
        must not take down every reader of the share."""
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=22)
        campaign.publish(runner, generator.batch(1))
        campaign.worker_loop("w0", runner)
        (tmp_path / "results" / "exp_0099.json").write_text(
            '{"outcome": "sd')  # torn mid-value
        results = campaign.collect()
        assert len(results) == 1

    def test_claim_skips_tmp_todo_files(self, tmp_path, runner):
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=23)
        campaign.publish(runner, generator.batch(1))
        (tmp_path / "todo" / "exp_0042.txt.tmp.1.2").write_text("Re")
        first = campaign.claim("w0")
        assert first == "exp_0000"
        assert campaign.claim("w0") is None  # the .tmp is not a job

    def test_published_files_have_no_tmp_residue(self, tmp_path,
                                                 runner):
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=24)
        campaign.publish(runner, generator.batch(3))
        campaign.worker_loop("w0", runner)
        leftovers = [
            os.path.join(root, name)
            for root, _, names in os.walk(tmp_path)
            for name in names if ".tmp." in name]
        assert leftovers == []

    def test_worker_loop_joins_heartbeat_threads(self, tmp_path,
                                                 runner):
        """Embedding worker_loop in a long-lived process (the service
        dispatcher) must not accumulate heartbeat threads."""
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        generator = SEUGenerator(runner.golden.profile, seed=25)
        campaign.publish(runner, generator.batch(3))
        before = threading.active_count()
        for worker in ("w0", "w1", "w2"):
            campaign.worker_loop(worker, runner)
        assert threading.active_count() == before


class TestWorkersReuseGolden:
    """Workers load the coordinator's golden.pkl (with its checkpoint
    ladder) instead of re-running the golden simulation."""

    @pytest.fixture(scope="class")
    def runner(self):
        return CampaignRunner(build("pi", "tiny"))

    @staticmethod
    def _canonical(entries):
        return [json.dumps({k: v for k, v in entry.items()
                            if k not in ("wall_seconds", "phases")},
                           sort_keys=True)
                for entry in entries]

    def test_workers_run_no_golden_and_match_a_direct_run(
            self, tmp_path, runner, monkeypatch):
        from repro.campaign.now import _worker_main
        faults = SEUGenerator(runner.golden.profile, seed=21).batch(6)
        direct = [r.as_dict()
                  for r in runner.run_campaign(faults, seed=21)]
        share_a, share_b = str(tmp_path / "a"), str(tmp_path / "b")
        for share in (share_a, share_b):
            SharedDirCampaign(share, "pi", "tiny").publish(
                runner, faults, seed=21)

        def no_golden(self):
            raise AssertionError("worker re-ran the golden simulation")
        monkeypatch.setattr(CampaignRunner, "_golden_run", no_golden)
        # In-process worker, then forked workers (which inherit the
        # patch under the fork start method).
        _worker_main(share_a, "w0", "pi", "tiny")
        SharedDirCampaign(share_b, "pi", "tiny").run_local(workers=2)
        forked = SharedDirCampaign(share_b, "pi", "tiny").collect()
        in_process = SharedDirCampaign(share_a, "pi", "tiny").collect()
        assert self._canonical(in_process) == self._canonical(direct)
        assert self._canonical(forked) == self._canonical(direct)

    def test_in_process_worker_matches_a_direct_run(self, tmp_path,
                                                     runner):
        """``run_local`` with a runner and one worker drains the share
        in this process; its results equal a direct run's."""
        faults = SEUGenerator(runner.golden.profile, seed=21).batch(6)
        direct = [r.as_dict()
                  for r in runner.run_campaign(faults, seed=21)]
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        campaign.publish(runner, faults, seed=21)
        campaign.run_local(workers=1, runner=runner)
        assert self._canonical(campaign.collect()) == \
            self._canonical(direct)
        assert sorted(os.listdir(tmp_path / "heartbeats")) == \
            ["ws0.json"]

    @pytest.mark.parametrize("content", [None, b"not a pickle",
                                         b"\x80\x05N."])
    def test_missing_or_corrupt_golden_fails_in_one_line(
            self, tmp_path, runner, content):
        from repro.campaign.now import _worker_main
        campaign = SharedDirCampaign(str(tmp_path), "pi", "tiny")
        campaign.publish(runner, SEUGenerator(runner.golden.profile,
                                              seed=22).batch(1))
        path = tmp_path / "golden.pkl"
        if content is None:
            path.unlink()
        else:
            path.write_bytes(content)
        with pytest.raises(SystemExit) as caught:
            _worker_main(str(tmp_path), "w0", "pi", "tiny")
        message = str(caught.value.code)
        assert "golden.pkl" in message
        assert "\n" not in message
        assert os.listdir(tmp_path / "results") == []
