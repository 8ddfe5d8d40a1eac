"""`gemfi serve` as a real process: how it stops, and how a job
survives the death of its dispatcher."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.service import ServiceClient

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def spawn_serve(data_dir, *args, ignore_sigint: bool = False):
    """Start ``gemfi serve DATA --port 0`` in its own process group and
    return it with its URL, once its banner is out."""
    def preexec() -> None:
        if ignore_sigint:
            # What `nohup ... &` from a non-interactive shell leaves.
            signal.signal(signal.SIGINT, signal.SIG_IGN)

    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(data_dir),
         "--port", "0", *args],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True, preexec_fn=preexec)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        ready, _, _ = select.select([process.stderr], [], [], 1.0)
        if not ready:
            continue
        line = process.stderr.readline()
        if not line:
            break
        if line.startswith("# gemfi service on "):
            url = line.split()[4]
            return process, url
    process.kill()
    process.wait()
    raise AssertionError("gemfi serve printed no banner")


def stop_group(process) -> None:
    """SIGKILL the server and every worker it forked."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=30)
    process.stderr.close()


class TestServeStops:
    """SIGINT and SIGTERM both take the clean stop, also when the
    server was started with SIGINT ignored."""

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_stops_cleanly(self, tmp_path, signum):
        process, _ = spawn_serve(tmp_path / "data", ignore_sigint=True)
        try:
            process.send_signal(signum)
            assert process.wait(timeout=15) == 0
        finally:
            stop_group(process)


class TestDispatcherCrashRecovery:
    """A dispatcher SIGKILLed mid-job, with its workers, loses no
    result and counts none twice: the restarted service requeues the
    job once its lease expires and finishes it to the same result set
    an undisturbed run stores."""

    SPEC = {"workload": "canneal", "scale": "tiny", "experiments": 32,
            "seed": 5, "workers": 2}

    def _finish(self, client, job_id: str) -> dict:
        job = client.wait(job_id, timeout=240, poll=0.1)
        assert job["state"] == "done", job
        return job

    def test_killed_dispatcher_job_is_requeued_and_finished(self,
                                                            tmp_path):
        data = tmp_path / "data"
        process, url = spawn_serve(data, "--lease-seconds", "2")
        try:
            job = ServiceClient(url).submit(dict(self.SPEC))
            results = data / "shares" / job["id"] / "results"
            deadline = time.monotonic() + 120
            while not (results.is_dir() and any(
                    name.endswith(".json")
                    for name in os.listdir(results))):
                assert time.monotonic() < deadline
                time.sleep(0.005)
        finally:
            stop_group(process)
        finished = {name[:-len(".json")] for name in os.listdir(results)}
        claims = os.listdir(results.parent / "claims")
        in_flight = {name[:-len(".txt.claim")] for name in claims
                     if name.endswith(".txt.claim")} - finished
        assert 0 < len(finished) < self.SPEC["experiments"]
        assert in_flight  # claims the dead workers still hold

        process, url = spawn_serve(data, "--lease-seconds", "2")
        try:
            client = ServiceClient(url)
            recovered = self._finish(client, job["id"])
            records = client.results(job["id"])
        finally:
            stop_group(process)
        assert recovered["attempts"] == 2
        assert len(records) == self.SPEC["experiments"]

        process, url = spawn_serve(tmp_path / "fresh")
        try:
            client = ServiceClient(url)
            undisturbed = self._finish(
                client, client.submit(dict(self.SPEC))["id"])
        finally:
            stop_group(process)
        assert undisturbed["attempts"] == 1
        assert recovered["result_digest"] == undisturbed["result_digest"]
