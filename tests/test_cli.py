"""Command-line interface tests."""

import json
import os

import pytest

from repro.campaign import SharedDirCampaign
from repro.cli import build_parser, main

DATA = os.path.join(os.path.dirname(__file__), "data")

MINIC = """
def main():
    fi_read_init_all()
    fi_activate_inst(0)
    s = 0
    for i in range(30):
        s += i
    fi_activate_inst(0)
    print_int(s)
    exit(0)
"""

ASM = """
main:
    ldi a0, 7
    ldi v0, 5
    callsys
    ldi v0, 0
    ldi a0, 0
    callsys
"""


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(MINIC)
    return str(path)


class TestRunCommand:
    def test_plain_run(self, minic_file, capsys):
        assert main(["run", minic_file]) == 0
        out = capsys.readouterr().out
        assert "status      : completed" in out
        assert "435" in out

    def test_assembly_input(self, tmp_path, capsys):
        path = tmp_path / "prog.s"
        path.write_text(ASM)
        assert main(["run", str(path)]) == 0
        assert "7" in capsys.readouterr().out

    def test_inline_fault(self, minic_file, capsys):
        code = main(["run", minic_file, "--fault",
                     "ExecutionStageInjectedFault Inst:10 All1 "
                     "Threadid:0 system.cpu0 occ:1"])
        out = capsys.readouterr().out
        assert "--- injections ---" in out
        assert code in (0, 1)

    def test_fault_file_and_stats(self, minic_file, tmp_path, capsys):
        faults = tmp_path / "faults.txt"
        faults.write_text(
            "PCInjectedFault Inst:10 Flip:30 Threadid:0 "
            "system.cpu0 occ:1\n")
        stats = tmp_path / "stats.txt"
        code = main(["run", minic_file, "--fault-file", str(faults),
                     "--stats", str(stats)])
        assert code == 1  # PC fault crashes
        assert "crashed" in capsys.readouterr().out
        assert "sim.instructions" in stats.read_text()

    def test_cpu_model_selection(self, minic_file, capsys):
        assert main(["run", minic_file, "--cpu", "o3",
                     "--switch-to-atomic"]) == 0
        assert "435" in capsys.readouterr().out

    def test_limit_exits_0(self, minic_file, capsys):
        """Stopping at --max-instructions is no failure: only a crash or
        a halt exits 1."""
        assert main(["run", minic_file, "--max-instructions", "64"]) == 0
        assert "status      : limit" in capsys.readouterr().out

    def test_instruments_combine(self, minic_file, tmp_path, capsys):
        """Trace, pipeline events, profile and stats in one O3 run that
        drops to atomic once its fault has fired."""
        trace = tmp_path / "run.jsonl"
        stats = tmp_path / "stats.txt"
        assert main(["run", minic_file, "--cpu", "o3", "--switch-to-atomic",
                     "--fault", "RegisterInjectedFault Inst:5 Flip:3 "
                     "Threadid:0 system.cpu0 occ:1 int 1",
                     "--trace", str(trace), "--pipe", "--profile",
                     "--stats", str(stats)]) == 0
        captured = capsys.readouterr()
        assert "--- injections ---" in captured.out
        assert "--- host-time attribution ---" in captured.out
        assert "# status=completed process=exited" in captured.err
        kinds = [json.loads(line)["kind"]
                 for line in trace.read_text().splitlines()]
        assert kinds[0] == "fault_armed"
        assert "pipe_inst" in kinds and "model_switch" in kinds
        assert "host.kips" in stats.read_text()


class TestOtherCommands:
    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("dct", "jacobi", "pi", "knapsack", "deblocking",
                     "canneal"):
            assert name in out

    def test_sample_size(self, capsys):
        assert main(["sample-size", "--confidence", "0.99",
                     "--margin", "0.0258"]) == 0
        assert "n=2492" in capsys.readouterr().out

    def test_sample_size_finite_population(self, capsys):
        assert main(["sample-size", "--population", "1000"]) == 0
        assert "n=" in capsys.readouterr().out

    def test_campaign_smoke(self, capsys):
        assert main(["campaign", "--workload", "pi", "--scale", "tiny",
                     "-n", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "4 experiments" in out
        assert "ALL" in out

    def test_campaign_pinned_location(self, capsys):
        assert main(["campaign", "--workload", "pi", "--scale", "tiny",
                     "-n", "3", "--location", "pc"]) == 0
        assert "pc" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["campaign"], ["analyze"], ["submit", "--url", "http://127.0.0.1:9"]])
    def test_bad_location_is_an_argparse_error(self, command, capsys):
        with pytest.raises(SystemExit) as caught:
            main(command + ["--location", "bogus"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "Traceback" not in err

    def test_campaign_pruned(self, capsys):
        assert main(["campaign", "--workload", "dct", "--scale", "tiny",
                     "-n", "10", "--seed", "7", "--prune"]) == 0
        out = capsys.readouterr().out
        assert "pruned: 10 sites ->" in out
        assert "ALL" in out

    def test_analyze_report(self, capsys):
        assert main(["analyze", "--workload", "dct", "--scale", "tiny",
                     "-n", "60", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "provably masked" in out
        assert "simulated sites" in out
        assert "experiments saved" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_campaign_share_one_worker_runs_in_process(
            self, tmp_path, monkeypatch, capsys):
        """``--workers 1`` runs worker ws0 in the CLI process, with the
        runner that did the golden run: nothing is forked."""
        import multiprocessing
        from repro.telemetry import read_heartbeats

        def no_fork(self):
            raise AssertionError("forked a worker")
        monkeypatch.setattr(multiprocessing.Process, "start", no_fork)
        share = str(tmp_path / "share")
        assert main(["campaign", "-w", "pi", "--scale", "tiny", "-n",
                     "2", "--seed", "7", "--share-dir", share,
                     "--workers", "1"]) == 0
        beat = read_heartbeats(share)["ws0"]
        assert beat["pid"] == os.getpid()
        assert beat["completed"] == 2
        assert "2 results" in capsys.readouterr().out

    def test_campaign_share_with_dead_workers_fails(
            self, tmp_path, monkeypatch, capsys):
        """Workers that cannot load golden.pkl exit before running
        anything; the campaign must not report that as success."""
        publish = SharedDirCampaign.publish

        def publish_then_corrupt(self, *args, **kwargs):
            publish(self, *args, **kwargs)
            with open(os.path.join(self.share_dir, "golden.pkl"),
                      "wb") as handle:
                handle.write(b"not a pickle")

        monkeypatch.setattr(SharedDirCampaign, "publish",
                            publish_then_corrupt)
        assert main(["campaign", "-w", "pi", "--scale", "tiny", "-n",
                     "2", "--share-dir", str(tmp_path / "share"),
                     "--workers", "2"]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert errors == [
            "error: 0 results for 2 experiments (a worker failed)"]


class TestArgumentErrors:
    """Bad arguments are argparse errors: exit 2, one ``error:`` line,
    no traceback, and nothing run."""

    @pytest.mark.parametrize("argv", [
        ["sample-size", "--confidence", "2"],
        ["sample-size", "--confidence", "nan"],
        ["sample-size", "--margin", "0"],
        ["sample-size", "--population", "0"],
        ["coverage", "{tmp}", "--confidence", "5"],
        ["coverage", "{tmp}", "--margin", "-1"],
        ["coverage", "{tmp}", "--dimension", "nope"],
        ["run", "{tmp}/missing.mc"],
        ["run", "{prog}", "--fault-file", "{tmp}/missing.txt"],
        ["run", "{tmp}/missing.mc", "--profile"],
        ["stats-diff", "{tmp}/a.txt", "{tmp}/b.txt"],
        ["pipeview", "{tmp}/missing.jsonl"],
        ["campaign", "-n", "0"],
        ["campaign", "-n", "-3"],
        ["campaign", "-n", "three"],
        ["campaign", "--share-dir", "{tmp}/share", "--workers", "0"],
        ["campaign", "--share-dir", "{tmp}/share", "--prune"],
        ["campaign", "--share-dir", "{tmp}/share", "--detailed-model",
         "o3"],
        ["campaign", "--trace"],
        ["analyze", "-n", "0"],
        ["dashboard", "{tmp}", "--interval", "-1"],
        ["run", "{prog}", "--trace", "-", "--ring", "-5"],
        ["timeline", "{tmp}", "--slots", "0"],
        ["timeline", "{tmp}", "--slots", "-2"],
        ["compare", "{tmp}", "{tmp}", "--confidence", "2"],
        ["compare", "{tmp}", "{tmp}", "--margin", "-1"],
        ["run", "{prog}", "--fault", "garbage"],
        ["run", "{prog}", "--fault-file", "{tmp}/bad_inst.txt"],
        ["run", "{tmp}/syntax.mc"],
        ["run", "{tmp}/mnemonic.s"],
        ["run", "pi", "--max-instructions", "-5"],
        ["run", "{prog}", "--max-instructions", "0"],
        ["run", "{prog}", "--ring", "3"],
        ["run", "{prog}", "--pipe"],
        ["run", "{prog}", "--trace", "-", "--json"],
        ["run", "{prog}", "--sample", "0"],
        ["trace", "{tmp}/missing.jsonl"],
        ["pipeview", "{tmp}/garbage.jsonl"],
        ["trace", "{tmp}/garbage.jsonl", "--idle-timeout", "0.2"],
        ["run", "{prog}", "--trace", "{tmp}"],
        ["run", "{prog}", "--stats", "{tmp}"],
        ["run", "{prog}", "--folded", "{tmp}"],
        ["run", "{tmp}/binary.mc"],
        ["run", "{prog}", "--fault-file", "{tmp}/binary.txt"],
        ["compare", "{tmp}/no_schema.json", "{tmp}/no_schema.json"],
        ["compare", "{tmp}/flat.json", "{tmp}/flat.json"],
        ["compare", "{data}/v1/summary.json", "{data}/v1/summary.json"],
        ["compare", "{data}/renders/compare.json",
         "{data}/renders/compare.json"],
        ["status", "/nonexistent/share"],
        ["dashboard", "/nonexistent/share", "--once"],
        ["report", "/nonexistent/share"],
        ["coverage", "/nonexistent/share"],
        ["timeline", "/nonexistent/share"],
        ["compare", "{share}", "{empty}"],
        ["compare", "{share}", "{empty}", "--gate"],
        ["store", "verify", "--data-dir", "{tmp}"],
    ])
    def test_bad_argument_exits_2(self, argv, tmp_path, minic_file,
                                  capsys):
        (tmp_path / "results").mkdir()  # so {tmp} is an empty share
        (tmp_path / "empty").mkdir()    # a directory that is no share
        (tmp_path / "bad_inst.txt").write_text(
            "RegisterInjectedFault Inst:abc Flip:3 Threadid:0 "
            "system.cpu0 occ:1 int 1\n")
        (tmp_path / "syntax.mc").write_text("def main(:\n    exit(0)\n")
        (tmp_path / "mnemonic.s").write_text("main:\n    frob a0\n")
        (tmp_path / "garbage.jsonl").write_text("garbage\n")
        (tmp_path / "binary.mc").write_bytes(b"\x89PNG\r\n")
        (tmp_path / "binary.txt").write_bytes(b"\x89PNG\r\n")
        (tmp_path / "no_schema.json").write_text(json.dumps(
            {"outcomes": {"sdc": {"count": 1}},
             "coverage": {"heatmaps": {"bit": {"cells": [
                 {"label": "bit 0", "outcomes": {"sdc": {}}}]}}}}))
        (tmp_path / "flat.json").write_text(
            json.dumps({"outcomes": {"sdc": 3}}))
        argv = [arg.format(tmp=tmp_path, prog=minic_file, data=DATA,
                           share=tmp_path, empty=tmp_path / "empty")
                for arg in argv]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        err = captured.err
        assert "Traceback" not in err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert not os.path.exists(tmp_path / "share")

    def test_stdin_and_workload_names_still_parse(self):
        parser = build_parser()
        assert parser.parse_args(["pipeview", "-"]).trace == "-"
        assert parser.parse_args(["run", "pi"]).program == "pi"

    def test_range_edges_still_parse(self, tmp_path):
        """``--ring 0`` still means "no ring buffer" and a compare
        margin of 0 stays valid."""
        parser = build_parser()
        assert parser.parse_args(["run", "pi", "--ring", "0"]).ring == 0
        assert parser.parse_args(
            ["compare", "a", "b", "--margin", "0"]).margin == 0.0
        (tmp_path / "results").mkdir()
        assert parser.parse_args(
            ["dashboard", str(tmp_path), "--interval", "0"]
        ).interval == 0.0


class TestCoverageCommand:
    """``gemfi coverage``: fault-space coverage over a campaign share."""

    @pytest.fixture(scope="class")
    def share(self, tmp_path_factory):
        share = str(tmp_path_factory.mktemp("coverage-cli") / "share")
        assert main(["campaign", "--workload", "dct", "--scale",
                     "tiny", "-n", "6", "--seed", "7",
                     "--share-dir", share]) == 0
        return share

    def test_table_output(self, share, capsys):
        assert main(["coverage", share]) == 0
        out = capsys.readouterr().out
        assert "fault sites visited" in out
        assert "margin" in out
        assert "# Outcomes by fault location" in out

    def test_json_is_byte_deterministic(self, share, capsys):
        assert main(["coverage", share, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["coverage", share, "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["accounted"]["experiments"] == 6
        assert payload["space"]["covered_sites"] <= \
            payload["space"]["total"]

    def test_markdown_output(self, share, capsys):
        assert main(["coverage", share, "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Fault-space coverage: share")
        assert "Wilson intervals" in out

    def test_single_dimension_and_unknown_rejected(self, share,
                                                   capsys):
        assert main(["coverage", share, "--dimension", "bit"]) == 0
        assert "# Outcomes by bit position" in capsys.readouterr().out
        with pytest.raises(SystemExit) as caught:
            main(["coverage", share, "--dimension", "nope"])
        assert caught.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_output_file(self, share, tmp_path, capsys):
        target = str(tmp_path / "coverage.md")
        assert main(["coverage", share, "--format", "md",
                     "--output", target]) == 0
        assert "-> " in capsys.readouterr().err
        with open(target, "r", encoding="utf-8") as handle:
            assert "Fault-space coverage" in handle.read()


class TestCompareCommand:
    """``gemfi compare``: differential campaign analytics with an
    outcome-regression gate."""

    @pytest.fixture(scope="class")
    def shares(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("compare-cli")
        base = str(root / "base")
        head = str(root / "head")
        for share in (base, head):
            assert main(["campaign", "--workload", "dct", "--scale",
                         "tiny", "-n", "8", "--seed", "7",
                         "--share-dir", share]) == 0
        return base, head

    def test_self_compare_unchanged_gate_passes(self, shares, capsys):
        base, head = shares
        assert main(["compare", base, head, "--gate"]) == 0
        out = capsys.readouterr().out
        assert "verdict: unchanged" in out
        assert "Outcome deltas" in out

    def test_json_byte_deterministic(self, shares, capsys):
        base, head = shares
        assert main(["compare", base, head, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["compare", base, head, "--json"]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["verdict"] == "unchanged"
        assert all(row["verdict"] == "unchanged"
                   for row in payload["outcomes"].values())

    def test_gate_trips_on_mutated_outcomes(self, shares, tmp_path,
                                            capsys):
        import os
        import shutil
        base, _ = shares
        mutated = str(tmp_path / "mutated")
        shutil.copytree(base, mutated)
        results_dir = os.path.join(mutated, "results")
        for name in os.listdir(results_dir):
            path = os.path.join(results_dir, name)
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            entry["outcome"] = "sdc"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
        assert main(["compare", base, mutated, "--gate"]) == 1
        captured = capsys.readouterr()
        assert "verdict: regressed" in captured.out
        assert "gate" in captured.err

    def test_markdown_output_file(self, shares, tmp_path, capsys):
        base, head = shares
        target = str(tmp_path / "diff.md")
        assert main(["compare", base, head, "--md",
                     "--output", target]) == 0
        assert "verdict" in capsys.readouterr().err
        with open(target, "r", encoding="utf-8") as handle:
            assert handle.read().startswith("# Campaign diff")

    def test_summary_json_operand(self, shares, tmp_path, capsys):
        from repro.analysis.diff import CampaignSummary
        base, head = shares
        dump = str(tmp_path / "base-summary.json")
        payload = CampaignSummary.from_share(base).payload
        with open(dump, "w", encoding="utf-8") as handle:
            json.dump({"summary": payload}, handle)
        assert main(["compare", dump, head]) == 0
        assert "verdict:" in capsys.readouterr().out

    def test_unresolvable_operand(self, shares, capsys):
        _, head = shares
        with pytest.raises(SystemExit) as caught:
            main(["compare", "no-such-ref", head])
        assert caught.value.code == 2
        assert "neither a share directory" in capsys.readouterr().err

    def test_report_baseline_section(self, shares, capsys):
        base, head = shares
        assert main(["report", head, "--baseline", base]) == 0
        out = capsys.readouterr().out
        assert "## Vs baseline" in out
        assert "Outcome deltas" in out

    def test_report_baseline_unresolvable(self, shares, capsys):
        _, head = shares
        assert main(["report", head, "--baseline", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_baseline_that_is_no_share(self, shares, tmp_path,
                                              capsys):
        """A directory holding none of a share's subdirectories is an
        unresolvable baseline, not a campaign of 0 experiments."""
        _, head = shares
        assert main(["report", head, "--baseline", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestUnreachableService:
    """Every service client command answers a service that is not
    there with one ``error:`` line and exit 2."""

    @pytest.fixture
    def url(self):
        import socket
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        return f"http://127.0.0.1:{port}"  # closed: nothing listens

    @pytest.mark.parametrize("argv", [
        ["submit", "-w", "pi", "-n", "1"],
        ["fetch", "0" * 64],
        ["jobs"],
        ["usage"],
    ])
    def test_exits_2_with_one_error_line(self, argv, url, capsys):
        assert main(argv + ["--url", url]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
