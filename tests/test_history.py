"""The console's renderers: SVG timeline lanes and the merged alerts
feed."""

from repro.telemetry import (
    Alert,
    alerts_feed,
    append_alerts,
    render_timeline_svg,
)
from repro.telemetry.timeline import OUTCOME_COLORS


# -- SVG lane rendering -------------------------------------------------------


def _trace():
    return {
        "traceEvents": [
            {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
             "args": {"name": "w0"}},
            {"name": "exp_0000", "cat": "experiment", "ph": "X",
             "ts": 0, "dur": 1_000_000, "pid": 1, "tid": 0,
             "args": {"outcome": "sdc"}},
            {"name": "boot", "cat": "phase", "ph": "X", "ts": 0,
             "dur": 400_000, "pid": 1, "tid": 0},
            {"name": "injection", "cat": "injection", "ph": "i",
             "s": "t", "ts": 600_000, "pid": 1, "tid": 0,
             "args": {"tick": 42}},
        ],
        "displayTimeUnit": "ms",
        "otherData": {"timebase": "host"},
    }


class TestRenderTimelineSvg:
    def test_renders_lanes_bars_and_markers(self):
        svg = render_timeline_svg(_trace())
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert ">w0</text>" in svg
        assert OUTCOME_COLORS["sdc"] in svg      # outcome fill
        assert "exp_0000" in svg                 # hover tooltip
        assert "injection @ 42" in svg           # instant marker
        assert "1.00 s" in svg                   # host-time axis

    def test_deterministic_output(self):
        assert render_timeline_svg(_trace()) \
            == render_timeline_svg(_trace())

    def test_escapes_markup_in_names(self):
        trace = _trace()
        trace["traceEvents"][1]["name"] = "<script>alert(1)</script>"
        svg = render_timeline_svg(trace)
        assert "<script>" not in svg
        assert "&lt;script&gt;" in svg

    def test_empty_trace_is_still_an_svg(self):
        svg = render_timeline_svg({"traceEvents": [],
                                   "otherData": {"timebase": "host"}})
        assert svg.startswith("<svg ")


# -- merged alerts feed -------------------------------------------------------


class TestAlertsFeed:
    def _alert(self, rule, when, severity="warning", worker=None):
        return Alert(rule=rule, severity=severity, worker=worker,
                     message=f"{rule} fired", time=when)

    def test_merges_journals_newest_first(self, tmp_path):
        share_a = tmp_path / "a"
        share_b = tmp_path / "b"
        share_a.mkdir()
        share_b.mkdir()
        append_alerts(str(share_a),
                      [self._alert("dead_worker", 10.0,
                                   severity="critical", worker="w0")])
        append_alerts(str(share_b),
                      [self._alert("outcome_drift", 20.0)])
        feed = alerts_feed({"job-a": str(share_a),
                            "job-b": str(share_b)})
        assert [(e["share"], e["rule"]) for e in feed] \
            == [("job-b", "outcome_drift"), ("job-a", "dead_worker")]
        assert all("live" not in e for e in feed)

    def test_missing_share_contributes_nothing(self, tmp_path):
        feed = alerts_feed({"gone": str(tmp_path / "nope")})
        assert feed == []

    def test_limit_caps_the_feed(self, tmp_path):
        share = tmp_path / "s"
        share.mkdir()
        append_alerts(str(share), [
            self._alert("dead_worker", 1.0, worker=f"w{n}")
            for n in range(5)])
        assert len(alerts_feed({"j": str(share)}, limit=2)) == 2

    def test_live_evaluation_is_read_only(self, tmp_path):
        share = tmp_path / "s"
        share.mkdir()
        feed = alerts_feed({"j": str(share)}, live=True)
        # An empty share fires nothing and must not grow a journal.
        assert feed == []
        assert not (share / "alerts.jsonl").exists()
