"""Trace/metrics export: Chrome ``trace_event`` schema validity,
tolerant spill merging, atomic writes, flat reports."""

import json
import os

from repro.obs.export import (
    chrome_trace_document,
    collect_events,
    metrics_report,
    read_spill_dir,
    validate_trace_events,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def make_tracer(**kwargs):
    t = Tracer(**kwargs)
    t.enable()
    return t


class TestChromeTrace:
    def test_document_envelope(self):
        doc = chrome_trace_document([{"name": "x"}], metadata={"run": "r1"})
        assert doc["displayTimeUnit"] == "ms"
        assert doc["traceEvents"] == [{"name": "x"}]
        assert doc["otherData"] == {"run": "r1"}

    def test_written_trace_validates(self, tmp_path):
        t = make_tracer()
        with t.span("sim", cat="sim"):
            with t.span("kernel", cat="kernel"):
                pass
        t.instant("hit", cat="run")
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), tracer=t)
        assert count == 3
        document = json.loads(path.read_text())
        assert validate_trace_events(document) == []
        cats = {e["cat"] for e in document["traceEvents"]}
        assert cats == {"sim", "kernel", "run"}

    def test_events_sorted_by_timestamp(self, tmp_path):
        t = make_tracer()
        t.complete("late", "misc", ts_us=200.0, dur_us=1.0)
        t.complete("early", "misc", ts_us=100.0, dur_us=1.0)
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tracer=t)
        names = [
            e["name"] for e in json.loads(path.read_text())["traceEvents"]
        ]
        assert names == ["early", "late"]

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tracer=make_tracer())
        assert not (tmp_path / "trace.json.tmp").exists()

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "trace.json"
        write_chrome_trace(str(path), tracer=make_tracer())
        assert path.exists()


class TestSpillMerging:
    def test_merges_spill_and_buffer(self, tmp_path):
        t = make_tracer()
        t.enable(spill_dir=str(tmp_path))
        t.instant("spilled")
        t.flush_spill()
        t.instant("buffered")
        events = collect_events(tracer=t)
        assert sorted(e["name"] for e in events) == ["buffered", "spilled"]

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        # The crash contract: a worker dying mid-write truncates the last
        # line; the reader keeps everything before it.
        path = tmp_path / "trace-123.jsonl"
        good = json.dumps({"name": "ok", "ph": "i", "ts": 1.0})
        path.write_text(good + "\n" + '{"name": "trunc')
        events = read_spill_dir(str(tmp_path))
        assert [e["name"] for e in events] == ["ok"]

    def test_missing_or_foreign_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a spill file")
        assert read_spill_dir(str(tmp_path)) == []
        assert read_spill_dir(str(tmp_path / "absent")) == []
        assert read_spill_dir(None) == []


class TestValidator:
    def test_rejects_bad_envelope(self):
        assert validate_trace_events([]) != []
        assert validate_trace_events({"traceEvents": "nope"}) != []

    def test_flags_bad_events(self):
        doc = {"traceEvents": [
            {"ph": "Z", "name": 3, "ts": "then"},
            "not-an-object",
        ]}
        problems = validate_trace_events(doc)
        assert any("unknown phase" in p for p in problems)
        assert any("missing name" in p for p in problems)
        assert any("not an object" in p for p in problems)

    def test_complete_event_needs_dur(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "a", "ts": 1.0, "pid": 1, "tid": 1},
        ]}
        assert any("dur" in p for p in validate_trace_events(doc))


class TestMetricsExport:
    def test_write_and_reload(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("runs", 2)
        reg.set_gauge("enabled", 1.0)
        reg.observe("us", 5.0)
        path = tmp_path / "metrics.json"
        snap = write_metrics(str(path), reg)
        assert json.loads(path.read_text()) == snap
        assert snap["counters"]["runs"] == 2
        assert snap["histograms"]["us"]["p99"] == 5.0

    def test_extra_registries_are_prefixed(self, tmp_path):
        main, runner = MetricsRegistry(), MetricsRegistry()
        main.inc("cache.hits", 1)
        runner.inc("exec.ok", 3)
        snap = write_metrics(
            str(tmp_path / "m.json"), main, extra={"runner": runner}
        )
        assert snap["counters"] == {"cache.hits": 1, "runner.exec.ok": 3}

    def test_report_text(self):
        reg = MetricsRegistry()
        reg.inc("cache.hits", 7)
        reg.set_gauge("obs.enabled", 1.0)
        reg.observe("span.run.us", 100.0)
        text = metrics_report(reg.snapshot())
        assert "counter" in text and "cache.hits" in text
        assert "gauge" in text and "obs.enabled" in text
        assert "histogram" in text and "p95=" in text
