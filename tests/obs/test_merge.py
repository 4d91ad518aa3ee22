"""Mergeable observability: record-level export, snapshot merging."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import capture
from repro.obs.export import (
    chrome_trace,
    iter_records,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.metrics import MetricsRegistry, merge_snapshots, render_snapshot


def make_records():
    with capture() as (tracer, _):
        tracer.new_run()
        span = tracer.begin("cat.a", "outer", domain="cpu0")
        tracer.now = 1.5
        tracer.end(span)
        tracer.event("cat.b", "tick", n=3)
    return list(iter_records(tracer))


class TestRecordExport:
    def test_round_trips_through_jsonl(self, tmp_path):
        records = make_records()
        path = write_spans_jsonl(records, tmp_path / "r.jsonl")
        reloaded = [json.loads(l) for l in path.read_text().splitlines()]
        assert reloaded == records

    def test_chrome_trace_from_records_matches_live_export(self):
        records = make_records()
        trace = chrome_trace(records)
        events = trace["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        instants = [e for e in events if e.get("ph") == "i"]
        assert len(spans) == 1 and len(instants) == 1
        assert spans[0]["dur"] == pytest.approx(1.5e6)
        assert spans[0]["args"] == {"domain": "cpu0"}

    def test_run_names_label_processes(self, tmp_path):
        records = make_records()
        path = write_chrome_trace(
            records, tmp_path / "t.json", run_names={1: "fig04@quick/r1"}
        )
        events = json.loads(path.read_text())["traceEvents"]
        names = [e for e in events if e.get("name") == "process_name"]
        assert names and names[0]["args"]["name"] == "fig04@quick/r1"

    def test_shifted_runs_stay_disjoint(self):
        shifted = [dict(r, run=r["run"] + 10) for r in make_records()]
        trace = chrome_trace(make_records() + shifted)
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert {1, 11} <= pids

    def test_every_run_names_its_own_threads(self):
        """Two runs on one track: each pid names its own thread."""
        with capture() as (tracer, _):
            for _ in range(2):
                tracer.new_run()
                tracer.end(tracer.begin("cat.a", "stage", domain="host"))
                tracer.event("cat.b", "tick", domain="host")
        events = chrome_trace(iter_records(tracer))["traceEvents"]
        named = {(e["pid"], e["tid"]): e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        used = {(e["pid"], e["tid"]) for e in events if e["ph"] in "Xi"}
        assert {pid for pid, _ in used} == {1, 2}
        assert used <= set(named)
        assert set(named.values()) == {"host"}
        assert len(named) == 2  # one thread per (pid, track)


class TestSnapshotMerge:
    def snap(self, counter=0.0, gauge=0.0, hist=()):
        registry = MetricsRegistry()
        if counter:
            registry.counter("c").inc(counter, kind="x")
        if gauge:
            registry.gauge("g").set(gauge)
        for value in hist:
            registry.histogram("h").observe(value)
        return registry.snapshot()

    def test_counters_add(self):
        merged = merge_snapshots([self.snap(counter=2), self.snap(counter=3)])
        assert merged["c"]["series"]['{kind="x"}'] == 5.0

    def test_gauges_keep_peak(self):
        merged = merge_snapshots([self.snap(gauge=2.0), self.snap(gauge=7.0),
                                  self.snap(gauge=1.0)])
        assert merged["g"]["series"]["{}"] == 7.0

    def test_histograms_combine(self):
        merged = merge_snapshots([
            self.snap(hist=(1e-4, 2e-3)), self.snap(hist=(5e-2,)),
        ])
        series = merged["h"]["series"]["{}"]
        assert series["count"] == 3
        assert series["sum"] == pytest.approx(1e-4 + 2e-3 + 5e-2)
        assert series["min"] == pytest.approx(1e-4)
        assert series["max"] == pytest.approx(5e-2)
        assert sum(series["buckets"].values()) == 3

    def test_merge_is_identity_for_one(self):
        snapshot = self.snap(counter=1, gauge=2, hist=(1e-3,))
        assert merge_snapshots([snapshot]) == snapshot

    def test_kind_clash_rejected(self):
        a = {"m": {"kind": "counter", "series": {"{}": 1.0}}}
        b = {"m": {"kind": "gauge", "series": {"{}": 1.0}}}
        with pytest.raises(ConfigurationError):
            merge_snapshots([a, b])

    def test_render_snapshot(self):
        merged = merge_snapshots([self.snap(counter=2, hist=(1e-3,))])
        text = render_snapshot(merged)
        assert "# TYPE c counter" in text
        assert 'c{kind="x"} 2' in text
        assert "h_count 1" in text

    def test_empty(self):
        assert merge_snapshots([]) == {}
        assert render_snapshot({}) == ""
