"""Exporters: JSONL span dump, Chrome trace_event, text summary."""

import json

import pytest

from repro.obs import Tracer
from repro.obs.export import (
    chrome_trace,
    iter_records,
    make_record,
    span_record,
    summary,
    write_chrome_trace,
    write_spans_jsonl,
)


def make_tracer():
    """A tiny two-span, one-event trace."""
    tr = Tracer()
    tr.new_run()
    tr.now = 0.0
    outer = tr.begin("datapath.transfer", "a->b", nbytes=1024)
    stage = tr.begin("datapath.stage", "vhost_tx", parent=outer,
                     domain="kthread:host:vhost:tap0", cycles=1200)
    tr.now = 1e-5
    tr.end(stage)
    tr.event("forward.send", "a->b", delivered=True)
    tr.now = 2e-5
    tr.end(outer)
    return tr


def make_records():
    return list(iter_records(make_tracer()))


class TestRecordShape:
    def test_record_shape(self):
        tr = make_tracer()
        outer = tr.spans[0]
        record = span_record(outer)
        assert record["kind"] == "span"
        assert record["cat"] == "datapath.transfer"
        assert record["name"] == "a->b"
        assert record["ts"] == 0.0
        assert record["dur"] == pytest.approx(2e-5)
        assert record["run"] == 1
        assert record["attrs"] == {"nbytes": 1024}
        assert "parent" not in record

    def test_parent_included(self):
        tr = make_tracer()
        stage = tr.spans[1]
        record = span_record(stage)
        assert record["parent"] == tr.spans[0].sid

    def test_iter_records_sorted_and_complete(self):
        tr = make_tracer()
        records = list(iter_records(tr))
        assert len(records) == 3  # 2 spans + 1 event
        stamps = [(r["run"], r["ts"], r["sid"]) for r in records]
        assert stamps == sorted(stamps)
        assert {r["kind"] for r in records} == {"span", "event"}


class TestJsonl:
    def test_every_line_parses(self, tmp_path):
        path = write_spans_jsonl(make_records(), tmp_path / "spans.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert {"kind", "cat", "name", "ts", "dur", "run"} <= set(record)

    def test_non_json_attrs_coerced(self, tmp_path):
        class Funny:
            def __str__(self):
                return "funny"

        tr = Tracer()
        tr.end(tr.begin("c", "x", obj=Funny()))
        path = write_spans_jsonl(iter_records(tr), tmp_path / "s.jsonl")
        assert json.loads(path.read_text())["attrs"]["obj"] == "funny"


class TestChromeTrace:
    def test_structure(self):
        trace = chrome_trace(make_records())
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2
        assert len(instants) == 1
        assert all("pid" in e and "tid" in e for e in complete + instants)

    def test_timestamps_scaled_to_microseconds(self):
        trace = chrome_trace(make_records())
        stage = next(e for e in trace["traceEvents"]
                     if e.get("name") == "vhost_tx")
        assert stage["ts"] == 0.0
        assert stage["dur"] == pytest.approx(10.0)  # 1e-5 s = 10 us

    def test_domain_becomes_thread(self):
        trace = chrome_trace(make_records())
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "kthread:host:vhost:tap0" in names
        assert "datapath.transfer" in names  # no domain -> category track

    def test_process_named_per_run(self):
        trace = chrome_trace(make_records())
        procs = [e for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert procs and procs[0]["args"]["name"] == "sim-run-1"

    def test_file_is_valid_json(self, tmp_path):
        path = write_chrome_trace(make_records(), tmp_path / "t.trace.json")
        loaded = json.loads(path.read_text())
        assert isinstance(loaded["traceEvents"], list)


class TestSummary:
    def test_groups_and_ranks_by_sim_time(self):
        text = summary(make_tracer())
        lines = text.splitlines()
        assert "top 2 of 2 span groups" in lines[0]
        assert "(2 spans, 1 events)" in lines[0]
        # transfer (20 us) outranks the stage (10 us)
        assert lines.index(
            next(l for l in lines if "datapath.transfer:a->b" in l)
        ) < lines.index(next(l for l in lines if "vhost_tx" in l))
        assert "cycles" in lines[1]  # cycles column present when attr set

    def test_top_limits_rows(self):
        tr = Tracer()
        for i in range(5):
            tr.end(tr.begin("c", f"n{i}"))
        text = summary(tr, top=2)
        assert "top 2 of 5 span groups" in text

    def test_empty_trace(self):
        tr = Tracer()
        tr.event("c", "x")
        assert summary(tr) == "(no spans recorded; 1 events)"

    def test_wall_column_when_profiling(self):
        tr = Tracer(self_profile=True)
        tr.end(tr.begin("c", "x"))
        assert "wall total" in summary(tr)


class TestSummaryCounters:
    """The satellite fix: labelled counter series appear in the summary."""

    def make_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        dropped = registry.counter("net.frames_dropped")
        dropped.inc(14, reason="link-loss")
        dropped.inc(3, reason="corrupt")
        registry.counter("net.frames_sent").inc(100)
        registry.gauge("queue.depth").set(5)  # gauges stay out
        return registry

    def test_labelled_series_are_rows(self):
        text = summary(make_tracer(), metrics=self.make_metrics())
        assert 'net.frames_dropped{reason="link-loss"}  14' in text
        assert 'net.frames_dropped{reason="corrupt"}' in text
        assert "net.frames_sent" in text
        assert "queue.depth" not in text

    def test_counters_ranked_by_value(self):
        text = summary(make_tracer(), metrics=self.make_metrics())
        lines = text.splitlines()
        sent = next(i for i, l in enumerate(lines) if "frames_sent" in l)
        loss = next(i for i, l in enumerate(lines) if "link-loss" in l)
        corrupt = next(i for i, l in enumerate(lines) if "corrupt" in l)
        assert sent < loss < corrupt

    def test_counter_table_without_spans(self):
        from repro.obs import Tracer

        text = summary(Tracer(), metrics=self.make_metrics())
        assert text.startswith("(no spans recorded")
        assert "net.frames_dropped" in text

    def test_no_metrics_keeps_old_shape(self):
        assert "counters" not in summary(make_tracer())

    def test_empty_registry_adds_nothing(self):
        from repro.obs.metrics import MetricsRegistry

        assert "counters" not in summary(make_tracer(),
                                         metrics=MetricsRegistry())


class TestDistributedChromeTrace:
    @staticmethod
    def make_trace_doc():
        """A small but representative service trace document."""
        t0 = 1000.0

        def wall(sid, name, start, dur, worker, parent=None, **attrs):
            return make_record(sid, "service", name, t0 + start, dur,
                               parent=parent, attrs=attrs, trace_id="tr1",
                               worker=worker)

        spans = [
            wall("parse", "http.parse", 0.0, 0.01, "http"),
            wall("job", "job", 0.0, 1.0, "service", parent="parse"),
            wall("w1", "worker", 0.2, 0.7, "shard-0", parent="job",
                 outcome="ok"),
            make_record("w1.r0s1", "datapath", "engine", 0.0, 1e-5,
                        parent="w1", trace_id="tr1", worker="pid-42"),
            wall("notify", "sse.notify", 1.0, 0.0, "service", parent="job"),
        ]
        return {"job_id": "j00000", "trace_id": "tr1", "spans": spans}

    def test_one_process_row_per_worker(self):
        from repro.obs.export import distributed_chrome_trace

        doc = distributed_chrome_trace(self.make_trace_doc())
        rows = {e["args"]["name"] for e in doc["traceEvents"]
                if e.get("name") == "process_name"}
        assert rows == {"http", "service", "shard-0", "pid-42"}

    def test_wall_time_rebased_to_trace_start(self):
        from repro.obs.export import distributed_chrome_trace

        doc = distributed_chrome_trace(self.make_trace_doc())
        parse = next(e for e in doc["traceEvents"]
                     if e.get("name") == "http.parse")
        assert parse["ts"] == pytest.approx(0.0)
        worker = next(e for e in doc["traceEvents"]
                      if e.get("name") == "worker")
        assert worker["ts"] == pytest.approx(0.2 * 1e6)

    def test_sim_spans_nest_inside_their_worker_span(self):
        from repro.obs.export import distributed_chrome_trace

        doc = distributed_chrome_trace(self.make_trace_doc())
        engine = next(e for e in doc["traceEvents"]
                      if e.get("name") == "engine")
        worker = next(e for e in doc["traceEvents"]
                      if e.get("name") == "worker")
        assert engine["cat"] == "datapath"
        # Offset by the worker span's wall start: renders inside it.
        assert engine["ts"] >= worker["ts"]
        assert engine["ts"] + engine["dur"] <= (
            worker["ts"] + worker["dur"])

    def test_instant_service_spans_become_instants(self):
        from repro.obs.export import distributed_chrome_trace

        doc = distributed_chrome_trace(self.make_trace_doc())
        notify = next(e for e in doc["traceEvents"]
                      if e.get("name") == "sse.notify")
        assert notify["ph"] == "i"

    def test_empty_trace_is_valid_and_writable(self):
        from repro.obs.export import distributed_chrome_trace

        assert distributed_chrome_trace({"spans": []})["traceEvents"] == []
        parsed = json.loads(json.dumps(
            distributed_chrome_trace(self.make_trace_doc())))
        assert parsed["displayTimeUnit"] == "ms"
        assert parsed["traceEvents"]
