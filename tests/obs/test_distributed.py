"""Distributed trace context, span store, and critical-path analysis."""

import pytest

from repro.obs.distributed import (
    MAX_SPANS_PER_TRACE,
    PHASES,
    TraceContext,
    TraceStore,
    connected,
    critical_path,
    new_span_id,
    new_trace_id,
    sanitize_trace_id,
    sim_records_to_spans,
)
from repro.obs.export import distributed_chrome_trace, make_record


def span(trace="tr1", sid="s1", name="x", start=0.0, end=1.0,
         parent=None, cat="service", **attrs) -> dict:
    return make_record(sid, cat, name, start, end - start, parent=parent,
                       attrs=attrs, trace_id=trace)


class TestIds:
    def test_ids_are_fresh_and_hex(self):
        a, b = new_trace_id(), new_trace_id()
        assert a != b
        assert len(a) == 16 and int(a, 16) >= 0
        assert len(new_span_id()) == 8

    @pytest.mark.parametrize("raw", [
        "abcd", "a-b_c-9", "A" * 64, "0123456789abcdef",
    ])
    def test_sanitize_accepts_reasonable_ids(self, raw):
        assert sanitize_trace_id(raw) == raw

    @pytest.mark.parametrize("raw", [
        None, "", "abc", "A" * 65, "has space", 'quote"id',
        "new\nline", "semi;colon", "curly{brace}",
    ])
    def test_sanitize_rejects_hostile_ids(self, raw):
        assert sanitize_trace_id(raw) is None


class TestTraceContext:
    def test_root_mints_an_id_and_sorts_baggage(self):
        ctx = TraceContext.root(z="1", a="2")
        assert ctx.parent_span_id is None
        assert ctx.baggage == (("a", "2"), ("z", "1"))
        assert ctx.bag() == {"a": "2", "z": "1"}

    def test_child_keeps_id_and_baggage(self):
        ctx = TraceContext.root("tracetrace", hop="first")
        child = ctx.child("span0001")
        assert child.trace_id == "tracetrace"
        assert child.parent_span_id == "span0001"
        assert child.bag() == {"hop": "first"}

    def test_dict_roundtrip(self):
        ctx = TraceContext("tid0", "pid0", (("k", "v"),))
        assert TraceContext.from_dict(ctx.to_dict()) == ctx
        bare = TraceContext.root("bare")
        assert TraceContext.from_dict(bare.to_dict()) == bare
        assert "parent_span_id" not in bare.to_dict()


class TestRecord:
    def test_duration_never_negative(self):
        backwards = [span(sid="job", name="job", start=2.0, end=1.0),
                     span(sid="q", name="queue.wait", parent="job",
                          start=2.0, end=1.5)]
        path = critical_path(backwards)
        assert path["e2e_s"] == 0.0
        assert path["components"]["queue_wait"] == 0.0


class TestTraceStore:
    def test_evicts_whole_oldest_trace(self):
        store = TraceStore(keep=2)
        for tid in ("t001", "t002", "t003"):
            store.add(span(trace=tid, sid=f"{tid}-a"))
            store.add(span(trace=tid, sid=f"{tid}-b"))
        assert store.trace_ids() == ("t002", "t003")
        assert store.spans("t001") == []
        assert len(store.spans("t003")) == 2

    def test_extending_refreshes_age(self):
        store = TraceStore(keep=2)
        store.add(span(trace="old1", sid="a"))
        store.add(span(trace="old2", sid="b"))
        store.add(span(trace="old1", sid="c"))  # touch: old1 is now newest
        store.add(span(trace="new3", sid="d"))
        assert "old1" in store.trace_ids()
        assert "old2" not in store.trace_ids()

    def test_per_trace_span_cap_counts_drops(self):
        store = TraceStore(keep=4, max_spans=16)
        for i in range(20):
            store.add(span(trace="big1", sid=f"s{i}"))
        assert len(store.spans("big1")) == 16
        assert store.dropped("big1") == 4
        assert store.dropped("elsewhere") == 0

    def test_default_cap_is_the_module_constant(self):
        assert TraceStore().max_spans == MAX_SPANS_PER_TRACE


class TestConnected:
    def test_single_tree_is_connected(self):
        spans = [
            span(sid="root"),
            span(sid="kid1", parent="root"),
            span(sid="kid2", parent="kid1"),
        ]
        assert connected(spans)

    def test_two_roots_or_dangling_parent_is_not(self):
        assert not connected([span(sid="a"), span(sid="b")])
        assert not connected([span(sid="a"), span(sid="b", parent="ghost")])
        assert not connected([])


class TestCriticalPath:
    def test_components_tile_the_job_exactly(self):
        spans = [
            span(sid="parse", name="http.parse", start=0.0, end=0.1),
            span(sid="job", name="job", start=0.1, end=1.1, parent="parse"),
            span(sid="p1", name="cache.probe", start=0.1, end=0.2,
                 parent="job"),
            span(sid="p2", name="admission", start=0.2, end=0.3,
                 parent="job"),
            span(sid="p3", name="queue.wait", start=0.3, end=0.6,
                 parent="job"),
            span(sid="p4", name="worker", start=0.6, end=1.0, parent="job"),
            span(sid="p5", name="publish", start=1.0, end=1.05,
                 parent="job"),
        ]
        path = critical_path(spans)
        assert path["e2e_s"] == pytest.approx(1.0)
        # By construction: attributed phases + "other" == e2e, exactly.
        assert sum(path["components"].values()) == pytest.approx(1.0)
        assert path["components"]["queue_wait"] == pytest.approx(0.3)
        assert path["components"]["other"] == pytest.approx(0.05)
        assert path["coverage"] == pytest.approx(0.95)
        assert path["span_count"] == len(spans)

    def test_every_phase_name_is_attributable(self):
        spans = [span(sid="job", name="job", start=0.0, end=2.0)]
        spans.extend(
            span(sid=f"ph{i}", name=name, parent="job",
                 start=0.1 * i, end=0.1 * i + 0.1)
            for i, name in enumerate(PHASES)
        )
        path = critical_path(spans)
        for name in PHASES:
            assert path["components"][name.replace(".", "_")] == (
                pytest.approx(0.1))

    def test_sim_spans_are_summarized_not_attributed(self):
        spans = [
            span(sid="job", name="job", start=0.0, end=1.0),
            span(sid="w", name="worker", parent="job", start=0.0, end=1.0),
            span(sid="w.r0s1", name="engine", parent="w", cat="datapath",
                 start=0.0, end=0.5, cycles=100),
        ]
        path = critical_path(spans)
        assert path["sim"] == {"spans": 1, "sim_s": 0.5, "cycles": 100.0}
        assert "engine" not in path["components"]

    def test_empty_trace_degrades_gracefully(self):
        path = critical_path([])
        assert path["e2e_s"] == 0.0 and path["components"] == {}


class TestSimBridge:
    def test_namespacing_and_parent_links(self):
        records = [
            {"sid": 1, "run": 0, "name": "root", "ts": 0.0, "dur": 2e-6,
             "cat": "engine"},
            {"sid": 2, "run": 0, "parent": 1, "name": "leaf", "ts": 1e-6,
             "dur": 1e-6, "cat": "engine",
             "attrs": {"cycles": 42, "domain": "cpu0"}},
            {"name": "an-event", "ts": 0.0},  # no sid: skipped
        ]
        spans = sim_records_to_spans(
            records, trace_id="tr1", parent_span_id="wspan", worker="pid-9"
        )
        assert [s["sid"] for s in spans] == ["wspan.r0s1", "wspan.r0s2"]
        assert spans[0]["parent"] == "wspan"  # sim root -> worker span
        assert spans[1]["parent"] == "wspan.r0s1"
        assert spans[1]["attrs"] == {"cycles": 42, "domain": "cpu0"}
        assert all(s["cat"] == "engine" and s["trace_id"] == "tr1"
                   and s["worker"] == "pid-9" for s in spans)
        # Only the ids move; the record keeps every other field.
        assert {k: v for k, v in spans[1].items()
                if k not in ("sid", "parent", "trace_id", "worker")} == {
            k: v for k, v in records[1].items()
            if k not in ("sid", "parent")}

    def test_two_attempts_cannot_collide(self):
        record = [{"sid": 1, "run": 0, "name": "r", "ts": 0.0, "dur": 0.0}]
        first = sim_records_to_spans(
            record, trace_id="tr1", parent_span_id="attempt1", worker="w")
        second = sim_records_to_spans(
            record, trace_id="tr1", parent_span_id="attempt2", worker="w")
        assert first[0]["sid"] != second[0]["sid"]


#: A fixed traced job: service phases (sid, name, parent, offset from
#: t0, duration, worker) and the sim records its worker shipped.  Every
#: time is a short binary fraction, so sums are exact.
T0 = 1024.0
PHASE_SPANS = [
    ("parse", "http.parse", None, 0.0, 0.0078125, "http"),
    ("job", "job", "parse", 0.0, 1.0, "service"),
    ("probe", "cache.probe", "job", 0.0, 0.0078125, "service"),
    ("admit", "admission", "job", 0.0078125, 0.015625, "service"),
    ("queue", "queue.wait", "job", 0.0234375, 0.125, "shard-0"),
    ("gate", "breaker.gate", "job", 0.1484375, 0.0078125, "shard-0"),
    ("w1", "worker", "job", 0.15625, 0.5, "shard-0"),
    ("pub", "publish", "job", 0.65625, 0.03125, "service"),
    ("note", "sse.notify", "job", 1.0, 0.0, "service"),
]
SIM_RECORDS = [
    {"kind": "span", "sid": 1, "cat": "datapath", "name": "transfer",
     "ts": 0.0, "dur": 0.25, "run": 0, "attrs": {"cycles": 1000}},
    {"kind": "span", "sid": 2, "cat": "datapath", "name": "stage",
     "ts": 0.125, "dur": 0.0625, "run": 0, "parent": 1,
     "attrs": {"cycles": 500, "domain": "cpu0"}},
    {"kind": "event", "sid": 3, "cat": "net", "name": "hop",
     "ts": 0.125, "dur": 0.0, "run": 0, "parent": 1},
]


def fixed_trace() -> list[dict]:
    spans = [make_record(sid, "service", name, T0 + offset, dur,
                         parent=parent, trace_id="tr1", worker=worker)
             for sid, name, parent, offset, dur, worker in PHASE_SPANS]
    spans += sim_records_to_spans(SIM_RECORDS, trace_id="tr1",
                                  parent_span_id="w1", worker="pid-42")
    return spans


class TestFixedTracePins:
    """Numbers recorded with the span format that preceded the plain
    record (``span_id``/``start_s``/``end_s``/``tags``/``kind``), so
    the format change is known to leave the analysis and the export
    alone."""

    def test_critical_path_is_unchanged(self):
        spans = fixed_trace()
        assert connected(spans)
        assert critical_path(spans) == {
            "e2e_s": 1.0,
            "components": {
                "cache_probe": 0.0078125, "admission": 0.015625,
                "queue_wait": 0.125, "breaker_gate": 0.0078125,
                "worker": 0.5, "publish": 0.03125, "other": 0.3125,
            },
            "coverage": 0.6875,
            "span_count": 12,
            "sim": {"spans": 3, "sim_s": 0.3125, "cycles": 1500.0},
        }

    def test_distributed_chrome_export_is_unchanged(self):
        events = distributed_chrome_trace({"spans": fixed_trace()})[
            "traceEvents"]
        processes = {e["pid"]: e["args"]["name"] for e in events
                     if e["name"] == "process_name"}
        assert processes == {1: "http", 2: "service", 3: "shard-0",
                             4: "pid-42"}
        threads = [(e["pid"], e["tid"], e["args"]["name"]) for e in events
                   if e["name"] == "thread_name"]
        assert threads == [(1, 1, "wall"), (2, 1, "wall"), (3, 1, "wall"),
                           (4, 1, "sim-time")]
        timed = [(e["ph"], e["pid"], e["name"], e["ts"], e.get("dur"))
                 for e in events if e["ph"] != "M"]
        assert timed == [
            ("X", 1, "http.parse", 0.0, 7812.5),
            ("X", 2, "job", 0.0, 1000000.0),
            ("X", 2, "cache.probe", 0.0, 7812.5),
            ("X", 2, "admission", 7812.5, 15625.0),
            ("X", 3, "queue.wait", 23437.5, 125000.0),
            ("X", 3, "breaker.gate", 148437.5, 7812.5),
            ("X", 3, "worker", 156250.0, 500000.0),
            ("X", 2, "publish", 656250.0, 31250.0),
            ("i", 2, "sse.notify", 1000000.0, None),
            ("X", 4, "transfer", 156250.0, 250000.0),
            ("X", 4, "stage", 281250.0, 62500.0),
            ("i", 4, "hop", 281250.0, None),
        ]
