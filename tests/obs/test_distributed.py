"""Distributed trace context, span store, and critical-path analysis."""

import pytest

from repro.obs.distributed import (
    MAX_SPANS_PER_TRACE,
    PHASES,
    SpanRecord,
    TraceContext,
    TraceStore,
    connected,
    critical_path,
    new_span_id,
    new_trace_id,
    sanitize_trace_id,
    sim_records_to_spans,
)


def span(trace="tr1", sid="s1", name="x", start=0.0, end=1.0,
         parent=None, kind="service", **tags) -> SpanRecord:
    return SpanRecord(
        trace_id=trace, span_id=sid, name=name,
        start_s=start, end_s=end, parent_id=parent, kind=kind, tags=tags,
    )


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


class TestSpanRecord:
    def test_duration_never_negative(self):
        assert span(start=2.0, end=1.0).duration_s == 0.0


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
            span(sid="w.r0s1", name="engine", parent="w", kind="sim",
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
        assert [s.span_id for s in spans] == ["wspan.r0s1", "wspan.r0s2"]
        assert spans[0].parent_id == "wspan"  # sim root -> worker span
        assert spans[1].parent_id == "wspan.r0s1"
        assert spans[1].tags["cycles"] == 42
        assert all(s.kind == "sim" and s.worker == "pid-9" for s in spans)

    def test_two_attempts_cannot_collide(self):
        record = [{"sid": 1, "run": 0, "name": "r", "ts": 0.0, "dur": 0.0}]
        first = sim_records_to_spans(
            record, trace_id="tr1", parent_span_id="attempt1", worker="w")
        second = sim_records_to_spans(
            record, trace_id="tr1", parent_span_id="attempt2", worker="w")
        assert first[0].span_id != second[0].span_id
