"""Tracer core: spans, parents, sampling, the no-op path, install."""

import pytest

from repro import obs
from repro.obs import NULL, NullTracer, Tracer


class TestSpans:
    def test_begin_end_records_interval(self):
        tr = Tracer()
        tr.now = 1.0
        span = tr.begin("cat", "work", cpu=0)
        tr.now = 1.5
        tr.end(span, cycles=42)
        assert span.start == 1.0
        assert span.end == 1.5
        assert span.duration == pytest.approx(0.5)
        assert span.attrs == {"cpu": 0, "cycles": 42}
        assert tr.spans == [span]

    def test_open_span_has_zero_duration(self):
        tr = Tracer()
        span = tr.begin("cat", "open")
        assert span.end is None
        assert span.duration == 0.0

    def test_parent_links_by_sid(self):
        tr = Tracer()
        parent = tr.begin("cat", "outer")
        child = tr.begin("cat", "inner", parent=parent)
        assert child.parent == parent.sid
        assert parent.parent is None

    def test_interleaved_spans_keep_their_own_parents(self):
        # Two "processes" interleave: explicit parent refs, not a stack.
        tr = Tracer()
        a = tr.begin("xfer", "a")
        b = tr.begin("xfer", "b")
        a_stage = tr.begin("stage", "a1", parent=a)
        b_stage = tr.begin("stage", "b1", parent=b)
        tr.end(a_stage)
        tr.end(b_stage)
        assert a_stage.parent == a.sid
        assert b_stage.parent == b.sid

    def test_context_manager_ends_span(self):
        tr = Tracer()
        tr.now = 2.0
        with tr.span("cat", "block") as span:
            tr.now = 3.0
        assert span.end == 3.0

    def test_end_none_is_noop(self):
        tr = Tracer()
        tr.end(None)  # sampled-out spans come back as None

    def test_events_are_instant(self):
        tr = Tracer()
        tr.now = 4.0
        ev = tr.event("sched", "place", node="vm0")
        assert ev.start == ev.end == 4.0
        assert ev.duration == 0.0
        assert tr.events == [ev]
        assert tr.spans == []

    def test_category_filters(self):
        tr = Tracer()
        tr.begin("a", "x")
        tr.begin("b", "y")
        tr.event("a", "z")
        assert [s.name for s in tr.spans_in("a")] == ["x"]
        assert [s.name for s in tr.events_in("a")] == ["z"]

    def test_clear(self):
        tr = Tracer()
        tr.begin("a", "x")
        tr.event("a", "y")
        tr.clear()
        assert tr.spans == [] and tr.events == []

    def test_new_run_increments(self):
        tr = Tracer()
        assert tr.run_id == 0
        assert tr.new_run() == 1
        span = tr.begin("a", "x")
        assert span.run == 1


class TestSampling:
    def test_rate_is_deterministic_fraction(self):
        tr = Tracer(sampling={"hot": 0.1})
        kept = sum(tr.begin("hot", "x") is not None for _ in range(1000))
        assert kept == 100

    def test_zero_rate_drops_everything(self):
        tr = Tracer(sampling={"hot": 0.0})
        assert all(tr.begin("hot", "x") is None for _ in range(50))
        assert tr.spans == []

    def test_unlisted_categories_kept_fully(self):
        tr = Tracer(sampling={"hot": 0.0})
        assert all(tr.begin("cold", "x") is not None for _ in range(50))

    def test_sampling_is_reproducible_across_tracers(self):
        def picks():
            tr = Tracer(sampling={"c": 0.3})
            return [tr.begin("c", "x") is not None for _ in range(20)]

        assert picks() == picks()  # no RNG involved

    def test_set_sampling_applies_to_events_too(self):
        tr = Tracer()
        tr.set_sampling("ev", 0.5)
        kept = sum(tr.event("ev", "x") is not None for _ in range(10))
        assert kept == 5


class TestSelfProfile:
    def test_wall_clock_measured_when_enabled(self):
        tr = Tracer(self_profile=True)
        span = tr.begin("cat", "x")
        tr.end(span)
        assert span.wall_s is not None and span.wall_s >= 0.0

    def test_wall_clock_off_by_default(self):
        tr = Tracer()
        span = tr.begin("cat", "x")
        tr.end(span)
        assert span.wall_s is None


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL.enabled is False
        assert Tracer.enabled is True

    def test_all_operations_are_noops(self):
        null = NullTracer()
        assert null.begin("a", "x") is None
        null.end(None)
        assert null.event("a", "x") is None
        with null.span("a", "x") as span:
            assert span is None
        assert null.spans_in("a") == [] and null.events_in("a") == []
        assert null.new_run() == 0
        null.set_sampling("a", 0.5)
        null.clear()
        assert list(null.spans) == [] and list(null.events) == []


class TestActiveTracer:
    def test_default_is_null(self):
        assert obs.tracer() is NULL

    def test_install_uninstall(self):
        mine = Tracer()
        obs.install(tracer=mine)
        try:
            assert obs.tracer() is mine
        finally:
            obs.uninstall()
        assert obs.tracer() is NULL

    def test_capture_installs_and_restores(self):
        before_metrics = obs.metrics()
        with obs.capture() as (tr, mx):
            assert obs.tracer() is tr
            assert obs.metrics() is mx
            assert tr.enabled
        assert obs.tracer() is NULL
        assert obs.metrics() is before_metrics

    def test_capture_nests(self):
        with obs.capture() as (outer, _):
            with obs.capture() as (inner, _mx):
                assert obs.tracer() is inner
            assert obs.tracer() is outer

    def test_capture_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("boom")
        assert obs.tracer() is NULL


class TestEngineIntegration:
    def test_environment_adopts_active_tracer(self):
        from repro.sim import Environment

        with obs.capture() as (tr, _):
            env = Environment()
            assert env.tracer is tr
            assert tr.run_id == 1  # new_run() per environment

    def test_engine_advances_tracer_clock(self):
        from repro.sim import Environment

        with obs.capture() as (tr, _):
            env = Environment()

            def proc(env):
                yield env.timeout(0.25)

            env.run(until=env.process(proc(env)))
            assert tr.now == pytest.approx(0.25)
            assert any(s.category == "sim.step" for s in tr.spans)

    def test_disabled_tracer_records_nothing(self):
        from repro.core import build_scenario
        from repro.core.testbed import default_testbed

        assert obs.tracer() is NULL
        tb = default_testbed(seed=3, vms=2)
        sc = build_scenario(tb, "nat")
        fwd, _rev = sc.paths()
        tb.env.run(until=tb.env.process(tb.engine.transfer(fwd, 1024)))
        assert list(NULL.spans) == []
        assert list(NULL.events) == []

    def test_environment_snapshot_survives_uninstall(self):
        # The env keeps tracing into the tracer it saw at construction.
        from repro.sim import Environment

        with obs.capture() as (tr, _):
            env = Environment()
        assert obs.tracer() is NULL
        assert env.tracer is tr
