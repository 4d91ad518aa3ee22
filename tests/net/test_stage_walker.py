"""Differential oracle for the datapath stage walker.

``TransferEngine.transfer`` and ``trace`` carry a message along its
stage plan with a callback-driven walker that resumes the sending
process once, when the last stage completes.  The reference below
(``reference_transfer``) is the generator loop the walker replaced: the
sending process itself steps through the plan, yielding one CPU event
and one ``Timeout`` per stage.  Both run on the same kernel, so the
walker must reproduce its ``(time, priority, seq)`` order exactly.

Random programs of several senders run on both.  Stage plans use
2-core domains and lazily created single-core ``kthread:`` domains;
cycles and wakeups sit on a coarse grid (including zero) and senders
mix transfers with plain jobs, ``Timeout`` waits, parallel transfers
and ``AllOf`` joins, so same-instant ties are the common case.
"""

from __future__ import annotations

import typing as t

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.net import transfer as transfer_mod
from repro.net.costs import CostModel, StageCost
from repro.net.path import Datapath, PathStage
from repro.net.transfer import StageTiming, TransferEngine
from repro.obs import metrics as _active_metrics
from repro.sim import AllOf, CpuResource, Environment, Interrupt, Timeout

# -- reference stage loop ---------------------------------------------------


def reference_transfer(engine: TransferEngine, path: Datapath, nbytes: int,
                       stream: bool = False,
                       cost_model: CostModel | None = None,
                       timings: list[StageTiming] | None = None
                       ) -> t.Generator:
    """The process-driven stage loop: one resume per CPU stage and wakeup."""
    model = cost_model or engine.cost_model
    plan = transfer_mod.stage_plan(path, nbytes, stream, model)
    env = engine.env
    tracer = env.tracer
    traced = timings is None and tracer.enabled
    parent = None
    if traced:
        parent = tracer.begin(
            "datapath.transfer", f"{path.src}->{path.dst}",
            nbytes=nbytes, stream=stream, stages=len(path.stages),
            jitter=path.jitter_class,
        )
        queue_depth = _active_metrics().gauge(
            "cpu.queue_depth",
            help="jobs waiting per CPU domain, sampled at stage entry",
        )
    for stage, domain, label, account, cycles, wakeup in plan:
        span = None
        if traced:
            span = tracer.begin(
                "datapath.stage", stage, parent=parent,
                domain=domain, account=account, cycles=cycles,
                label=label,
            )
            queue_depth.set(engine.cpu(domain).queue_depth, domain=domain)
        started = env._now
        if cycles > 0.0:
            yield engine.cpu(domain).execute(cycles, account)
        cpu_done = env._now
        if wakeup > 0.0:
            yield Timeout(env, wakeup)
        if timings is not None:
            timings.append(StageTiming(
                stage, domain, label, started, cpu_done, env._now, cycles))
        if span is not None:
            tracer.end(span)
    if parent is not None:
        tracer.end(parent)


def reference_trace(engine: TransferEngine, path: Datapath, nbytes: int,
                    stream: bool = False) -> list[StageTiming]:
    timings: list[StageTiming] = []
    engine.env.run(until=engine.env.process(
        reference_transfer(engine, path, nbytes, stream, None, timings)))
    return timings


class Walker:
    """The engine under test."""

    @staticmethod
    def transfer(engine: TransferEngine, *args: t.Any) -> t.Generator:
        return engine.transfer(*args)

    @staticmethod
    def trace(engine: TransferEngine, *args: t.Any) -> list[StageTiming]:
        return engine.trace(*args)


class Reference:
    transfer = staticmethod(reference_transfer)
    trace = staticmethod(reference_trace)


# -- random programs ---------------------------------------------------------

FREQ_HZ = 1000.0
#: Two 2-core domains, registered up front, and two single-core kernel
#: threads that the engine creates on their first job.
DOMAINS = ("host", "vm:a", "kthread:x", "kthread:y")

_stage = st.tuples(
    st.sampled_from(DOMAINS),
    st.sampled_from([0.0, 1000.0, 2000.0]),  # cycles
    st.sampled_from([0.0, 1.0, 2.0]),  # wakeup, seconds
    st.sampled_from(["usr", "sys", "soft"]),
    st.sampled_from([1.0, 2.0]),  # batch factor under stream=True
)
_paths = st.lists(st.lists(_stage, min_size=1, max_size=5),
                  min_size=1, max_size=3)
_send = st.tuples(st.just("send"), st.integers(0, 2), st.booleans())
_op = st.one_of(
    _send,
    st.tuples(st.just("wait"), st.sampled_from([0.0, 1.0, 2.0])),
    st.tuples(st.just("cpu"), st.sampled_from(DOMAINS[:2]),
              st.sampled_from([0.0, 1000.0, 2000.0])),
    st.tuples(st.just("fanout"), st.lists(_send, min_size=1, max_size=3)),
    st.tuples(st.just("join"), st.integers(1, 3)),
)
programs = st.tuples(
    _paths,
    st.lists(st.tuples(st.sampled_from([0.0, 1.0]),
                       st.lists(_op, min_size=1, max_size=6)),
             min_size=2, max_size=5),
    st.sampled_from([0.0, 1.0, 3.0]),  # when trace() runs
)


def build(paths: list) -> tuple[Environment, TransferEngine, list[Datapath]]:
    costs: dict[str, StageCost] = {}
    datapaths = []
    for p, stages in enumerate(paths):
        path_stages = []
        for s, (domain, cycles, wakeup, account, batch) in enumerate(stages):
            name = f"p{p}s{s}"
            costs[name] = StageCost(name, account, cycles_per_packet=cycles,
                                    wakeup_s=wakeup, batch_factor=batch)
            path_stages.append(PathStage(name, domain, label=f"L{s}"))
        datapaths.append(Datapath(tuple(path_stages), segment_payload=1500,
                                  jitter_class="clean", src=f"src{p}",
                                  dst=f"dst{p}"))
    env = Environment()
    engine = TransferEngine(env, CostModel(costs, freq_hz=FREQ_HZ))
    for domain in DOMAINS[:2]:
        engine.register_domain(
            domain, CpuResource(env, cores=2, freq_hz=FREQ_HZ, name=domain))
    return env, engine, datapaths


def play(program: tuple, impl: type) -> tuple:
    """Run *program* with *impl*'s stage loop; returns everything seen."""
    paths, procs, trace_at = program
    env, engine, datapaths = build(paths)
    log: list[tuple] = []
    started: list = []

    def send(op: tuple) -> t.Generator:
        _, p, stream = op
        return impl.transfer(engine, datapaths[p % len(datapaths)], 0, stream)

    def body(pid: int, start: float, ops: list) -> t.Generator:
        yield env.timeout(start)
        log.append((env.now, pid, "start"))
        for step, op in enumerate(ops):
            kind = op[0]
            value = None
            if kind == "send":
                yield from send(op)
            elif kind == "wait":
                value = yield env.timeout(op[1], value=(pid, step))
            elif kind == "cpu":
                yield engine.cpu(op[1]).execute(op[2], "usr")
            elif kind == "fanout":
                yield AllOf(env, [env.process(send(s)) for s in op[1]])
            else:
                # Join only earlier senders, so no program deadlocks.
                earlier = started[max(0, pid - op[1]):pid]
                if not earlier:
                    continue
                value = yield AllOf(env, earlier)
                value = list(value.values())
            log.append((env.now, pid, kind, value))
        return ("done", pid)

    for pid, (start, ops) in enumerate(procs):
        started.append(env.process(body(pid, start, ops)))
    env.run(until=trace_at)
    # Traced while the senders' traffic is still queueing.
    timeline = impl.trace(engine, datapaths[0], 0, False)
    env.run()
    cpus = [(name, cpu.breakdown(), cpu.mean_wait())
            for name, cpu in engine.domains().items()]
    return log, [p._value for p in started], env.now, timeline, cpus


def play_traced(program: tuple, impl: type) -> tuple:
    with obs.capture() as (tracer, metrics):
        result = play(program, impl)
    steps = [s.name for s in tracer.spans if s.category == "sim.step"]
    datapath = [(s.sid, s.parent, s.category, s.name, s.start, s.end, s.attrs)
                for s in tracer.spans if s.category.startswith("datapath.")]
    spans = [(s.sid, s.parent, s.category, s.name, s.start, s.end, s.attrs)
             for s in tracer.spans]
    return result, steps, datapath, spans, metrics.snapshot()


class TestWalkerMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(programs)
    def test_same_resume_order_accounting_and_timeline(self, program):
        assert play(program, Walker) == play(program, Reference)

    @settings(max_examples=60, deadline=None)
    @given(programs)
    def test_traced_run_has_the_same_steps_and_spans(self, program):
        walker = play_traced(program, Walker)
        reference = play_traced(program, Reference)
        assert walker[0] == reference[0]
        assert walker[1] == reference[1]  # sim.step names, in order
        assert walker[2] == reference[2]  # the datapath span tree
        assert walker[3:] == reference[3:]

    def test_last_stage_resumes_the_sender_before_a_same_instant_timeout(self):
        # The message's last wakeup and the second sender's timeout are
        # both due at t=1, the wakeup first in seq order: the first
        # sender must resume before the second does.
        program = ([[("host", 0.0, 1.0, "sys", 1.0)]], [
            (0.0, [("send", 0, False), ("wait", 0.0)]),
            (0.0, [("wait", 1.0)]),
        ], 0.0)
        assert play(program, Walker) == play(program, Reference)
        assert play_traced(program, Walker) == play_traced(program, Reference)

    def test_cpu_completion_due_with_other_events_keeps_its_order(self):
        # Two transfers end their CPU stage together on a 2-core domain,
        # so the first completion is pushed, not run inline.
        program = ([[("vm:a", 1000.0, 0.0, "usr", 1.0),
                     ("kthread:x", 1000.0, 1.0, "sys", 1.0)]], [
            (0.0, [("send", 0, False), ("cpu", "host", 1000.0)]),
            (0.0, [("send", 0, True), ("wait", 1.0)]),
            (0.0, [("wait", 1.0), ("send", 0, False)]),
        ], 1.0)
        assert play(program, Walker) == play(program, Reference)
        assert play_traced(program, Walker) == play_traced(program, Reference)


# -- interrupts and errors ---------------------------------------------------

#: Three stages on three CPUs: 1 s of service then a 1 s wakeup each.
THREE_STAGES = [[("host", 1000.0, 1.0, "usr", 1.0),
                 ("vm:a", 1000.0, 1.0, "sys", 1.0),
                 ("kthread:x", 1000.0, 1.0, "soft", 1.0)]]


def interrupted(impl: type, at: float) -> tuple:
    env, engine, (path,) = build(THREE_STAGES)
    log: list[tuple] = []

    def sender() -> t.Generator:
        try:
            yield from impl.transfer(engine, path, 0, False)
        except Interrupt as exc:
            log.append((env.now, "interrupted", exc.cause))
        yield env.timeout(10.0)
        log.append((env.now, "after"))

    def interrupter(proc: t.Any) -> t.Generator:
        yield env.timeout(at)
        proc.interrupt("stop")

    proc = env.process(sender())
    env.process(interrupter(proc))
    env.run()
    busy = {name: cpu.busy_seconds()
            for name, cpu in engine.domains().items()}
    return log, busy


class TestInterrupts:
    @pytest.mark.parametrize("impl", [Walker, Reference])
    def test_interrupt_on_a_cpu_stage_bills_only_that_stage(self, impl):
        # At t=2.5 the second stage is on vm:a (2.0 to 3.0); it is billed
        # in full and the third stage never runs.
        log, busy = interrupted(impl, 2.5)
        assert log == [(2.5, "interrupted", "stop"), (12.5, "after")]
        assert busy == {"host": 1.0, "vm:a": 1.0}

    @pytest.mark.parametrize("impl", [Walker, Reference])
    def test_interrupt_in_a_wakeup_runs_no_later_stage(self, impl):
        log, busy = interrupted(impl, 1.5)
        assert log == [(1.5, "interrupted", "stop"), (11.5, "after")]
        assert busy == {"host": 1.0, "vm:a": 0.0}

    def test_walker_and_reference_agree_at_every_instant(self):
        for at in (0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 5.0):
            assert interrupted(Walker, at) == interrupted(Reference, at)

    def test_closed_transfer_stops_after_its_current_job(self):
        env, engine, (path,) = build(THREE_STAGES)
        gen = engine.transfer(path, 0)
        next(gen)  # the first job is now on host
        gen.close()
        env.run()
        assert env.now == 1.0
        assert engine.cpu("host").busy_seconds() == 1.0
        assert engine.cpu("vm:a").busy_seconds() == 0.0
        assert "kthread:x" not in engine.domains()

    @pytest.mark.parametrize("impl", [Walker, Reference])
    def test_a_later_stage_error_is_thrown_into_the_sender(self, impl):
        env, engine, (path,) = build(
            [[("host", 1000.0, 1.0, "usr", 1.0)]])
        broken = Datapath(path.stages + (PathStage("p0s0", "nowhere"),),
                          segment_payload=1500, jitter_class="clean",
                          src="a", dst="b")
        caught: list[tuple] = []

        def sender() -> t.Generator:
            try:
                yield from impl.transfer(engine, broken, 0, False)
            except Exception as exc:  # noqa: BLE001 - the test's subject
                caught.append((env.now, type(exc).__name__))

        env.process(sender())
        env.run()
        assert caught == [(2.0, "ConfigurationError")]
