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
    span = None
    try:
        for stage, domain, label, account, cycles, wakeup in plan:
            if traced:
                span = tracer.begin(
                    "datapath.stage", stage, parent=parent,
                    domain=domain, account=account, cycles=cycles,
                    label=label,
                )
                queue_depth.set(engine.cpu(domain).queue_depth,
                                domain=domain)
            started = env._now
            if cycles > 0.0:
                yield engine.cpu(domain).execute(cycles, account)
            cpu_done = env._now
            if wakeup > 0.0:
                yield Timeout(env, wakeup)
            if timings is not None:
                timings.append(StageTiming(
                    stage, domain, label, started, cpu_done, env._now,
                    cycles))
            if span is not None:
                tracer.end(span)
    except BaseException:
        # Interrupted, closed or a stage's error: the open spans end now.
        tracer.end(span)
        tracer.end(parent)
        raise
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

    @pytest.mark.parametrize("impl", [Walker, Reference])
    def test_every_span_ends_at_the_interrupt(self, impl):
        for at in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5, 5.0, 5.5):
            with obs.capture() as (tracer, _):
                interrupted(impl, at)
            assert all(span.end is not None for span in tracer.spans)
            # The transfer's span and its stage in progress end then.
            ends = [span.end for span in tracer.spans
                    if span.category.startswith("datapath.")]
            assert len(ends) >= 2 and max(ends) == at

    def test_a_closed_traced_transfer_ends_its_spans(self):
        with obs.capture() as (tracer, _):
            env, engine, (path,) = build(THREE_STAGES)
            gen = engine.transfer(path, 0)
            next(gen)
            gen.close()
            env.run()
        assert [(s.category, s.end) for s in tracer.spans
                if s.category.startswith("datapath.")] == [
            ("datapath.transfer", 0.0), ("datapath.stage", 0.0)]

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
        assert stage_error(impl) == [(2.0, "ConfigurationError")]

    @pytest.mark.parametrize("impl", [Walker, Reference])
    def test_a_stage_error_ends_every_span(self, impl):
        with obs.capture() as (tracer, _):
            stage_error(impl)
        assert [(s.category, s.end) for s in tracer.spans
                if s.category.startswith("datapath.")] == [
            ("datapath.transfer", 2.0), ("datapath.stage", 2.0),
            ("datapath.stage", 2.0)]


def stage_error(impl: type) -> list[tuple]:
    """A one-stage path followed by a stage on an unknown domain."""
    env, engine, (path,) = build([[("host", 1000.0, 1.0, "usr", 1.0)]])
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
    return caught


# -- mixed queues: plain jobs and walkers in one FIFO -------------------------

#: A 2 s blocker on the single-core kthread:x, and a two-stage path whose
#: first stage queues behind it there.
MIXED = [[("kthread:x", 2000.0, 0.0, "usr", 1.0)],
         [("kthread:x", 1000.0, 0.0, "sys", 1.0),
          ("vm:a", 1000.0, 1.0, "soft", 1.0)]]


def mixed_queue(impl: type, interrupt_at: float | None) -> tuple:
    """Plain ``execute`` jobs and a walker interleaved in one queue.

    At t=0 kthread:x runs the blocker and queues a plain job, the
    second path's first stage and another plain job, in that order.
    With *interrupt_at* the sender of that stage is interrupted then.
    """
    env, engine, (blocker, path) = build(MIXED)
    log: list[tuple] = []
    queued: list[list[str]] = []

    def plain(tag: str) -> t.Generator:
        yield engine.cpu("kthread:x").execute(500.0, "usr")
        log.append((env.now, tag))

    def sender() -> t.Generator:
        try:
            yield from impl.transfer(engine, path, 0, False)
            log.append((env.now, "delivered"))
        except Interrupt as exc:
            log.append((env.now, "interrupted", exc.cause))

    def interrupter(proc: t.Any) -> t.Generator:
        yield env.timeout(interrupt_at)
        queued.append([type(job).__name__
                       for job in engine.cpu("kthread:x")._queue])
        proc.interrupt("stop")

    env.process(impl.transfer(engine, blocker, 0, False))
    env.process(plain("first"))
    victim = env.process(sender())
    env.process(plain("last"))
    if interrupt_at is not None:
        env.process(interrupter(victim))
    env.run()
    cpus = {name: (cpu.breakdown(), cpu.mean_wait(), cpu.busy_cores,
                   cpu.queue_depth)
            for name, cpu in engine.domains().items()}
    return log, env.now, cpus, queued


def mixed_queue_traced(impl: type, interrupt_at: float | None) -> tuple:
    with obs.capture() as (tracer, metrics):
        result = mixed_queue(impl, interrupt_at)
    # An abandoned walker's pushed completion still holds its own
    # continuation (which returns at once), where the reference's
    # orphaned event has no callback: the one ``callbacks`` count that
    # differs.  Everything else, step names included, must match.
    spans = [(s.sid, s.parent, s.category, s.name, s.start, s.end,
              {} if s.category == "sim.step" else s.attrs)
             for s in tracer.spans]
    return result[:3], spans, metrics.snapshot()


class TestMixedQueues:
    def test_walker_and_plain_jobs_share_one_fifo(self):
        log, now, cpus, queued = mixed_queue(Walker, 1.0)
        # The walker is the job itself, between the two plain jobs.
        assert queued == [["_Job", "_StageWalker", "_Job"]]
        assert mixed_queue(Reference, 1.0)[3] == [["_Job", "_Job", "_Job"]]
        assert log == [(1.0, "interrupted", "stop"), (2.5, "first"),
                       (4.0, "last")]
        assert now == 4.0

    def test_interrupted_while_queued_is_billed_and_goes_no_further(self):
        log, now, cpus, _ = mixed_queue(Walker, 1.0)
        # The queued stage still runs (2.5 to 3.5) and is billed; the
        # vm:a stage never starts.
        assert cpus["kthread:x"][0] == {"usr": 3.0, "sys": 1.0}
        assert cpus["vm:a"][0] == {}
        assert all(busy == 0 and depth == 0
                   for _, _, busy, depth in cpus.values())

    @pytest.mark.parametrize("interrupt_at", [None, 0.0, 1.0, 2.0, 2.5, 3.0,
                                              3.5, 4.0, 4.5, 5.0])
    def test_matches_the_reference_untraced(self, interrupt_at):
        walker = mixed_queue(Walker, interrupt_at)
        reference = mixed_queue(Reference, interrupt_at)
        assert walker[:3] == reference[:3]

    @pytest.mark.parametrize("interrupt_at", [None, 1.0, 2.5, 4.0])
    def test_matches_the_reference_traced(self, interrupt_at):
        assert (mixed_queue_traced(Walker, interrupt_at)
                == mixed_queue_traced(Reference, interrupt_at))

    def test_delivered_without_an_interrupt(self):
        log, now, cpus, _ = mixed_queue(Walker, None)
        # kthread:x 2.5 to 3.5, then vm:a 3.5 to 4.5 and a 1 s wakeup.
        assert log == [(2.5, "first"), (4.0, "last"), (5.5, "delivered")]
        assert cpus["vm:a"][0] == {"soft": 1.0}


def count_steps(impl: type, program: tuple) -> tuple[int, list[str]]:
    """Drive *program*'s senders through ``Environment.step`` alone, as
    a step-counting benchmark does; returns the step count and, from a
    traced run, the ``sim.step`` names."""
    paths, procs, _ = program

    def once() -> int:
        env, engine, datapaths = build(paths)
        for start, sends in procs:
            def body(start=start, sends=sends) -> t.Generator:
                yield env.timeout(start)
                for _, p, stream in sends:
                    yield from impl.transfer(engine, datapaths[p], 0, stream)
            env.process(body())
        steps = 0
        while env._heap:
            env.step()
            steps += 1
        return steps

    steps = once()
    with obs.capture() as (tracer, _):
        once()
    return steps, [s.name for s in tracer.spans if s.category == "sim.step"]


class TestHeapEntries:
    """Completions run inline exactly when nothing else is due, so an
    untraced run has one heap entry per CPU stage and wakeup; traced runs
    push every completion and keep the reference's step names."""

    #: One sender, three stages of CPU then a wakeup: the initialize,
    #: start timeout and process end, plus one job and one wakeup per
    #: stage.
    ALONE = (THREE_STAGES, [(0.0, [("send", 0, False)])], 0.0)
    #: Two senders whose stages finish together on 2-core domains: each
    #: completion has company (the other job, then the other's pushed
    #: completion), so all four are pushed.
    TOGETHER = ([[("host", 1000.0, 0.0, "usr", 1.0),
                  ("vm:a", 1000.0, 1.0, "sys", 1.0)]],
                [(0.0, [("send", 0, False)]), (0.0, [("send", 0, False)])],
                0.0)

    def test_a_lone_message_pushes_no_completion(self):
        steps, names = count_steps(Walker, self.ALONE)
        assert steps == 3 + 3 * 2
        assert names == ["Initialize", "Timeout", "Timeout", "Event",
                         "Timeout", "Timeout", "Event", "Timeout", "Timeout",
                         "Event", "Timeout", "Process"]

    def test_a_same_instant_completion_is_pushed(self):
        steps, names = count_steps(Walker, self.TOGETHER)
        # Per sender: initialize, start timeout, process end, two jobs,
        # one wakeup; plus the four pushed completions.
        assert steps == 2 * 6 + 4
        assert names == count_steps(Reference, self.TOGETHER)[1]

    def test_traced_step_names_match_the_reference(self):
        assert (count_steps(Walker, self.ALONE)[1]
                == count_steps(Reference, self.ALONE)[1])
