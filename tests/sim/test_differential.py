"""Differential oracle: the kernel against a reference copy of its
earlier, straightforward implementation.

The reference below (``_RefEnvironment`` and friends) is the kernel as
it was before CPU jobs became their own heap entries and before
``CpuResource._finish`` learned to run its completion callbacks inline.
It pushes every completion through the heap, so it *defines* the
``(time, priority, seq)`` order the fast path must reproduce exactly.

Random programs of several processes run on both.  Each process
executes cycles on small ``CpuResource`` pools, waits on timeouts,
submits jobs in parallel and joins earlier processes with ``AllOf``.
Cycles and delays sit on a coarse grid (including zero), so
same-instant ties — the cases where an ordering slip would show — are
the common case rather than the exception.
"""

from __future__ import annotations

import heapq
import typing as t
from collections import deque
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.sim import AllOf, CpuResource, Environment

# -- reference kernel ------------------------------------------------------

_PENDING = object()


class _RefEvent:
    def __init__(self, env: "_RefEnvironment") -> None:
        self.env = env
        self.callbacks: list | None = []
        self._value: t.Any = _PENDING
        self._ok = True
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    def succeed(self, value: t.Any = None) -> "_RefEvent":
        assert not self.triggered
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self


class _RefTimeout(_RefEvent):
    def __init__(self, env: "_RefEnvironment", delay: float,
                 value: t.Any = None) -> None:
        assert delay >= 0
        super().__init__(env)
        self._value = value
        env._schedule(self, delay=delay)


class _RefInitialize(_RefEvent):
    def __init__(self, env: "_RefEnvironment", process: "_RefProcess") -> None:
        super().__init__(env)
        self.callbacks = [process._resume]
        self._value = None
        env._schedule(self, priority=True)


class _RefProcess(_RefEvent):
    def __init__(self, env: "_RefEnvironment", generator: t.Generator) -> None:
        super().__init__(env)
        self._generator = generator
        _RefInitialize(env, self)

    def _resume(self, event: _RefEvent) -> None:
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            self.env._schedule(self)
            return
        if next_event.callbacks is not None:
            next_event.callbacks.append(self._resume)
        else:
            resume = _RefEvent(self.env)
            resume.callbacks = [self._resume]
            resume._ok = next_event._ok
            resume._value = next_event._value
            self.env._schedule(resume, priority=True)


class _RefAllOf(_RefEvent):
    def __init__(self, env: "_RefEnvironment", events: t.Iterable) -> None:
        super().__init__(env)
        self._events = list(events)
        self._done: list = []
        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: _RefEvent) -> None:
        if self.triggered:
            return
        self._done.append(event)
        if len(self._done) == len(self._events):
            self.succeed({ev: ev._value for ev in self._done})


class _RefEnvironment:
    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list = []
        self._seq = count()

    def timeout(self, delay: float, value: t.Any = None) -> _RefTimeout:
        return _RefTimeout(self, delay, value)

    def process(self, generator: t.Generator) -> _RefProcess:
        return _RefProcess(self, generator)

    def _schedule(self, event: _RefEvent, delay: float = 0.0,
                  priority: bool = False) -> None:
        heapq.heappush(self._heap, (self.now + delay, 0 if priority else 1,
                                    next(self._seq), event))

    def run(self) -> None:
        while self._heap:
            when, _prio, _seq, event = heapq.heappop(self._heap)
            self.now = when
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks or ():
                callback(event)


class _RefJob:
    def __init__(self, cycles: float, account: str, done: _RefEvent,
                 enqueued_at: float) -> None:
        self.cycles = cycles
        self.account = account
        self.done = done
        self.enqueued_at = enqueued_at
        self.started_at: float | None = None


class _RefCpu:
    def __init__(self, env: _RefEnvironment, cores: int, freq_hz: float,
                 name: str) -> None:
        self.env = env
        self.cores = cores
        self.freq_hz = float(freq_hz)
        self._idle = cores
        self._queue: deque = deque()
        self._busy: dict[str, float] = {}
        self._jobs_done = 0
        self._wait_total = 0.0

    def execute(self, cycles: float, account: str = "usr") -> _RefEvent:
        done = _RefEvent(self.env)
        job = _RefJob(float(cycles), account, done, self.env.now)
        if self._idle > 0:
            self._start(job)
        else:
            self._queue.append(job)
        return done

    def _start(self, job: _RefJob) -> None:
        self._idle -= 1
        job.started_at = self.env.now
        timeout = self.env.timeout(job.cycles / self.freq_hz)
        timeout.callbacks.append(lambda _ev, job=job: self._finish(job))

    def _finish(self, job: _RefJob) -> None:
        duration = self.env.now - job.started_at
        self._busy[job.account] = self._busy.get(job.account, 0.0) + duration
        self._jobs_done += 1
        self._wait_total += job.started_at - job.enqueued_at
        self._idle += 1
        if self._queue:
            self._start(self._queue.popleft())
        job.done.succeed()

    def breakdown(self) -> dict[str, float]:
        return dict(self._busy)

    def mean_wait(self) -> float:
        if self._jobs_done == 0:
            return 0.0
        return self._wait_total / self._jobs_done


# -- random programs -------------------------------------------------------

FREQ_HZ = 1000.0
_cycles = st.sampled_from([0.0, 1000.0, 2000.0, 3000.0])
_delay = st.sampled_from([0.0, 1.0, 2.0])
_account = st.sampled_from(["usr", "sys", "soft"])

_op = st.one_of(
    st.tuples(st.just("cpu"), st.integers(0, 2), _cycles, _account),
    st.tuples(st.just("wait"), _delay),
    st.tuples(st.just("fanout"),
              st.lists(st.tuples(st.integers(0, 2), _cycles, _account),
                       min_size=1, max_size=3)),
    st.tuples(st.just("join"), st.integers(1, 3)),
)

programs = st.tuples(
    st.lists(st.integers(1, 2), min_size=3, max_size=3),  # cores per CPU
    st.lists(st.tuples(_delay, st.lists(_op, min_size=1, max_size=8)),
             min_size=2, max_size=6),
)


def play(program: tuple, env: t.Any, cpus: list, all_of: t.Callable
         ) -> list[tuple]:
    """Run *program* on *env*; returns the resume log."""
    _cores, procs = program
    log: list[tuple] = []
    started: list = []

    def body(pid: int, start: float, ops: list) -> t.Generator:
        yield env.timeout(start, value=("start", pid))
        log.append((env.now, pid, "start"))
        for step, op in enumerate(ops):
            kind = op[0]
            if kind == "cpu":
                _, cpu, cycles, account = op
                value = yield cpus[cpu].execute(cycles, account)
            elif kind == "wait":
                value = yield env.timeout(op[1], value=(pid, step))
            elif kind == "fanout":
                value = yield all_of(env, [cpus[c].execute(cycles, account)
                                           for c, cycles, account in op[1]])
                value = list(value.values())
            else:
                # Join only earlier processes, so no program deadlocks.
                earlier = started[max(0, pid - op[1]):pid]
                if not earlier:
                    continue
                value = yield all_of(env, earlier)
                value = list(value.values())
            log.append((env.now, pid, kind, value))
        return ("done", pid)

    for pid, (start, ops) in enumerate(procs):
        started.append(env.process(body(pid, start, ops)))
    env.run()
    log.append(("end", env.now, [p._value for p in started]))
    return log


def run_kernel(program: tuple) -> tuple:
    env = Environment()
    cpus = [CpuResource(env, cores=c, freq_hz=FREQ_HZ, name=f"c{i}")
            for i, c in enumerate(program[0])]
    log = play(program, env, cpus, AllOf)
    return log, [(c.breakdown(), c.mean_wait()) for c in cpus]


def run_reference(program: tuple) -> tuple:
    env = _RefEnvironment()
    cpus = [_RefCpu(env, cores=c, freq_hz=FREQ_HZ, name=f"c{i}")
            for i, c in enumerate(program[0])]
    log = play(program, env, cpus, _RefAllOf)
    return log, [(c.breakdown(), c.mean_wait()) for c in cpus]


class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(programs)
    def test_same_resume_order_and_accounting(self, program):
        assert run_kernel(program) == run_reference(program)

    @settings(max_examples=50, deadline=None)
    @given(programs)
    def test_traced_run_matches_too(self, program):
        with obs.capture():
            traced = run_kernel(program)
        assert traced == run_reference(program)

    def test_same_instant_completions_keep_their_order(self):
        # Two jobs end together on a 2-core CPU with a timeout due
        # between them in seq order: the first job's waiter must not
        # run before that timeout's.
        program = ([2, 1, 1], [
            (0.0, [("cpu", 0, 1000.0, "usr"), ("wait", 0.0)]),
            (0.0, [("wait", 1.0)]),
            (0.0, [("cpu", 0, 1000.0, "sys")]),
        ])
        assert run_kernel(program) == run_reference(program)
