"""The discrete-event environment: clock, heap, run loop.

Ordering contract: events run in ``(time, priority, seq)`` order, where
``priority`` puts urgent events (process start, interrupts, resumes on
already-processed events) before ordinary ones at the same instant and
``seq`` is a global insertion counter, so same-instant ties resolve
first-scheduled-first.  Every optimisation in the kernel must keep this
order exactly.  The places that skip a heap round trip:

* :meth:`repro.sim.CpuResource._finish` completes a job inline when
  nothing else is due at or before now: a plain job's event, or the
  datapath's stage walker (:mod:`repro.net.transfer`), which is its own
  CPU job and goes straight on to its next stage;
* the walker resumes its sending process inline after the last stage;
* :meth:`Environment.run` pops and dispatches entries in its own loop
  when no tracer is on, instead of calling :meth:`Environment.step`
  per event; the entries and their order are the same.
"""

from __future__ import annotations

import heapq
import typing as t
from itertools import count

from repro.errors import SimulationError
from repro.obs import tracer as _active_tracer
from repro.sim.events import NORMAL, URGENT, Event, Process, Timeout


class Environment:
    """Owns the simulated clock and the pending-event heap.

    Typical use::

        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert env.now == 1.0 and p.value == "done"
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = count()
        self._active_process: Process | None = None
        # Snapshot the active tracer once: the event loop pays one
        # attribute load + branch per step, not a registry lookup.
        # Install a tracer (obs.install/obs.capture) *before* building
        # the environment for it to see this run.
        self.tracer = _active_tracer()
        if self.tracer.enabled:
            self.tracer.new_run()
            self.tracer.now = self._now

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention)."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: t.Any = None) -> Timeout:
        """An event triggering *delay* time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: t.Generator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: bool = False) -> None:
        heapq.heappush(
            self._heap,
            (self._now + delay, URGENT if priority else NORMAL, next(self._seq), event),
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, _prio, _seq, event = heapq.heappop(self._heap)
        self._now = when
        tracer = self.tracer
        span = None
        if tracer.enabled:
            tracer.now = when
            span = tracer.begin(
                "sim.step",
                getattr(event, "step_name", None) or type(event).__name__,
            )
        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        if callbacks:
            for callback in callbacks:
                callback(event)
        if span is not None:
            tracer.end(span, callbacks=len(callbacks or ()))
        if not event._ok and not event._defused:
            # A failed event nobody handled: surface the error.
            raise event._value

    def run(self, until: float | Event | None = None) -> t.Any:
        """Run until the heap empties, a time is reached, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run to exhaustion; a number — run to that time;
            an :class:`Event` — run until it is processed and return its
            value, or raise its exception if it failed.
        """
        if until is None:
            self._run(float("inf"), ())
            return None

        if isinstance(until, Event):
            sentinel = until
            if sentinel.callbacks is not None:
                stopped: list[Event] = []
                sentinel.callbacks.append(stopped.append)
                self._run(float("inf"), stopped)
                if not stopped:
                    raise SimulationError(
                        "run(until=event): schedule emptied first")
            # Processed before or during this run: a failure raises
            # either way.
            if not sentinel._ok:
                raise sentinel._value
            return sentinel._value

        horizon = float(until)
        if not horizon >= self._now:
            raise SimulationError(
                f"cannot run until {horizon} which is before now={self._now}"
            )
        self._run(horizon, ())
        self._now = horizon
        if self.tracer.enabled:
            self.tracer.now = horizon
        return None

    def _run(self, horizon: float, stopped: t.Sized) -> None:
        """Process events due at or before *horizon* until *stopped*
        fills or the heap empties.

        Untraced, the loop pops and dispatches each entry itself, exactly
        as :meth:`step` would, without a call per event.
        """
        heap = self._heap
        if self.tracer.enabled:
            while heap and heap[0][0] <= horizon and not stopped:
                self.step()
            return
        pop = heapq.heappop
        while heap and heap[0][0] <= horizon and not stopped:
            when, _prio, _seq, event = pop(heap)
            self._now = when
            callbacks = event.callbacks
            event.callbacks = None  # mark processed
            if callbacks:
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event._defused:
                raise event._value
