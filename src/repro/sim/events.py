"""Waitable events and generator-based processes.

The design follows the classic SimPy model: an :class:`Event` carries a
value, a success flag and a list of callbacks; triggering an event puts
it on the environment's heap, and when the environment pops it, the
callbacks run.  A :class:`Process` is itself an event that triggers when
its generator returns, so processes can wait on each other.
"""

from __future__ import annotations

import typing as t
from heapq import heappush

from repro.errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

PENDING = object()
"""Sentinel for the value of an event that has not been triggered."""

# Heap entries are (time, priority, seq, event); priority 0 beats 1 so
# "urgent" events (process initialization, interrupts) run before
# ordinary events scheduled at the same instant.
NORMAL = 1
URGENT = 0


class Event:
    """A one-shot waitable with a value and callbacks.

    Parameters
    ----------
    env:
        The owning environment.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[t.Callable[[Event], None]] | None = []
        self._value: t.Any = PENDING
        self._ok = True
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event got a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> t.Any:
        """The event's value (or the exception if it failed)."""
        if self._value is PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: t.Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will re-raise it."""
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        self.env._schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine does not re-raise
        its exception at the top level when nobody waits on it."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` units of simulated time from now."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: t.Any = None) -> None:
        # Written so that NaN fails too: NaN compares false either way.
        if not delay >= 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # The hottest constructor in the kernel: set the slots and push
        # the heap entry here instead of via Event.__init__/_schedule.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        heappush(env._heap, (env._now + delay, NORMAL, next(env._seq), self))


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env._schedule(self, priority=True)


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupt *cause* is available as ``exc.cause``.
    """

    @property
    def cause(self) -> t.Any:
        return self.args[0] if self.args else None


class _InterruptEvent(Event):
    """Internal: delivery vehicle for :meth:`Process.interrupt`."""

    __slots__ = ("process",)

    def __init__(self, env: "Environment", process: "Process", cause: t.Any) -> None:
        super().__init__(env)
        self.process = process
        self.callbacks = [process._resume_interrupt]
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        env._schedule(self, priority=True)


class Process(Event):
    """Wraps a generator; the process event triggers when it returns.

    A process generator yields :class:`Event` instances.  When a yielded
    event succeeds, its value is sent into the generator; when it fails,
    the exception is thrown into the generator (and may be caught there).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: t.Generator) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"process expects a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        self._target: Event | None = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: t.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self._target is None:
            raise SimulationError(f"{self!r} not yet started; cannot interrupt")
        _InterruptEvent(self.env, self, cause)

    # -- engine plumbing -------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:  # finished before the interrupt was delivered
            return
        # Detach from whatever we were waiting on.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._target = None
            self._ok = True
            self._value = stop.value
            self.env._schedule(self)
            return
        except BaseException as exc:
            self._target = None
            self._ok = False
            self._value = exc
            self.env._schedule(self)
            return
        finally:
            self.env._active_process = None

        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process yielded a non-event: {next_event!r} "
                f"(from {self._generator!r})"
            )
        if next_event.env is not self.env:
            raise SimulationError("process yielded an event from another environment")
        self._target = next_event
        if next_event.callbacks is not None:
            next_event.callbacks.append(self._resume)
        else:
            # Already processed: resume immediately via a priority event.
            resume = Event(self.env)
            resume.callbacks = [self._resume]
            resume._ok = next_event._ok
            resume._value = next_event._value
            self.env._schedule(resume, priority=True)


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: t.Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._done: list[Event] = []
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("condition mixes environments")
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _results(self) -> dict[Event, t.Any]:
        return {ev: ev._value for ev in self._done}


class AllOf(_Condition):
    """Triggers when every given event has triggered.

    Its value is a dict mapping each event to its value.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done.append(event)
        if len(self._done) == len(self._events):
            self.succeed(self._results())


class AnyOf(_Condition):
    """Triggers as soon as one of the given events triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done.append(event)
        self.succeed(self._results())
