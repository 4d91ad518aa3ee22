"""Shared resources: FIFO stores and cycle-accounted CPUs."""

from __future__ import annotations

import typing as t
from collections import deque
from heapq import heappush

from repro.errors import SimulationError
from repro.sim.engine import Environment
from repro.sim.events import NORMAL, PENDING, Event


class Store:
    """An unbounded-or-bounded FIFO queue connecting processes.

    ``put`` returns an event that succeeds when the item is accepted;
    ``get`` returns an event that succeeds with the next item.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        # Written so that NaN fails too: NaN compares false either way.
        if not capacity > 0:
            raise SimulationError(f"store capacity must be positive: {capacity!r}")
        self.env = env
        self.capacity = capacity
        self._items: deque[t.Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, t.Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[t.Any, ...]:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: t.Any) -> Event:
        """Queue *item*; the returned event succeeds once it is stored."""
        event = Event(self.env)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed()
        elif len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """The returned event succeeds with the oldest available item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
            if self._putters:
                put_event, item = self._putters.popleft()
                self._items.append(item)
                put_event.succeed()
        elif self._putters:
            # Zero-capacity style rendezvous (capacity reached with no items
            # can only happen when capacity == queued putters’ backlog).
            put_event, item = self._putters.popleft()
            put_event.succeed()
            event.succeed(item)
        else:
            self._getters.append(event)
        return event


class _Job:
    """One job on a :class:`CpuResource`.

    While in service the job is its own heap entry: the environment pops
    it at its completion time and, through ``callbacks``, calls the
    CPU's ``_finish``.  It has just the attributes
    :meth:`Environment.step` reads from an event.
    """

    __slots__ = ("callbacks", "cycles", "account", "done", "enqueued_at",
                 "started_at")

    _ok = True
    #: Traced runs label the service-completion step as the ``Timeout``
    #: it used to be, so traces keep their shape.
    step_name = "Timeout"

    def __init__(self, cycles: float, account: str, done: t.Any,
                 enqueued_at: float):
        self.cycles = cycles
        self.account = account
        self.done = done
        self.enqueued_at = enqueued_at
        self.started_at: float | None = None


class CpuResource:
    """A pool of identical cores serving cycle-denominated jobs FIFO.

    This is where all CPU-time accounting happens.  Each job carries an
    *account* label (e.g. ``"usr"``, ``"sys"``, ``"soft"``, ``"guest"``
    or a composite like ``"vm1/sys"``); on completion the busy seconds
    are credited to that account.  The experiments read the resulting
    breakdowns to reproduce the paper's CPU figures.

    Parameters
    ----------
    env: simulation environment.
    cores: number of identical cores.
    freq_hz: core frequency; cycles are converted to seconds with it.
    name: diagnostic label.
    """

    def __init__(
        self,
        env: Environment,
        cores: int = 1,
        freq_hz: float = 2.2e9,
        name: str = "cpu",
    ) -> None:
        if cores < 1:
            raise SimulationError(f"cores must be >= 1: {cores!r}")
        if freq_hz <= 0:
            raise SimulationError(f"freq_hz must be positive: {freq_hz!r}")
        self.env = env
        self.cores = cores
        self.freq_hz = float(freq_hz)
        self.name = name
        self._idle = cores
        self._queue: deque[_Job] = deque()
        self._busy: dict[str, float] = {}
        self._window_start = env.now
        self._jobs_done = 0
        self._wait_total = 0.0
        self._finish_callbacks = (self._finish,)

    # -- job submission -------------------------------------------------
    def execute(self, cycles: float, account: str = "usr",
                _target: t.Any = None) -> Event:
        """Submit a job of *cycles*; the event succeeds when it finishes.

        *_target* is internal: an object that stands in for the event
        (the datapath's stage walker) and is returned instead.  It gets
        the same completion as an event: ``succeed()`` when ``_finish``
        must go through the heap, its ``callbacks`` run inline otherwise.
        """
        # Written so that NaN fails too: NaN compares false either way.
        if not cycles >= 0:
            raise SimulationError(f"negative cycles: {cycles!r}")
        env = self.env
        done = Event(env) if _target is None else _target
        job = _Job(float(cycles), account, done, env._now)
        if self._idle > 0:
            self._start(job)
        else:
            self._queue.append(job)
        return done

    def seconds_for(self, cycles: float) -> float:
        """Service time of *cycles* on one core."""
        return cycles / self.freq_hz

    # -- internals --------------------------------------------------------
    def _start(self, job: _Job) -> None:
        self._idle -= 1
        env = self.env
        now = env._now
        job.started_at = now
        job.callbacks = self._finish_callbacks
        heappush(env._heap,
                 (now + job.cycles / self.freq_hz, NORMAL, next(env._seq), job))

    def _finish(self, job: _Job) -> None:
        assert job.started_at is not None
        env = self.env
        now = env._now
        duration = now - job.started_at
        self._busy[job.account] = self._busy.get(job.account, 0.0) + duration
        self._jobs_done += 1
        self._wait_total += job.started_at - job.enqueued_at
        self._idle += 1
        if self._queue:
            self._start(self._queue.popleft())
        done = job.done
        heap = env._heap
        if ((heap and heap[0][0] <= now) or env.tracer.enabled
                or done._value is not PENDING):
            done.succeed()
            return
        # Nothing else is due at or before now, so ``done`` would be the
        # very next event popped: run its callbacks here instead of
        # pushing it and popping it straight back.  The (time, priority,
        # seq) order of everything else is unchanged.  Traced runs keep
        # the push so that their sim.step spans stay the same.  The same
        # rule serves an event and an ``execute`` target.
        done._value = None
        callbacks = done.callbacks
        done.callbacks = None
        for callback in callbacks:
            callback(done)

    # -- accounting -------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs waiting (excludes jobs in service)."""
        return len(self._queue)

    @property
    def busy_cores(self) -> int:
        return self.cores - self._idle

    def reset_accounting(self) -> None:
        """Zero the busy counters and restart the measurement window."""
        self._busy.clear()
        self._window_start = self.env.now
        self._jobs_done = 0
        self._wait_total = 0.0

    def busy_seconds(self, account: str | None = None) -> float:
        """Busy seconds, total or for one account, since the last reset."""
        if account is None:
            return sum(self._busy.values())
        return self._busy.get(account, 0.0)

    def breakdown(self) -> dict[str, float]:
        """Copy of busy seconds per account since the last reset."""
        return dict(self._busy)

    def utilization(self, account: str | None = None) -> float:
        """Fraction of total core-time busy since the last reset."""
        elapsed = self.env.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self.busy_seconds(account) / (elapsed * self.cores)

    def mean_wait(self) -> float:
        """Average queueing delay of completed jobs since the last reset."""
        if self._jobs_done == 0:
            return 0.0
        return self._wait_total / self._jobs_done

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<CpuResource {self.name!r} cores={self.cores} "
            f"busy={self.busy_cores} queued={len(self._queue)}>"
        )
