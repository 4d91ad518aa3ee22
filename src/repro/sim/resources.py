"""Shared resources: FIFO stores and cycle-accounted CPUs."""

from __future__ import annotations

import math
import numbers
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
    """One plain job on a :class:`CpuResource`; ``done`` is its event.

    While in service the job is its own heap entry: the environment pops
    it at its completion time and, through ``callbacks``, calls the
    CPU's ``_finish``.  It has just the attributes
    :meth:`Environment.step` reads from an event.  A job submitted with
    a target (the datapath's stage walker) needs no ``_Job``: the target
    has the same fields and methods and is the job itself.
    """

    __slots__ = ("callbacks", "cycles", "account", "done", "enqueued_at",
                 "started_at")

    _ok = True
    #: Traced runs label the service-completion step as the ``Timeout``
    #: it used to be, so traces keep their shape.
    step_name = "Timeout"

    def __init__(self, cycles: float, account: str, done: Event,
                 enqueued_at: float):
        self.cycles = cycles
        self.account = account
        self.done = done
        self.enqueued_at = enqueued_at
        self.started_at: float | None = None

    def push_cpu_done(self) -> None:
        """Complete ``done`` through the heap."""
        self.done.succeed()

    def cpu_done(self) -> None:
        """Complete ``done`` now: run its callbacks without a heap round
        trip."""
        done = self.done
        if done._value is not PENDING:
            # Triggered by hand: ``succeed`` raises, as a push would.
            done.succeed()
        done._value = None
        callbacks = done.callbacks
        done.callbacks = None
        for callback in callbacks:
            callback(done)


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
        # An integral count (``True`` is not one); a fractional or NaN
        # count would leave ``_idle`` never reaching zero or never
        # admitting a job.
        if (isinstance(cores, bool) or not isinstance(cores, numbers.Integral)
                or cores < 1):
            raise SimulationError(f"cores must be an integer >= 1: {cores!r}")
        # Written so that NaN fails too: NaN compares false either way.
        if not 0 < freq_hz < math.inf:
            raise SimulationError(
                f"freq_hz must be positive and finite: {freq_hz!r}")
        self.env = env
        self.cores = int(cores)
        self.freq_hz = float(freq_hz)
        self.name = name
        self._idle = self.cores
        self._queue: deque[t.Any] = deque()
        self._busy: dict[str, float] = {}
        self._window_start = env.now
        self._jobs_done = 0
        self._wait_total = 0.0
        self._finish_callbacks = (self._finish,)

    # -- job submission -------------------------------------------------
    def execute(self, cycles: float, account: str = "usr",
                _target: t.Any = None) -> Event:
        """Submit a job of *cycles*; the event succeeds when it finishes.

        *_target* is internal: the datapath's stage walker, which is
        returned instead of an event and is its own job: it carries the
        job's ``cycles``, ``account``, ``enqueued_at`` and ``started_at``,
        sits in the queue and on the heap itself, and ``_finish``
        completes it through the ``cpu_done``/``push_cpu_done`` pair that
        a plain job has too.
        """
        # Written so that NaN fails too: NaN compares false either way.
        if not cycles >= 0:
            raise SimulationError(f"negative cycles: {cycles!r}")
        env = self.env
        now = env._now
        if _target is None:
            done = Event(env)
            job = _Job(float(cycles), account, done, now)
        else:
            done = job = _target
            job.cycles = float(cycles)
            job.account = account
            job.enqueued_at = now
        if self._idle > 0:
            self._idle -= 1
            job.started_at = now
            job.callbacks = self._finish_callbacks
            heappush(env._heap, (now + job.cycles / self.freq_hz, NORMAL,
                                 next(env._seq), job))
        else:
            self._queue.append(job)
        return done

    def seconds_for(self, cycles: float) -> float:
        """Service time of *cycles* on one core."""
        return cycles / self.freq_hz

    # -- internals --------------------------------------------------------
    def _finish(self, job: t.Any) -> None:
        env = self.env
        now = env._now
        started_at = job.started_at
        account = job.account
        self._busy[account] = self._busy.get(account, 0.0) + (now - started_at)
        self._jobs_done += 1
        self._wait_total += started_at - job.enqueued_at
        heap = env._heap
        if self._queue:
            # The freed core goes straight to the oldest waiting job.
            queued = self._queue.popleft()
            queued.started_at = now
            queued.callbacks = self._finish_callbacks
            heappush(heap, (now + queued.cycles / self.freq_hz, NORMAL,
                            next(env._seq), queued))
        else:
            self._idle += 1
        # The completion runs inline when nothing else is due at or
        # before now: pushed, it would be the very next event popped, so
        # running it here instead of pushing it and popping it straight
        # back leaves the (time, priority, seq) order of everything else
        # unchanged.  Traced runs keep the push so that their sim.step
        # spans stay the same.  One rule for a plain job and a walker.
        if (heap and heap[0][0] <= now) or env.tracer.enabled:
            job.push_cpu_done()
        else:
            job.cpu_done()

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
