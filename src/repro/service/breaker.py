"""Per-shard circuit breakers: stop feeding a shard that keeps dying.

The classic three-state machine, sized for one shard's executor:

* **closed** — healthy; jobs flow.  Worker crashes and timeouts
  (:class:`~repro.errors.JobFailedError` with ``reason`` ``"crash"`` or
  ``"timeout"``, the *environmental* failures — a job's own
  deterministic ``"exception"`` never counts) add to
  a consecutive-failure streak; at
  :attr:`BreakerConfig.failure_threshold` the breaker trips.
* **open** — the shard is presumed sick.  The shard loop stops
  dispatching (jobs wait in the queue, admission sheds *new* work
  routed here with ``reason="breaker"``), and the cooldown clock runs.
* **half-open** — the cooldown elapsed; exactly one queued job is let
  through as a probe.  Success closes the breaker; another
  environmental failure re-opens it and restarts the cooldown.

The breaker deliberately consumes the same failure vocabulary the
retry policy and the ``service.shard_alive``/``service.exactly_once``
health invariants already speak: a requeue-worthy crash is also
breaker input, so a shard whose worker crash-loops converges to
half-open probing instead of burning its whole queue, and
``/healthz`` reports the breaker state alongside the invariants.

Time is injected (``clock=``) so tests and the harness lanes drive the
cooldown deterministically.
"""

from __future__ import annotations

import dataclasses
import time
import typing as t

from repro.errors import ConfigurationError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclasses.dataclass(frozen=True)
class BreakerConfig:
    """Trip/probe policy for one shard's breaker."""

    #: Consecutive environmental failures (crash/timeout) that trip.
    failure_threshold: int = 3
    #: Seconds an open breaker waits before allowing a probe.
    cooldown_s: float = 5.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if self.cooldown_s <= 0:
            raise ConfigurationError("cooldown_s must be positive")


class CircuitBreaker:
    """One shard's health gate; all calls from the service loop."""

    def __init__(self, config: BreakerConfig | None = None, *,
                 name: str = "shard",
                 clock: t.Callable[[], float] = time.monotonic,
                 on_transition: t.Callable[[str, str], None] | None = None,
                 ) -> None:
        self.config = config or BreakerConfig()
        self.name = name
        self.clock = clock
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.probe_in_flight = False
        self.transitions: list[tuple[str, str]] = []
        self._on_transition = on_transition

    def _become(self, state: str) -> None:
        if state == self.state:
            return
        previous, self.state = self.state, state
        self.transitions.append((previous, state))
        if self._on_transition is not None:
            self._on_transition(previous, state)

    # -- dispatch gate ------------------------------------------------

    def allow(self) -> bool:
        """May the shard loop dispatch a job right now?

        Open breakers flip to half-open when the cooldown elapses and
        admit exactly one probe; further calls say no until the probe
        resolves via :meth:`record_success`/:meth:`record_failure`.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self.cooldown_remaining() > 0:
                return False
            self._become(HALF_OPEN)
            self.probe_in_flight = False
        if self.probe_in_flight:
            return False
        self.probe_in_flight = True
        return True

    def cooldown_remaining(self) -> float:
        if self.state != OPEN or self.opened_at is None:
            return 0.0
        return max(
            0.0, self.config.cooldown_s - (self.clock() - self.opened_at)
        )

    @property
    def shedding(self) -> bool:
        """Should admission refuse *new* work routed to this shard?
        Only while fully open and still cooling — a half-open shard is
        accepting probes and will drain its queue if they succeed."""
        return self.state == OPEN and self.cooldown_remaining() > 0

    # -- outcome feedback ---------------------------------------------

    def record_failure(self) -> bool:
        """One environmental failure (crash/timeout); True if tripped."""
        self.probe_in_flight = False
        if self.state == HALF_OPEN:
            # The probe died: straight back to open, fresh cooldown.
            self.opened_at = self.clock()
            self.consecutive_failures += 1
            self._become(OPEN)
            return True
        self.consecutive_failures += 1
        if (self.state == CLOSED and self.consecutive_failures
                >= self.config.failure_threshold):
            self.opened_at = self.clock()
            self._become(OPEN)
            return True
        return False

    def release_probe(self) -> None:
        """The dispatch slot :meth:`allow` granted was never used (the
        dequeued job turned out cancelled before launch): hand the
        probe back so the next queued job can take it, reading nothing
        into the shard's health either way."""
        self.probe_in_flight = False

    def record_success(self) -> None:
        """A job ran to a verdict on a live worker; the shard is fine."""
        self.probe_in_flight = False
        self.consecutive_failures = 0
        self.opened_at = None
        self._become(CLOSED)

    # -- reporting ----------------------------------------------------

    def describe(self) -> dict[str, t.Any]:
        return {
            "name": self.name,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "cooldown_remaining_s": round(self.cooldown_remaining(), 3),
            "trips": sum(1 for _old, new in self.transitions
                         if new == OPEN),
        }
