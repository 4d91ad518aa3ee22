"""Rolling-window SLOs with multi-window burn-rate alerts.

The service's health checks (:mod:`repro.service.health`) are hard
invariants: any violation is a bug.  SLOs are the *soft* contract —
"99 % of jobs complete, 95 % complete within the latency target" —
and the operationally honest way to alert on one is the burn rate:

    burn = observed error rate / error budget   (budget = 1 − target)

A burn of 1.0 spends the budget exactly on schedule; 2.0 exhausts it
in half the window.  Alerting on a single window is a trap — a short
window pages on blips, a long one pages an hour late — so the tracker
follows the multi-window rule: the alert fires only when the burn
exceeds the threshold over **both** a short and a long rolling window
(the short window proves the problem is still happening, the long one
proves it is material), and only once the short window holds at least
``min_samples`` events so a single failed job on an idle service can
never page.

Two objectives are tracked per service:

* ``availability`` — a job that reaches ``done`` is good; ``failed``
  jobs and load-shed submissions (breaker open) are bad.  Cancelled
  jobs are client choices and count for neither side.
* ``latency`` — among completed jobs, done within
  ``latency_target_s`` is good.

:class:`SloTracker` is deliberately service-agnostic (events in,
verdicts out, injectable clock) so the unit tests drive it with a fake
clock and the service experiment's fault lane can use sub-second
windows to watch an alert fire *and clear* inside one test run.
"""

from __future__ import annotations

import bisect
import dataclasses
import time
import typing as t

from repro.errors import ConfigurationError

AVAILABILITY = "availability"
LATENCY = "latency"

OBJECTIVES = (AVAILABILITY, LATENCY)

#: The gauge/alert window labels, in (name, config attr) order.
WINDOWS = ("short", "long")


@dataclasses.dataclass(frozen=True)
class SloConfig:
    """Targets, windows, and the alerting rule's knobs."""

    #: Fraction of jobs that must complete successfully.
    availability_target: float = 0.99
    #: Fraction of completed jobs that must finish within the latency
    #: target.
    latency_target: float = 0.95
    #: The latency objective's per-job budget in wall seconds.
    latency_target_s: float = 60.0
    #: Rolling windows the burn rate is measured over.
    short_window_s: float = 300.0
    long_window_s: float = 3600.0
    #: Burn-rate multiple that constitutes an alert (in both windows).
    burn_threshold: float = 2.0
    #: Events required in the short window before alerting is allowed.
    min_samples: int = 10

    def __post_init__(self) -> None:
        for name in ("availability_target", "latency_target"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigurationError(
                    f"{name} must be in (0, 1): {value!r}")
        if self.latency_target_s <= 0:
            raise ConfigurationError("latency_target_s must be positive")
        if not 0 < self.short_window_s <= self.long_window_s:
            raise ConfigurationError(
                f"windows must satisfy 0 < short <= long: "
                f"{self.short_window_s!r} / {self.long_window_s!r}")
        if self.burn_threshold <= 0:
            raise ConfigurationError("burn_threshold must be positive")
        if self.min_samples < 1:
            raise ConfigurationError("min_samples must be >= 1")

    def window_s(self, window: str) -> float:
        if window == "short":
            return self.short_window_s
        if window == "long":
            return self.long_window_s
        raise ConfigurationError(f"unknown window {window!r}")

    def target(self, objective: str) -> float:
        if objective == AVAILABILITY:
            return self.availability_target
        if objective == LATENCY:
            return self.latency_target
        raise ConfigurationError(f"unknown objective {objective!r}")


#: Running totals through one event: (events, bad) for each objective,
#: flattened in ``OBJECTIVES`` order.
_Totals = tuple[int, int, int, int]
_ZERO: _Totals = (0, 0, 0, 0)


class SloTracker:
    """Record job outcomes; answer burn rates and alert verdicts.

    Each event stores its time and the running totals through it, so a
    window's ``(events, bad)`` is one ``bisect`` on the times and a
    subtraction of two totals: the cost of a verdict does not grow with
    the number of events the window holds.  The clock must never run
    backwards (``time.monotonic`` does not), or the times stop being
    sorted.
    """

    def __init__(self, config: SloConfig | None = None,
                 *, clock: t.Callable[[], float] = time.monotonic) -> None:
        self.config = config or SloConfig()
        self._clock = clock
        self._times: list[float] = []
        self._totals: list[_Totals] = []
        #: Totals through the last event compaction dropped.
        self._base: _Totals = _ZERO
        #: Events before this index are older than the long window.
        self._head = 0
        #: Total events ever recorded (the windows forget; this doesn't).
        self.recorded = 0

    # -- recording ----------------------------------------------------

    def record_completion(self, *, ok: bool,
                          latency_s: float | None = None) -> None:
        """One terminal job: *ok* is the availability verdict; the
        latency verdict applies only to successful completions that
        report a latency."""
        latency_ok: bool | None = None
        if ok and latency_s is not None:
            latency_ok = latency_s <= self.config.latency_target_s
        self._push(ok, latency_ok)

    def record_shed(self) -> None:
        """A load-shed submission (open breaker): the client was
        turned away, which is an availability miss with no latency."""
        self._push(False, None)

    def _push(self, *verdicts: bool | None) -> None:
        """Append one event; *verdicts* are per objective: True good,
        False bad, None not applicable."""
        now = self._clock()
        totals = list(self._totals[-1] if self._totals else self._base)
        for index, verdict in enumerate(verdicts):
            if verdict is not None:
                totals[2 * index] += 1
                totals[2 * index + 1] += not verdict
        self._times.append(now)
        self._totals.append(tuple(totals))  # type: ignore[arg-type]
        self.recorded += 1
        self._prune(now)

    def _prune(self, now: float) -> None:
        """Forget events older than the long window; compact the lists
        once the forgotten prefix is more than half of them."""
        self._head = bisect.bisect_left(
            self._times, now - self.config.long_window_s, self._head)
        if self._head * 2 > len(self._times):
            self._base = self._totals[self._head - 1]
            del self._times[:self._head]
            del self._totals[:self._head]
            self._head = 0

    # -- answering ----------------------------------------------------

    def objectives(self) -> tuple[str, ...]:
        return OBJECTIVES

    def _window_counts(self, objective: str,
                       window_s: float) -> tuple[int, int]:
        """(events, bad) for *objective* within the last *window_s*."""
        index = 2 * OBJECTIVES.index(objective)
        start = bisect.bisect_left(
            self._times, self._clock() - window_s, self._head)
        before = self._totals[start - 1] if start else self._base
        last = self._totals[-1] if self._totals else self._base
        return (last[index] - before[index],
                last[index + 1] - before[index + 1])

    def burn_rate(self, objective: str, window_s: float) -> float:
        """Error rate over the window divided by the error budget."""
        budget = 1.0 - self.config.target(objective)
        events, bad = self._window_counts(objective, window_s)
        if events == 0:
            return 0.0
        return (bad / events) / budget

    def alerting(self, objective: str) -> bool:
        """The multi-window rule: burn above threshold in the short
        *and* the long window, with the short window holding at least
        ``min_samples`` events."""
        events, _ = self._window_counts(
            objective, self.config.short_window_s)
        if events < self.config.min_samples:
            return False
        return all(
            self.burn_rate(objective, self.config.window_s(window))
            > self.config.burn_threshold
            for window in WINDOWS
        )

    def describe(self) -> dict[str, t.Any]:
        """The JSON-able SLO status document (``GET /jobs`` carries
        it; the fault-lane recipe in EXPERIMENTS.md reads it)."""
        doc: dict[str, t.Any] = {
            "recorded": self.recorded,
            "window_events": len(self._times) - self._head,
            "objectives": {},
        }
        for objective in OBJECTIVES:
            events, bad = self._window_counts(
                objective, self.config.long_window_s)
            doc["objectives"][objective] = {
                "target": self.config.target(objective),
                "events": events,
                "bad": bad,
                "burn": {
                    window: round(self.burn_rate(
                        objective, self.config.window_s(window)), 4)
                    for window in WINDOWS
                },
                "alerting": self.alerting(objective),
            }
        return doc
