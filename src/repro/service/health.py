"""Service health: standing invariants behind ``GET /healthz``.

The same move :mod:`repro.health.invariants` makes for the network —
pure check functions returning :class:`~repro.health.violation.
Violation` records — applied to the service's own accounting.  Checks
never mutate; the HTTP layer turns a non-empty list into a 503.

What must always hold on a live service:

* every shard loop task is alive (a crashed loop strands its queue),
* job accounting conserves: every job is in exactly one state, and
  every terminal job completed exactly once (the exactly-once ledger),
* the backlog respects the admission bound it was admitted under,
* terminal jobs carry what their state promises (a result when done,
  an error when failed),
* every shard breaker is internally consistent (an open breaker knows
  when it opened; a closed one is under its failure threshold),
* no SLO burn-rate alert is firing (``service.slo`` — the one *soft*
  check here: it clears itself as the windows roll; see
  :mod:`repro.service.slo`).
"""

from __future__ import annotations

import typing as t

from repro.health import Violation
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN
from repro.service.jobs import DONE, FAILED, QUEUED, RUNNING, TERMINAL

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.service.core import TraceService


def shard_loops_alive(service: "TraceService") -> list[Violation]:
    violations = []
    for task in service.shard_tasks():
        if task.done() and not task.cancelled():
            exc = task.exception()
            violations.append(Violation(
                check="service.shard_alive",
                subject=task.get_name(),
                detail=f"shard loop exited: {exc!r}",
            ))
    return violations


def accounting_conserved(service: "TraceService") -> list[Violation]:
    violations = []
    counts = service.counts()
    if sum(counts.values()) != len(service.jobs()):
        violations.append(Violation(
            check="service.accounting",
            subject="jobs",
            detail=f"state counts {counts} do not cover every job",
        ))
    for job in service.jobs():
        expected = 1 if job.state in TERMINAL else 0
        if job.completions != expected:
            violations.append(Violation(
                check="service.exactly_once",
                subject=job.id,
                detail=(f"{job.state} job completed {job.completions} "
                        f"times (expected {expected})"),
            ))
    return violations


def backlog_bounded(service: "TraceService") -> list[Violation]:
    counts = service.counts()
    backlog = counts[QUEUED] + counts[RUNNING]
    if backlog > service.admission.capacity:
        return [Violation(
            check="service.backlog",
            subject="queue",
            detail=(f"backlog {backlog} exceeds admitted capacity "
                    f"{service.admission.capacity}"),
        )]
    return []


def terminal_jobs_complete(service: "TraceService") -> list[Violation]:
    violations = []
    for job in service.jobs():
        if job.state == DONE and job.result is None:
            violations.append(Violation(
                check="service.result_present",
                subject=job.id,
                detail="done job carries no result",
            ))
        if job.state == FAILED and job.error is None:
            violations.append(Violation(
                check="service.error_present",
                subject=job.id,
                detail="failed job carries no error",
            ))
    return violations


def breakers_consistent(service: "TraceService") -> list[Violation]:
    violations = []
    for breaker in service.breakers:
        if breaker.state not in (CLOSED, OPEN, HALF_OPEN):
            violations.append(Violation(
                check="service.breaker",
                subject=breaker.name,
                detail=f"unknown breaker state {breaker.state!r}",
            ))
            continue
        if breaker.state == OPEN and breaker.opened_at is None:
            violations.append(Violation(
                check="service.breaker",
                subject=breaker.name,
                detail="open breaker has no opened_at timestamp",
            ))
        if (breaker.state == CLOSED and breaker.consecutive_failures
                >= breaker.config.failure_threshold):
            violations.append(Violation(
                check="service.breaker",
                subject=breaker.name,
                detail=(f"closed breaker holds "
                        f"{breaker.consecutive_failures} consecutive "
                        f"failures (threshold "
                        f"{breaker.config.failure_threshold})"),
            ))
    return violations


def slo_within_budget(service: "TraceService") -> list[Violation]:
    """The ``service.slo`` check: no objective's multi-window burn
    alert may be firing.  Unlike the hard invariants above this one is
    *operational* — it turns ``/healthz`` red while the error budget
    is burning faster than the alert threshold in both windows, and
    clears itself as the windows roll past the bad period."""
    slo = getattr(service, "slo", None)
    if slo is None:
        return []
    violations = []
    for objective in slo.objectives():
        if slo.alerting(objective):
            config = slo.config
            violations.append(Violation(
                check="service.slo",
                subject=objective,
                detail=(
                    f"burn rate over {config.burn_threshold:g}x in both "
                    f"windows ({config.short_window_s:g}s short / "
                    f"{config.long_window_s:g}s long): "
                    f"short={slo.burn_rate(objective, config.short_window_s):.2f} "
                    f"long={slo.burn_rate(objective, config.long_window_s):.2f}"
                ),
            ))
    return violations


ALL_CHECKS = (
    shard_loops_alive,
    accounting_conserved,
    backlog_bounded,
    terminal_jobs_complete,
    breakers_consistent,
    slo_within_budget,
)


def check_service(service: "TraceService") -> list[Violation]:
    """Run every standing invariant; empty list means healthy."""
    violations: list[Violation] = []
    for check in ALL_CHECKS:
        violations.extend(check(service))
    return violations
