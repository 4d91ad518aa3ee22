"""The :class:`Violation` record every health check returns.

Its own module so checks outside the simulator (the trace service's
``/healthz``) can report violations without importing the simulated
network stack that :mod:`repro.health.invariants` audits.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Violation:
    """One broken invariant: which check, on what, and why."""

    check: str
    subject: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debug convenience
        return f"[{self.check}] {self.subject}: {self.detail}"
