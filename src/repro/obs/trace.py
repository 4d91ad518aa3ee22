"""The span tracer: begin/end spans on the *simulated* clock.

A :class:`Span` records one timed section of the simulated run — a
datapath stage, a message transfer, a device hot-plug — against the
simulation clock, with a parent link and free-form key/value
attributes.  Instant :meth:`Tracer.event` records mark points in time
(scheduler decisions, CNI attaches, forwarding hops).

Two properties make the tracer safe to leave wired into hot paths:

* **No-op fast path.**  The module-level :data:`NULL` tracer has
  ``enabled = False`` and does nothing; every instrumentation site
  guards itself with ``if tr.enabled:`` so a run without tracing pays
  one attribute load and one branch per site.
* **Per-category sampling.**  ``Tracer(sampling={"sim.step": 0.01})``
  keeps a deterministic 1-in-100 of that category (counter-based, no
  RNG, so runs stay reproducible) — full-rate experiments can trace
  the datapath without drowning in engine-step records.

The tracer does not own a clock.  The simulation engine pushes the
current time into :attr:`Tracer.now` as it processes events (see
:meth:`repro.sim.engine.Environment.step`), so spans opened anywhere —
including from code that has no environment reference, like the
scheduler — are stamped with the time of the run that is executing.
Optional *wall-clock self-profiling* additionally measures how much
real time each span cost the simulator itself.
"""

from __future__ import annotations

import time
import typing as t
from itertools import count

#: Sampling applied by ``--trace`` unless overridden.  A full-rate
#: fig04 run records hundreds of thousands of datapath spans (tens of
#: messages per point, a dozen stages each) — far past what Perfetto
#: renders comfortably — so the hot categories are thinned
#: deterministically; everything else (hot-plugs, scheduler decisions,
#: CNI attaches) is rare and kept at full rate.  Pass ``sampling={}``
#: to :func:`repro.harness.registry.run_experiment_traced` for a
#: complete trace.  It lives here, not in the registry, so the service
#: can hand it to its spawn workers without importing every experiment.
DEFAULT_TRACE_SAMPLING: dict[str, float] = {
    "sim.step": 0.002,
    "datapath.transfer": 0.02,
    "datapath.stage": 0.02,
    "forward.send": 0.05,
    "forward.hop": 0.01,
}


class Span:
    """One timed section: category, name, sim-clock interval, attrs.

    ``end`` stays ``None`` while the span is open; instant events are
    spans whose ``end`` equals their ``start``.  ``wall_s`` is the
    real-time cost of the section when self-profiling is on.
    """

    __slots__ = ("sid", "parent", "category", "name", "start", "end",
                 "attrs", "run", "wall_s")

    def __init__(self, sid: int, parent: int | None, category: str,
                 name: str, start: float, run: int,
                 attrs: dict[str, t.Any]) -> None:
        self.sid = sid
        self.parent = parent
        self.category = category
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attrs = attrs
        self.run = run
        self.wall_s: float | None = None

    @property
    def duration(self) -> float:
        """Simulated seconds covered (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Span {self.category}:{self.name} @{self.start:.6f}"
            f"+{self.duration:.6f}s>"
        )


class _SpanContext:
    """Context manager pairing one ``begin`` with its ``end``."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span | None) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span | None:
        return self._span

    def __exit__(self, *exc: t.Any) -> None:
        self._tracer.end(self._span)


class Tracer:
    """Collects spans and events against the simulated clock.

    Parameters
    ----------
    sampling:
        Per-category keep rate in ``[0, 1]``; unlisted categories are
        kept at full rate.  Sampling is deterministic (every
        ``round(1/rate)``-ish record by running count, not RNG).
    self_profile:
        Also measure each span's wall-clock cost (``Span.wall_s``).
    """

    enabled = True

    def __init__(
        self,
        *,
        now: float = 0.0,
        sampling: t.Mapping[str, float] | None = None,
        self_profile: bool = False,
    ) -> None:
        #: Current simulated time; advanced by the simulation engine.
        self.now = float(now)
        self.self_profile = bool(self_profile)
        #: Simulation-run ordinal (one per Environment built while
        #: tracing); exporters group spans into one process per run.
        self.run_id = 0
        self.spans: list[Span] = []
        self.events: list[Span] = []
        self._sampling = {str(k): float(v) for k, v in (sampling or {}).items()}
        self._offered: dict[str, int] = {}
        self._sid = count(1)

    # -- configuration -----------------------------------------------------
    def set_sampling(self, category: str, rate: float) -> None:
        """Keep roughly ``rate`` of future *category* records."""
        self._sampling[category] = float(rate)

    def new_run(self) -> int:
        """Mark the start of a fresh simulation environment."""
        self.run_id += 1
        return self.run_id

    # -- recording ---------------------------------------------------------
    def _keep(self, category: str) -> bool:
        rate = self._sampling.get(category)
        if rate is None or rate >= 1.0:
            return True
        n = self._offered.get(category, 0) + 1
        self._offered[category] = n
        if rate <= 0.0:
            return False
        # Deterministic thinning: keep record n iff the integer part of
        # n*rate advanced — exactly `rate` of records in the long run.
        return int(n * rate) > int((n - 1) * rate)

    def begin(self, category: str, name: str, parent: Span | None = None,
              **attrs: t.Any) -> Span | None:
        """Open a span; returns ``None`` when sampled out."""
        if not self._keep(category):
            return None
        span = Span(
            next(self._sid),
            parent.sid if parent is not None else None,
            category, name, self.now, self.run_id, attrs,
        )
        if self.self_profile:
            span.wall_s = -time.perf_counter()
        self.spans.append(span)
        return span

    def end(self, span: Span | None, **attrs: t.Any) -> None:
        """Close *span* at the current simulated time (None is a no-op)."""
        if span is None:
            return
        span.end = self.now
        if attrs:
            span.attrs.update(attrs)
        if span.wall_s is not None and span.wall_s < 0:
            span.wall_s += time.perf_counter()

    def span(self, category: str, name: str, parent: Span | None = None,
             **attrs: t.Any) -> _SpanContext:
        """``with tr.span(...)``: begin/end around a non-yielding block.

        Generator-based simulation processes must use explicit
        :meth:`begin`/:meth:`end` instead — their sections interleave
        with other processes, so scoping cannot be lexical.
        """
        return _SpanContext(self, self.begin(category, name, parent, **attrs))

    def event(self, category: str, name: str, **attrs: t.Any) -> Span | None:
        """Record an instant event at the current simulated time."""
        if not self._keep(category):
            return None
        span = Span(next(self._sid), None, category, name, self.now,
                    self.run_id, attrs)
        span.end = span.start
        self.events.append(span)
        return span

    # -- inspection --------------------------------------------------------
    def spans_in(self, category: str) -> list[Span]:
        return [s for s in self.spans if s.category == category]

    def events_in(self, category: str) -> list[Span]:
        return [s for s in self.events if s.category == category]

    def clear(self) -> None:
        self.spans.clear()
        self.events.clear()
        self._offered.clear()


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: t.Any) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op.

    Instrumentation sites are expected to guard themselves with
    ``if tr.enabled:`` so that a disabled run never builds spans at
    all; the methods below exist so unguarded calls stay harmless.
    """

    enabled = False
    spans: tuple[Span, ...] = ()
    events: tuple[Span, ...] = ()

    def __init__(self) -> None:
        self.now = 0.0
        self.run_id = 0

    def set_sampling(self, category: str, rate: float) -> None:
        pass

    def new_run(self) -> int:
        return 0

    def begin(self, category: str, name: str, parent: Span | None = None,
              **attrs: t.Any) -> None:
        return None

    def end(self, span: Span | None, **attrs: t.Any) -> None:
        pass

    def span(self, category: str, name: str, parent: Span | None = None,
             **attrs: t.Any) -> _NullContext:
        return _NULL_CONTEXT

    def event(self, category: str, name: str, **attrs: t.Any) -> None:
        return None

    def spans_in(self, category: str) -> list[Span]:
        return []

    def events_in(self, category: str) -> list[Span]:
        return []

    def clear(self) -> None:
        pass


#: The shared disabled tracer installed by default.
NULL = NullTracer()

#: Anything instrumentation code may hold: a real or the null tracer.
TracerLike = t.Union[Tracer, NullTracer]
