"""Unified observability: span tracing, metrics, exporters.

This package is the instrumentation layer of the whole simulated
stack.  It sits *below* :mod:`repro.sim` (it depends only on the
stdlib and :mod:`repro.errors`), so every layer — the event engine,
the datapath, the VMM, the orchestrator — can record into it without
inverting the architecture.

One **active tracer** and one **active metrics registry** are held as
module globals.  By default the tracer is the shared no-op
:data:`NULL` instance; instrumentation sites guard themselves with
``if tr.enabled:`` so an untraced run pays almost nothing.  Enabling
tracing is one call::

    with obs.capture() as (tr, mx):
        tb = default_testbed(seed=1, vms=2)      # env adopts the tracer
        ...run experiments...
    records = list(export.iter_records(tr))   # plain dicts, reusable
    export.write_chrome_trace(records, "out/run.trace.json")
    export.write_spans_jsonl(records, "out/run.spans.jsonl")

Every span, sim-clock or (:mod:`repro.obs.distributed`) wall-clock, is
serialised as the one plain record :func:`repro.obs.export.make_record`
builds.

Install the tracer *before* building environments:
:class:`repro.sim.Environment` snapshots the active tracer at
construction (so its hot event loop does one attribute load, not a
registry lookup, per step).
"""

from __future__ import annotations

import contextlib
import typing as t

from repro.obs.distributed import (
    TRACE_HEADER,
    TraceContext,
    TraceStore,
    connected,
    critical_path,
    new_span_id,
    new_trace_id,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NULL, NullTracer, Span, Tracer, TracerLike

_TRACER: TracerLike = NULL
_METRICS = MetricsRegistry()


def tracer() -> TracerLike:
    """The active tracer (the no-op :data:`NULL` unless installed)."""
    return _TRACER


def metrics() -> MetricsRegistry:
    """The active metrics registry (always a real registry)."""
    return _METRICS


def install(tracer: TracerLike | None = None,
            metrics: MetricsRegistry | None = None) -> None:
    """Swap in an active tracer and/or metrics registry."""
    global _TRACER, _METRICS
    if tracer is not None:
        _TRACER = tracer
    if metrics is not None:
        _METRICS = metrics


def uninstall() -> None:
    """Back to the defaults: no-op tracer, fresh registry."""
    global _TRACER, _METRICS
    _TRACER = NULL
    _METRICS = MetricsRegistry()


@contextlib.contextmanager
def capture(
    sampling: t.Mapping[str, float] | None = None,
    self_profile: bool = False,
) -> t.Iterator[tuple[Tracer, MetricsRegistry]]:
    """Install a fresh tracer + registry for the enclosed block.

    The previous tracer/registry are restored on exit, so captures
    nest and never leak into later runs (or other tests).
    """
    previous_tracer, previous_metrics = _TRACER, _METRICS
    fresh_tracer = Tracer(sampling=sampling, self_profile=self_profile)
    fresh_metrics = MetricsRegistry()
    install(fresh_tracer, fresh_metrics)
    try:
        yield fresh_tracer, fresh_metrics
    finally:
        install(previous_tracer, previous_metrics)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL",
    "NullTracer",
    "Span",
    "TRACE_HEADER",
    "TraceContext",
    "TraceStore",
    "Tracer",
    "TracerLike",
    "capture",
    "connected",
    "critical_path",
    "install",
    "metrics",
    "new_span_id",
    "new_trace_id",
    "tracer",
    "uninstall",
]
