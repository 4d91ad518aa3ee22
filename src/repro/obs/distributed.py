"""Distributed trace context: one id from HTTP submit to worker exit.

The sim-clock tracer (:mod:`repro.obs.trace`) answers "where did the
*simulated* cycles go" inside one engine run.  The trace *service*
needs the wall-clock complement: a job submitted over HTTP crosses an
asyncio loop, a priority queue, a circuit breaker, and a spawned
worker process — and the question "why did this job take 3.2 s" spans
all of them.  This module is the glue that makes those hops one story:

* :class:`TraceContext` — the propagated identity: a trace id, the
  parent span id (``None`` at the root), and a small string baggage
  map.  It is minted at the HTTP front door (or by ``submit`` itself
  for in-process callers), stamped into the journal envelope so crash
  recovery re-admits the job under its *original* trace id, and
  carried across the spawn boundary as a plain dict argument to the
  worker function.
* Spans are the plain records :func:`repro.obs.export.make_record`
  builds, the ``.spans.jsonl`` format plus a ``trace_id`` and the
  ``worker`` (Perfetto process row) they ran on.  Wall-clock service
  spans have ``cat="service"`` and ``time.time`` seconds in
  ``ts``/``dur``; sim spans keep their own category and simulated
  timestamps and hang off the worker span that produced them, which
  is what "the engine's timeline as a correlated child" means
  concretely.
* :class:`TraceStore` — a bounded in-memory store, newest traces win.
  The service keeps the last few hundred traces; the HTTP layer
  serves them on ``GET /jobs/<id>/trace``.
* :func:`connected` / :func:`critical_path` — the consumers: one
  checks the span set forms a single tree (exactly one root, every
  parent resolvable); the other carves the root span's wall time into
  contiguous phases (cache probe, admission, queue wait, breaker
  gate, worker, retry wait, publish) whose sum equals the end-to-end
  latency by construction — the ±5 % acceptance bound is then about
  clock sanity, not bookkeeping.

Nothing here imports the service: the dependency points the other way
(service → obs), same as the sim tracer.
"""

from __future__ import annotations

import dataclasses
import typing as t
import uuid

#: The HTTP header a trace id travels in, both directions.
TRACE_HEADER = "X-Trace-Id"

#: Span phase names the critical-path analyzer knows how to attribute.
#: Order is presentation order; every name is a top-level child of the
#: root ``job`` span and the phases tile ``[job.start, job.end]``.
PHASES = (
    "cache.probe",
    "admission",
    "queue.wait",
    "breaker.gate",
    "worker",
    "retry.wait",
    "publish",
)

#: Hard cap on spans kept per trace — a runaway sim capture must not
#: hold the service's memory hostage.
MAX_SPANS_PER_TRACE = 4096


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (w3c-style lower hex, halved)."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh 8-hex-char span id."""
    return uuid.uuid4().hex[:8]


def sanitize_trace_id(raw: str | None) -> str | None:
    """A client-supplied trace id, or ``None`` if it is unusable.

    Accepts 4–64 chars of ``[a-zA-Z0-9_-]`` — permissive enough for
    foreign tracers, strict enough that an id can never smuggle header
    or label syntax back out through ``X-Trace-Id`` or ``/metrics``.
    """
    if not raw:
        return None
    raw = raw.strip()
    if not 4 <= len(raw) <= 64:
        return None
    if not all(c.isalnum() or c in "_-" for c in raw):
        return None
    return raw


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """The propagated trace identity: id + parent span + baggage."""

    trace_id: str
    parent_span_id: str | None = None
    baggage: tuple[tuple[str, str], ...] = ()

    @classmethod
    def root(cls, trace_id: str | None = None,
             **baggage: str) -> "TraceContext":
        """A fresh root context (no parent span)."""
        return cls(
            trace_id=trace_id or new_trace_id(),
            parent_span_id=None,
            baggage=tuple(sorted((k, str(v)) for k, v in baggage.items())),
        )

    def child(self, span_id: str) -> "TraceContext":
        """The context a child of span *span_id* propagates onward."""
        return dataclasses.replace(self, parent_span_id=span_id)

    def bag(self) -> dict[str, str]:
        return dict(self.baggage)

    def to_dict(self) -> dict[str, t.Any]:
        """Plain data for a journal envelope or a spawn-boundary arg."""
        doc: dict[str, t.Any] = {"trace_id": self.trace_id}
        if self.parent_span_id is not None:
            doc["parent_span_id"] = self.parent_span_id
        if self.baggage:
            doc["baggage"] = dict(self.baggage)
        return doc

    @classmethod
    def from_dict(cls, doc: t.Mapping[str, t.Any]) -> "TraceContext":
        baggage = doc.get("baggage") or {}
        return cls(
            trace_id=str(doc["trace_id"]),
            parent_span_id=(str(doc["parent_span_id"])
                            if doc.get("parent_span_id") else None),
            baggage=tuple(sorted(
                (str(k), str(v)) for k, v in baggage.items())),
        )


#: One span of a distributed trace: a plain record (see above).
Record = dict[str, t.Any]


class TraceStore:
    """Bounded per-trace span storage; oldest whole traces evicted.

    Eviction is by trace, not by span: a half-evicted trace is worse
    than no trace (``connected`` would report it broken).  Insertion
    order doubles as age — the service touches a trace every time it
    adds a span, so "oldest" means least-recently-extended.
    """

    def __init__(self, keep: int = 256,
                 max_spans: int = MAX_SPANS_PER_TRACE) -> None:
        self.keep = max(1, int(keep))
        self.max_spans = max(16, int(max_spans))
        self._traces: dict[str, list[Record]] = {}
        self._dropped: dict[str, int] = {}

    def add(self, span: Record) -> None:
        trace_id = span["trace_id"]
        spans = self._traces.get(trace_id)
        if spans is None:
            spans = self._traces[trace_id] = []
            self._evict()
        else:
            # Move-to-back: extending a trace refreshes its age.
            self._traces[trace_id] = self._traces.pop(trace_id)
        if len(spans) >= self.max_spans:
            self._dropped[trace_id] = self._dropped.get(trace_id, 0) + 1
            return
        spans.append(span)

    def extend(self, spans: t.Iterable[Record]) -> None:
        for span in spans:
            self.add(span)

    def spans(self, trace_id: str) -> list[Record]:
        return list(self._traces.get(trace_id, ()))

    def dropped(self, trace_id: str) -> int:
        return self._dropped.get(trace_id, 0)

    def trace_ids(self) -> tuple[str, ...]:
        return tuple(self._traces)

    def __len__(self) -> int:
        return len(self._traces)

    def _evict(self) -> None:
        while len(self._traces) > self.keep:
            oldest = next(iter(self._traces))
            del self._traces[oldest]
            self._dropped.pop(oldest, None)


def connected(spans: t.Sequence[Record]) -> bool:
    """True when *spans* form one tree: exactly one root (a span with
    no parent) and every parent id resolving to a recorded span."""
    if not spans:
        return False
    ids = {span["sid"] for span in spans}
    parents = [span.get("parent") for span in spans]
    return parents.count(None) == 1 and all(
        parent in ids for parent in parents if parent is not None)


def _duration(span: Record) -> float:
    return max(0.0, span["dur"])


def _root_span(spans: t.Sequence[Record]) -> Record | None:
    """The ``job`` span if present, else the (unique) parentless one."""
    jobs = [s for s in spans if s["name"] == "job" and s["cat"] == "service"]
    if jobs:
        return jobs[0]
    roots = [s for s in spans if s.get("parent") is None]
    return roots[0] if len(roots) == 1 else None


def critical_path(spans: t.Sequence[Record]) -> dict[str, t.Any]:
    """Carve the job's end-to-end wall time into attributed phases.

    Components are summed from the service phase spans (see
    :data:`PHASES`); ``other`` is the unattributed remainder, so the
    components *always* sum to ``e2e_s`` exactly — the acceptance
    check "within 5 % of end-to-end latency" is then a statement
    about the recorded phases tiling the job, reported here as
    ``coverage`` (attributed fraction).  Sim spans are summarized
    (count, simulated seconds, cycles) rather than attributed: they
    happen *inside* the worker phase on a different clock.
    """
    root = _root_span(spans)
    if root is None:
        return {"e2e_s": 0.0, "components": {}, "coverage": 0.0,
                "span_count": len(spans), "sim": {"spans": 0}}
    e2e = _duration(root)
    components: dict[str, float] = {}
    sim_spans = []
    for span in spans:
        if span["cat"] != "service":
            sim_spans.append(span)
        elif span["name"] in PHASES:
            key = span["name"].replace(".", "_")
            components[key] = components.get(key, 0.0) + _duration(span)
    attributed = sum(components.values())
    components["other"] = max(0.0, e2e - attributed)
    sim: dict[str, t.Any] = {"spans": len(sim_spans)}
    if sim_spans:
        sim["sim_s"] = round(sum(_duration(s) for s in sim_spans), 9)
        cycles = sum(float((s.get("attrs") or {}).get("cycles", 0) or 0)
                     for s in sim_spans)
        if cycles:
            sim["cycles"] = cycles
    return {
        "e2e_s": e2e,
        "components": {k: round(v, 9) for k, v in components.items()},
        "coverage": round(min(1.0, attributed / e2e), 6) if e2e > 0 else 1.0,
        "span_count": len(spans),
        "sim": sim,
    }


def sim_records_to_spans(
    records: t.Iterable[t.Mapping[str, t.Any]],
    *, trace_id: str, parent_span_id: str, worker: str,
) -> list[Record]:
    """Hang sim-tracer records under a worker span of a distributed trace.

    *records* are the plain dicts :func:`repro.obs.export.iter_records`
    produces inside the worker (shipped back over the spawn queue as
    data, never live objects), already in the span format.  Sim span
    ids are namespaced under the worker span id so two attempts of the
    same job cannot collide; parent links inside the sim tree are
    preserved, and sim roots hang off the worker span.  The worker
    already capped the records it shipped
    (``repro.service.jobs.TRACE_RECORD_LIMIT``).
    """
    spans: list[Record] = []
    for record in records:
        sid = record.get("sid")
        if sid is None:
            continue
        run = record.get("run", 0)
        parent = record.get("parent")
        spans.append(dict(
            record,
            sid=f"{parent_span_id}.r{run}s{sid}",
            parent=(f"{parent_span_id}.r{run}s{parent}"
                    if parent is not None else parent_span_id),
            trace_id=trace_id,
            worker=worker,
        ))
    return spans
