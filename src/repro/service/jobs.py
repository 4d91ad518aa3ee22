"""Service job vocabulary: requests, runtime state, and the worker fn.

A *job* is one unit of service work.  Three kinds exist:

* ``experiment`` — run one harness experiment (the same unit a
  campaign job is), addressed by the campaign job key
  (``fig08@quick#s3``) so the service shares the campaign's
  content-addressed result cache byte-for-byte.
* ``trace`` — stream a synthetic Google-trace population through
  :func:`repro.traces.google.iter_users` and reduce it to the
  constant-memory statistics summary.  This is the million-user lane:
  the trace is never materialised, only folded.
* ``sleep`` — a calibration job that holds a worker for a fixed time.
  It exists for deterministic tests and load experiments (admission at
  capacity, cancel-while-running, crash/requeue) and supports two
  fault knobs: ``fail`` raises deterministically, ``crash_unless``
  hard-exits the worker process unless a marker file exists (creating
  it first, so the *retry* succeeds — the requeue-once story).

Whatever the kind, :func:`run_payload` — the only code a worker ever
runs — returns the same plain-data envelope the campaign pool ships:
``{"result_json": <ExperimentResult JSON>, "wall_s": float}``.  One
envelope means one cache schema, one SSE payload shape, and one
client-side decoder for all three kinds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
import typing as t

from repro.campaign.spec import experiment_key
from repro.errors import ServiceError

#: Job lifecycle states.  REJECTED submissions never become jobs, so
#: it does not appear here; terminal states are the last three.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL = frozenset({DONE, FAILED, CANCELLED})

KINDS = ("experiment", "trace", "sleep")


def job_key(kind: str, payload: t.Mapping[str, t.Any]) -> str:
    """The dedupe identity of a submission — stable across clients.

    Experiment jobs reuse the campaign job-key grammar so a service
    job and a campaign job for the same work share one identity; an
    ``overrides`` mapping, when present, is folded in as a short
    digest suffix (two override sets differing anywhere get distinct
    keys).
    """
    if kind == "experiment":
        base = experiment_key(payload["experiment"],
                              payload.get("preset", "quick"),
                              int(payload.get("seed", 0)))
        overrides = payload.get("overrides") or {}
        if overrides:
            digest = hashlib.sha256(
                json.dumps(overrides, sort_keys=True, default=str)
                .encode("utf-8")
            ).hexdigest()[:8]
            base += f"+{digest}"
        return base
    if kind == "trace":
        return (f'trace:s{int(payload.get("seed", 2019))}'
                f':u{int(payload.get("users", 492))}')
    if kind == "sleep":
        label = payload.get("label", "")
        return f'sleep:{float(payload.get("duration_s", 0.0))}:{label}'
    raise ServiceError(f"unknown job kind: {kind!r}")


def validate_payload(kind: str, payload: t.Mapping[str, t.Any]) -> None:
    """Reject a bad submission at the door, not in a worker."""
    if kind not in KINDS:
        raise ServiceError(
            f"unknown job kind {kind!r}; expected one of {KINDS}"
        )
    if kind == "experiment":
        from repro.harness.registry import EXPERIMENTS

        name = payload.get("experiment")
        if name not in EXPERIMENTS:
            raise ServiceError(f"unknown experiment: {name!r}")
        _experiment_config(payload)  # raises ConfigurationError if bad
    elif kind == "trace":
        users = int(payload.get("users", 492))
        if users < 1:
            raise ServiceError(f"trace users must be >= 1: {users!r}")
    elif kind == "sleep":
        duration = float(payload.get("duration_s", 0.0))
        if duration < 0:
            raise ServiceError(f"sleep duration must be >= 0: {duration!r}")


def _experiment_config(payload: t.Mapping[str, t.Any]) -> t.Any:
    import dataclasses as dc

    from repro.harness.config import ExperimentConfig

    base = ExperimentConfig.preset(payload.get("preset", "quick"))
    overrides = dict(payload.get("overrides") or {})
    return dc.replace(base, seed=int(payload.get("seed", 0)), **overrides)


def cache_key_for(kind: str, payload: t.Mapping[str, t.Any]) -> str | None:
    """The content address of this job's result, or ``None`` for kinds
    that are not cacheable (``sleep`` — its value *is* the wall time).

    Experiment jobs derive the *campaign's* cache key from an
    equivalent :class:`~repro.campaign.spec.JobSpec`, so the service
    and ``--cache`` campaign runs share entries byte-for-byte.  Trace
    summaries are deterministic in (seed, users, chunk) and hash those
    under the same source fingerprint.
    """
    from repro.campaign.cache import (
        SCHEMA,
        job_cache_key,
        source_fingerprint,
    )
    from repro.campaign.spec import JobSpec

    if kind == "experiment":
        return job_cache_key(JobSpec(
            experiment=payload["experiment"],
            preset=payload.get("preset", "quick"),
            seed=int(payload.get("seed", 0)),
            config=_experiment_config(payload),
        ))
    if kind == "trace":
        body = json.dumps(
            {
                "schema": SCHEMA,
                "kind": "trace",
                "seed": int(payload.get("seed", 2019)),
                "users": int(payload.get("users", 492)),
                "chunk": int(payload.get("chunk", 0) or 0),
                "source": source_fingerprint(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()
    return None


# --------------------------------------------------------------------
# The worker side.  Top-level and import-clean so ``spawn`` workers can
# pickle it by reference (the same rule the campaign pool enforces).
# --------------------------------------------------------------------

#: Sim-tracer records shipped back per attempt; more get truncated
#: (flagged in the trace doc) rather than flooding the spawn queue.
TRACE_RECORD_LIMIT = 2048


def run_payload(kind: str, payload: dict[str, t.Any],
                trace: dict[str, t.Any] | None = None) -> dict[str, t.Any]:
    """Execute one job; the only function service workers ever run.

    *trace* is the distributed-trace context crossing the spawn
    boundary: ``{"trace_id", "span_id", "sampling"}``.  When present,
    the returned envelope grows a ``"trace"`` doc — the worker's pid
    plus the sim-clock tracer's span records as plain data, exactly how
    the campaign pool ships traces home.  The service strips the doc
    back out before caching, so the cache schema never sees it.
    """
    if trace is None:
        return _execute(kind, payload)
    return _execute_traced(kind, payload, dict(trace))


def _execute(kind: str, payload: dict[str, t.Any]) -> dict[str, t.Any]:
    start = time.perf_counter()
    config = None
    if kind == "experiment":
        from repro.harness.registry import run_experiment

        config = _experiment_config(payload)
        result = run_experiment(payload["experiment"], config)
    elif kind == "trace":
        result = _run_trace(payload)
    elif kind == "sleep":
        result = _run_sleep(payload)
    else:  # pragma: no cover - submit() validates kinds
        raise ServiceError(f"unknown job kind: {kind!r}")
    wall_s = time.perf_counter() - start
    # An experiment result carries the same provenance meta as a
    # campaign job's, so the cache entry it writes reads the same.
    result = (config.stamp(result, wall_s) if config is not None
              else result.with_meta(wall_s=round(wall_s, 6)))
    return {"result_json": result.to_json(), "wall_s": wall_s}


def _execute_traced(kind: str, payload: dict[str, t.Any],
                    trace: dict[str, t.Any]) -> dict[str, t.Any]:
    """Run under the worker's own sim-span capture.

    The capture installs a process-global tracer, which is safe
    because a spawn worker runs one job at a time in a process of its
    own.
    """
    from repro import obs
    from repro.campaign.pool import worker_identity
    from repro.obs import export

    with obs.capture(sampling=trace.get("sampling")) as (tracer, _metrics):
        envelope = _execute(kind, payload)
    trace_doc: dict[str, t.Any] = {
        "trace_id": trace.get("trace_id", ""),
        "span_id": trace.get("span_id", ""),
        **worker_identity(),
    }
    records = []
    truncated = False
    for record in export.iter_records(tracer):
        if len(records) >= TRACE_RECORD_LIMIT:
            truncated = True
            break
        records.append(record)
    trace_doc["records"] = records
    trace_doc["truncated"] = truncated
    envelope["trace"] = trace_doc
    return envelope


def _run_trace(payload: dict[str, t.Any]) -> t.Any:
    from repro.harness.results import ExperimentResult
    from repro.traces import google

    seed = int(payload.get("seed", 2019))
    users = int(payload.get("users", 492))
    chunk = int(payload.get("chunk", 0) or google.DEFAULT_CHUNK)
    config = dataclasses.replace(
        google.TraceConfig(), seed=seed, users=users
    )
    stats = google.stream_statistics(
        google.iter_users(config, chunk=chunk)
    )
    return ExperimentResult(
        experiment="trace",
        title=f"Streaming trace summary: {users} users, seed {seed}",
        rows=({"seed": seed, "users": users, **stats},),
    )


def _run_sleep(payload: dict[str, t.Any]) -> t.Any:
    from repro.harness.results import ExperimentResult

    marker = payload.get("crash_unless")
    if marker and not os.path.exists(marker):
        # Leave the marker *before* dying so the requeued attempt
        # survives: the crash-then-recover shape shard tests need.
        with open(marker, "w") as fh:
            fh.write("crashed once\n")
        os._exit(13)
    if payload.get("fail"):
        raise ServiceError(f'sleep job asked to fail: {payload.get("label")}')
    duration = float(payload.get("duration_s", 0.0))
    if duration:
        time.sleep(duration)
    return ExperimentResult(
        experiment="sleep",
        title="Worker hold",
        rows=({"slept_s": duration, "label": payload.get("label", "")},),
    )


# --------------------------------------------------------------------
# Runtime state held by the service (never crosses a process).
# --------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class JobEvent:
    """One SSE-streamable lifecycle event, ordered by ``seq``.

    The event is held as its SSE frame (``id`` / ``event`` / ``data``
    lines), encoded once when it is emitted: every subscriber, live or
    replaying, is written the same bytes, and a finished job keeps
    bytes rather than a dict per event.
    """

    seq: int
    event: str
    frame: bytes

    @classmethod
    def encode(cls, seq: int, event: str,
               data: t.Mapping[str, t.Any]) -> "JobEvent":
        body = json.dumps(data, default=str)
        return cls(seq, event,
                   f"id: {seq}\nevent: {event}\ndata: {body}\n\n"
                   .encode("utf-8"))

    @property
    def data(self) -> dict[str, t.Any]:
        """The event's payload, decoded from the frame."""
        return json.loads(self.frame.partition(b"\ndata: ")[2])


@dataclasses.dataclass
class Job:
    """One submission's full runtime record, service-internal."""

    id: str
    key: str
    kind: str
    payload: dict[str, t.Any]
    client: str
    priority: int
    shard: int
    deadline_s: float | None = None
    state: str = QUEUED
    attempts: int = 0
    cache_hit: bool = False
    result: dict[str, t.Any] | None = None
    error: str | None = None
    submitted_at: float = 0.0
    finished_at: float | None = None
    events: list[JobEvent] = dataclasses.field(default_factory=list)
    completions: int = 0  # exactly-once guard: must never exceed 1
    #: Set by ``TraceService.cancel``; a running job then ends cancelled.
    cancel_requested: bool = False
    #: Distributed trace identity; journaled so recovery re-admits the
    #: job under its original trace.
    trace_id: str = ""
    #: Wall-clock phase marks and open span ids, service-internal —
    #: the raw material GET /jobs/<id>/trace's spans are cut from.
    trace_marks: dict[str, t.Any] = dataclasses.field(default_factory=dict)

    def envelope(self) -> dict[str, t.Any]:
        """The journal's ``accepted`` record body — everything a
        restarted service needs to re-admit this job as its old self
        (key, client, priority and deadline all restored)."""
        doc: dict[str, t.Any] = {
            "id": self.id,
            "key": self.key,
            "kind": self.kind,
            "payload": self.payload,
            "client": self.client,
            "priority": self.priority,
        }
        if self.deadline_s is not None:
            doc["deadline_s"] = self.deadline_s
        if self.trace_id:
            doc["trace_id"] = self.trace_id
        return doc

    def summary(self) -> dict[str, t.Any]:
        """The status document the HTTP API serves."""
        doc: dict[str, t.Any] = {
            "id": self.id,
            "key": self.key,
            "kind": self.kind,
            "client": self.client,
            "priority": self.priority,
            "shard": self.shard,
            "state": self.state,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "trace_id": self.trace_id,
        }
        if self.deadline_s is not None:
            doc["deadline_s"] = self.deadline_s
        if self.error is not None:
            doc["error"] = self.error
        if self.result is not None:
            doc["wall_s"] = self.result.get("wall_s")
            doc["result"] = json.loads(self.result["result_json"])
        return doc
