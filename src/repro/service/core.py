"""The long-lived trace service: queue → shards → cache → events.

:class:`TraceService` is the asyncio heart of :mod:`repro.service`.
One instance owns N shard loops (each an ``asyncio.Task`` draining a
priority queue into its shard's spawn worker process), the shared
content-addressed result cache, the dedupe map, and the per-job event
logs that SSE subscribers replay.  The HTTP layer
(:mod:`repro.service.http`) is a thin translation onto this class;
everything here is directly usable in-process, which is how the unit
tests and the harness experiment drive it.

The submission path, in order:

1. **validate** the payload (bad requests never reach a worker),
2. **dedupe** by job key — an identical in-flight or completed job is
   returned as-is (a completed one counts as a cache hit),
3. **probe the disk cache** — a warm entry completes the job without
   queueing (this is what a fresh service instance pointed at a warm
   cache directory does for ≥95% of resubmitted work),
4. **admission** — capacity/quota bounds, 429 on the HTTP side,
5. **enqueue** on the key's shard, highest priority first.

Exactly-once: a job key maps to at most one live job; the shard loop
is the only writer of terminal states; ``Job.completions`` counts
terminal transitions and the health check flags any job where it is
not exactly 1.  Crashed or overdue workers requeue under the
:mod:`repro.faults` retry policy; in-job exceptions fail immediately
(the campaign pool's deterministic-failure rule).

Durability (``journal_dir`` set): every transition is written ahead to
the :class:`~repro.service.journal.JobJournal` — ``accepted`` before a
job joins its queue, ``dispatched`` before it reaches a worker, the
terminal record before subscribers hear about it.  A crashed instance
replays the journal on :meth:`TraceService.start` and re-admits every
in-flight job through the normal dedupe → cache-probe → admission
path, so work whose result landed in the content-addressed cache
before the crash completes at the door and only genuinely unfinished
work runs again.  ``aclose(drain=True)`` is the graceful exit: new
submissions get 503 + Retry-After, in-flight jobs finish up to the
drain deadline, and a clean-shutdown marker lets the next boot skip
replay.  Journal write failures (disk full) are counted and survived —
the service prefers staying up to staying durable, and says so in
``service_journal_errors_total``.

Telemetry (always on): every admitted job carries a distributed trace
context (:mod:`repro.obs.distributed`) — minted at the HTTP door or by
``submit`` itself, journaled in the envelope so recovery re-admits the
job under its original trace id, and handed across the spawn boundary
to the worker.  The service records contiguous wall-clock phase spans
(cache probe → admission → queue wait → breaker gate → worker →
publish) into a bounded :class:`~repro.obs.distributed.TraceStore`,
the worker ships back its sim-clock spans as children of its attempt
span, and ``GET /jobs/<id>/trace`` serves the joined tree plus the
critical-path breakdown.  The same phase timings feed explicit-bucket
latency histograms on ``/metrics`` and a rolling-window SLO tracker
(:mod:`repro.service.slo`) whose multi-window burn-rate alert backs
the ``service.slo`` health check and ``service_slo_burn`` gauge.

Overload (always on): each shard owns a
:class:`~repro.service.breaker.CircuitBreaker` fed by the same
crash/timeout verdicts the retry policy sees; a tripped shard stops
being fed and recovers through half-open probing.  Admission sheds
jobs bound for an open shard and jobs whose client deadline cannot be
met at current queue depth (``service_shed_total{reason}``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import pathlib
import time
import typing as t

from repro import faults
from repro.campaign.cache import CacheEntry, ResultCache
from repro.campaign.pool import DEFAULT_RETRY
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    JobFailedError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.faults.recovery import RetryPolicy
from repro.harness.results import ExperimentResult
from repro.obs import distributed as dist
from repro.obs.distributed import TraceContext, TraceStore
from repro.obs.export import make_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import DEFAULT_TRACE_SAMPLING
from repro.service import jobs as jobs_mod
from repro.service.slo import SloConfig, SloTracker
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service import journal as journal_mod
from repro.service.journal import (
    JobJournal,
    JournalConfig,
    JournalWriteError,
    ReplayState,
)
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL,
    Job,
    JobEvent,
    run_payload,
)
from repro.service.queue import AdmissionController
from repro.service.shards import ShardRouter, SpawnExecutor


#: Explicit buckets for the service latency histograms: 1 ms to 60 s.
#: /metrics renders these as cumulative ``_bucket{le=...}`` series.
LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

def _crash_process() -> None:  # pragma: no cover - by definition
    """Die like SIGKILL: no atexit, no finally, no flushing.

    Module-level so chaos tests can monkeypatch it into something
    observable instead of actually losing the interpreter.
    """
    os._exit(137)


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`TraceService` instance is built from."""

    shards: int = 2
    capacity: int = 64
    per_client_quota: int = 16
    cache_dir: str | pathlib.Path | None = None
    job_timeout_s: float = 300.0
    retry: RetryPolicy = DEFAULT_RETRY
    retry_after_s: float = 0.5
    #: Write-ahead journal directory; ``None`` disables durability.
    journal_dir: str | pathlib.Path | None = None
    #: Journal fsync policy and compaction threshold.
    journal: JournalConfig = dataclasses.field(default_factory=JournalConfig)
    #: How long ``aclose(drain=True)`` waits for in-flight jobs.
    drain_timeout_s: float = 30.0
    #: Shard circuit-breaker trip threshold and cooldown.
    breaker: BreakerConfig = dataclasses.field(default_factory=BreakerConfig)
    #: SLO objectives and burn-rate alert windows (``service.slo``).
    slo: SloConfig = dataclasses.field(default_factory=SloConfig)
    #: Distinct distributed traces held for ``GET /jobs/<id>/trace``.
    trace_keep: int = 256

    def __post_init__(self) -> None:
        if self.job_timeout_s <= 0:
            raise ConfigurationError("job_timeout_s must be positive")
        if self.drain_timeout_s <= 0:
            raise ConfigurationError("drain_timeout_s must be positive")
        if self.trace_keep < 1:
            raise ConfigurationError("trace_keep must be >= 1")


class TraceService:
    """Accept jobs, run them on sharded workers, stream their events."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.router = ShardRouter(self.config.shards)
        self.admission = AdmissionController(
            capacity=self.config.capacity,
            per_client_quota=self.config.per_client_quota,
            retry_after_s=self.config.retry_after_s,
        )
        self.cache: ResultCache | None = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir is not None else None
        )
        self.metrics = MetricsRegistry()
        self._submitted = self.metrics.counter(
            "service_jobs_submitted_total", "Jobs accepted, by kind")
        self._rejected = self.metrics.counter(
            "service_admission_rejected_total", "429s, by reason")
        self._finished = self.metrics.counter(
            "service_jobs_finished_total", "Terminal transitions, by state")
        self._hits = self.metrics.counter(
            "service_cache_hits_total",
            "Submissions answered without running (dedupe or disk cache)")
        self._requeues = self.metrics.counter(
            "service_requeues_total", "Crash/timeout retries")
        self._shed = self.metrics.counter(
            "service_shed_total",
            "Submissions shed, by reason (deadline/breaker/draining)")
        self._recovered = self.metrics.counter(
            "service_recovered_total",
            "Journal-replayed jobs re-admitted at boot, by outcome")
        self._journal_errors = self.metrics.counter(
            "service_journal_errors_total",
            "Journal appends that failed (service kept running)")
        self._journal_bad = self.metrics.counter(
            "service_journal_bad_records_total",
            "Torn/corrupt journal records found at replay, by kind")
        self._breaker_events = self.metrics.counter(
            "service_breaker_transitions_total",
            "Circuit-breaker state transitions, by shard and new state")
        self._depth = self.metrics.gauge(
            "service_queue_depth", "Queued jobs right now")
        self._running = self.metrics.gauge(
            "service_jobs_running", "Jobs executing right now")
        self._admission_latency = self.metrics.histogram(
            "service_admission_latency_s", buckets=LATENCY_BUCKETS,
            help="Submit entry to enqueue seconds")
        self._queue_wait = self.metrics.histogram(
            "service_queue_wait_s", buckets=LATENCY_BUCKETS,
            help="Enqueue to shard dequeue seconds")
        self._worker_wall = self.metrics.histogram(
            "service_worker_wall_s", buckets=LATENCY_BUCKETS,
            help="Per-attempt worker execution seconds")
        self._e2e = self.metrics.histogram(
            "service_e2e_latency_s", buckets=LATENCY_BUCKETS,
            help="Accept to publish seconds, end to end")
        self._slo_burn = self.metrics.gauge(
            "service_slo_burn",
            "SLO burn rate, by objective and window")
        self.slo = SloTracker(self.config.slo)
        #: Distributed wall-clock spans, by trace id (bounded).
        self.traces = TraceStore(keep=self.config.trace_keep)

        self._jobs: dict[str, Job] = {}
        #: The non-terminal (queued or running) subset of ``_jobs``:
        #: what admission, deadline estimates, drain and recovery read,
        #: so their cost follows the backlog, not the job history.
        self._live: dict[str, Job] = {}
        self._by_key: dict[str, str] = {}
        self._queues: list[asyncio.PriorityQueue] = []
        self._executors: list[SpawnExecutor] = []
        self._loops: list[asyncio.Task] = []
        self._subscribers: dict[str, list[asyncio.Queue]] = {}
        #: Running jobs a :meth:`cancel` waits on, resolved by
        #: :meth:`_complete`.
        self._settled: dict[str, asyncio.Future] = {}
        self._next_id = 0
        self._enqueue_seq = 0
        self._closed = False
        self._draining = False
        self._ewma_wall_s = 0.0
        self.breakers: list[CircuitBreaker] = []
        self.journal: JobJournal | None = (
            JobJournal(self.config.journal_dir, self.config.journal)
            if self.config.journal_dir is not None else None
        )
        #: What the last :meth:`start` recovered (``None`` before it).
        self.last_recovery: ReplayState | None = None

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        if self._loops:
            raise ServiceError("service already started")
        for shard in range(self.config.shards):
            self._queues.append(asyncio.PriorityQueue())
            self._executors.append(
                SpawnExecutor(timeout_s=self.config.job_timeout_s))
            self.breakers.append(CircuitBreaker(
                self.config.breaker, name=f"shard-{shard}",
                on_transition=self._make_breaker_observer(shard),
            ))
            self._loops.append(asyncio.create_task(
                self._shard_loop(shard), name=f"service-shard-{shard}",
            ))
        if self.journal is not None:
            self._recover()

    def _make_breaker_observer(
        self, shard: int
    ) -> t.Callable[[str, str], None]:
        def observe(_old: str, new: str) -> None:
            self._breaker_events.inc(shard=str(shard), state=new)
        return observe

    def _recover(self) -> None:
        """Replay the journal and re-admit every in-flight job.

        Runs synchronously inside :meth:`start`, before any traffic:
        recovered jobs go through the ordinary ``submit`` path (dedupe,
        cache probe, admission), so a job whose result reached the
        disk cache before the crash completes at the door, and the
        rest requeue under their original keys, clients, priorities
        and deadlines.  A clean-shutdown marker makes all of this a
        no-op.  Nothing here is fatal: torn and corrupt records are
        counted, and a recovered job the admission bounds refuse
        (which cannot happen unless the capacity was lowered between
        boots) is counted as shed and dropped.
        """
        assert self.journal is not None
        state = self.journal.replay()
        self.last_recovery = state
        if state.torn_records:
            self._journal_bad.inc(state.torn_records, kind="torn")
        if state.corrupt_records:
            self._journal_bad.inc(state.corrupt_records, kind="corrupt")
        if state.clean or not state.live:
            # Nothing to re-admit; compact the (fully terminal) history
            # away and start a fresh segment.
            try:
                self.journal.rotate(live=[])
            except (OSError, JournalWriteError):
                self._journal_errors.inc(op="rotate")
            return
        for envelope in sorted(state.live.values(),
                               key=lambda e: str(e.get("id", ""))):
            recovered_trace = (
                TraceContext.root(str(envelope["trace_id"]),
                                  recovered="true")
                if envelope.get("trace_id") else None
            )
            try:
                job = self.submit(
                    envelope["kind"], envelope.get("payload") or {},
                    client=str(envelope.get("client", "anonymous")),
                    priority=int(envelope.get("priority", 0)),
                    deadline_s=envelope.get("deadline_s"),
                    trace=recovered_trace,
                )
            except AdmissionError as exc:
                self._shed.inc(reason=f"recovery-{exc.reason}")
                self._recovered.inc(outcome="shed")
                continue
            except ServiceError:
                # e.g. an experiment renamed away between boots; the
                # journal must never be able to wedge a boot.
                self._recovered.inc(outcome="invalid")
                continue
            self._recovered.inc(
                outcome="cache_hit" if job.cache_hit else "requeued")
        # Compact only now that every live envelope has been re-journaled
        # under its new id: until the rotate's atomic rename lands, the
        # old segments still hold the full recovered state, so a kill at
        # any instant during re-admission replays the same live set again
        # (submit's key dedupe makes that idempotent).  The compacted
        # segment carries exactly the jobs still in flight; terminal
        # history lives on in the result cache, not the journal.
        try:
            self.journal.rotate(live=[
                job.envelope() for job in self._live.values()
            ])
        except (OSError, JournalWriteError):
            self._journal_errors.inc(op="rotate")

    async def aclose(self, *, drain: bool = False,
                     drain_timeout_s: float | None = None) -> None:
        """Stop the service.

        ``drain=False`` (the default) is the abrupt path the tests and
        embedders use: shard loops are cancelled, and running and
        queued jobs keep their state — on a journaled service they
        replay at the next boot, exactly like a crash.  A running job
        already asked to cancel ends cancelled instead.  ``drain=True``
        is the operational path: admission flips to 503 + Retry-After
        immediately, in-flight and queued jobs run to completion (up to
        *drain_timeout_s*, default :attr:`ServiceConfig.drain_timeout_s`),
        and — when everything landed — the journal gets its
        clean-shutdown marker so the next boot skips replay.
        """
        if drain and not self._closed:
            self._draining = True
            deadline = time.monotonic() + (
                self.config.drain_timeout_s if drain_timeout_s is None
                else drain_timeout_s
            )
            while time.monotonic() < deadline and self._live:
                await asyncio.sleep(0.02)
        self._closed = True
        self._draining = False
        for task in self._loops:
            task.cancel()
        if self._loops:
            # Bounded: a shard loop that mishandles its cancellation
            # must not wedge teardown (asyncio.wait never re-raises
            # the tasks' exceptions, and abandons them on timeout).
            await asyncio.wait(self._loops, timeout=5.0)
        # No shard loop is left to settle a cancel still waiting.
        for settled in self._settled.values():
            if not settled.done():
                settled.set_result(None)
        for executor in self._executors:
            await executor.aclose()
        self._loops.clear()
        if self.journal is not None:
            try:
                self.journal.close(mark_clean=not self._live)
            except JournalWriteError:
                self._journal_errors.inc(op="close")

    @property
    def draining(self) -> bool:
        return self._draining

    # -- submission ---------------------------------------------------

    def submit(self, kind: str, payload: t.Mapping[str, t.Any] | None = None,
               *, client: str = "anonymous", priority: int = 0,
               deadline_s: float | None = None,
               trace: TraceContext | None = None) -> Job:
        """Admit one job (or attach to its twin); returns its record.

        *deadline_s* is the client's completion budget in seconds; a
        submission whose estimated wait already exceeds it is shed
        with ``reason="deadline"`` instead of admitted.

        *trace* is the distributed trace context this submission
        continues (the HTTP layer passes the request's, parented
        under its parse span); omitted, a fresh root trace is minted —
        every admitted job has a trace id.  A submission that attaches
        to a twin keeps the *twin's* trace: the work only ran once,
        so there is only one trace to tell.
        """
        if self._closed:
            raise ServiceError("service is shutting down")
        if self._draining:
            self._shed.inc(reason="draining")
            raise ServiceUnavailableError(
                "service is draining; retry against the next instance",
                retry_after_s=self.config.retry_after_s,
            )
        payload = dict(payload or {})
        jobs_mod.validate_payload(kind, payload)
        key = jobs_mod.job_key(kind, payload)

        twin_id = self._by_key.get(key)
        if twin_id is not None:
            twin = self._jobs[twin_id]
            if twin.state not in (FAILED, CANCELLED):
                if twin.state == DONE:
                    self._hits.inc(source="dedupe")
                return twin
            # failed/cancelled twins may be resubmitted fresh

        ctx = trace or TraceContext.root()
        t0 = time.time()
        job = Job(
            id=f"j{self._next_id:05d}",
            key=key,
            kind=kind,
            payload=payload,
            client=client,
            priority=int(priority),
            shard=self.router.shard_for(key),
            deadline_s=None if deadline_s is None else float(deadline_s),
            submitted_at=time.monotonic(),
            trace_id=ctx.trace_id,
            trace_marks={
                "t0": t0,
                "job_span": dist.new_span_id(),
                "parent": ctx.parent_span_id,
            },
        )
        self._next_id += 1

        cached = self._probe_cache(kind, payload)
        t_probe = time.time()
        if cached is not None:
            self._span(job, "cache.probe", t0, t_probe, hit=True)
            # Completing at the door bypasses admission, the breaker
            # and the deadline check: the answer is already on disk.
            self._register(job)
            self._journal(journal_mod.ACCEPTED, **job.envelope())
            job.cache_hit = True
            job.result = cached
            self._span(job, "admission", t_probe, time.time(),
                       outcome="cache-hit")
            self._emit(job, "queued", {"cache": "probing"})
            self._complete(job, DONE)
            self._hits.inc(source="disk")
            return job

        backlog = len(self._live)
        client_active = sum(
            1 for other in self._live.values() if other.client == client
        )
        breaker = (self.breakers[job.shard]
                   if job.shard < len(self.breakers) else None)
        try:
            if breaker is not None and breaker.shedding:
                self._shed.inc(reason="breaker")
                raise AdmissionError(
                    f"shard {job.shard} circuit breaker is open "
                    f"({breaker.consecutive_failures} consecutive "
                    f"worker failures)",
                    reason="breaker",
                    retry_after_s=round(
                        max(self.config.retry_after_s,
                            breaker.cooldown_remaining()), 3),
                )
            self.admission.check_deadline(
                job.deadline_s, self._estimated_wait_s(job.shard), backlog)
            self.admission.admit(client, backlog, client_active)
        except AdmissionError as exc:
            if exc.reason == "deadline":
                self._shed.inc(reason="deadline")
            if exc.reason in ("breaker", "deadline"):
                # Shed work is an availability miss the SLO must see:
                # the client asked and the service turned them away.
                self.slo.record_shed()
                self._update_slo_gauge()
            self._rejected.inc(reason=exc.reason)
            raise

        self._register(job)
        self._journal(journal_mod.ACCEPTED, **job.envelope())
        self._submitted.inc(kind=kind)
        self._enqueue_seq += 1
        self._queues[job.shard].put_nowait(
            (-job.priority, self._enqueue_seq, job.id)
        )
        self._depth.add(1.0)
        t_enqueue = time.time()
        job.trace_marks["enqueued"] = t_enqueue
        self._span(job, "cache.probe", t0, t_probe, hit=False)
        self._span(job, "admission", t_probe, t_enqueue,
                   backlog=backlog, shard=job.shard)
        self._admission_latency.observe(
            t_enqueue - t0, **self._metric_labels(job))
        self._emit(job, "queued", {"shard": job.shard})
        return job

    def _estimated_wait_s(self, shard: int) -> float:
        """Projected submit→done wait for a new job on *shard*: the
        shard's live jobs (plus the newcomer) times the EWMA of recent
        job walls.  Zero until the first completion — the estimator
        never sheds without evidence.  Live jobs, not the queue's
        size: a job cancelled while queued stays in the queue until
        the shard loop skips it, but it is no longer work."""
        if self._ewma_wall_s <= 0.0 or shard >= len(self._queues):
            return 0.0
        shard_backlog = sum(
            1 for job in self._live.values() if job.shard == shard
        )
        return (shard_backlog + 1) * self._ewma_wall_s

    def _note_wall(self, wall_s: float) -> None:
        if wall_s <= 0:
            return
        if self._ewma_wall_s <= 0.0:
            self._ewma_wall_s = wall_s
        else:
            self._ewma_wall_s = 0.2 * wall_s + 0.8 * self._ewma_wall_s

    def _journal(self, record_type: str, **fields: t.Any) -> None:
        """Best-effort durable append; failures counted, never raised."""
        if self.journal is None:
            return
        try:
            self.journal.append(record_type, **fields)
        except JournalWriteError:
            self._journal_errors.inc(op=record_type)

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._live[job.id] = job
        self._by_key[job.key] = job.id

    # -- distributed tracing ------------------------------------------

    def _span(self, job: Job, name: str, start_s: float, end_s: float,
              *, parent: str | None = "job", worker: str = "service",
              span_id: str | None = None, **attrs: t.Any) -> None:
        """Record one service phase span under *job*'s trace.

        *span_id* is normally minted here; the worker span passes its
        pre-allocated id (the one sim child spans already reference).
        """
        if not job.trace_id:
            return
        parent_id = (job.trace_marks.get("job_span")
                     if parent == "job" else parent)
        self.traces.add(make_record(
            span_id or dist.new_span_id(), "service", name, start_s,
            end_s - start_s, parent=parent_id,
            attrs={k: v for k, v in attrs.items() if v is not None},
            trace_id=job.trace_id, worker=worker,
        ))

    def trace(self, job_id: str) -> dict[str, t.Any]:
        """The ``GET /jobs/<id>/trace`` document: every span recorded
        under the job's trace id, connectivity, and the critical-path
        breakdown."""
        job = self.job(job_id)
        spans = self.traces.spans(job.trace_id)
        return {
            "job_id": job.id,
            "trace_id": job.trace_id,
            "state": job.state,
            "connected": dist.connected(spans),
            "critical_path": dist.critical_path(spans),
            "dropped_spans": self.traces.dropped(job.trace_id),
            "spans": spans,
        }

    def _metric_labels(self, job: Job) -> dict[str, str]:
        """Low-cardinality labels for the latency histograms."""
        return {
            "kind": job.kind,
            "experiment": (str(job.payload.get("experiment", "-"))
                           if job.kind == "experiment" else "-"),
        }

    def _update_slo_gauge(self) -> None:
        for objective in self.slo.objectives():
            for window in ("short", "long"):
                self._slo_burn.set(
                    self.slo.burn_rate(
                        objective, self.config.slo.window_s(window)),
                    objective=objective, window=window,
                )

    def _probe_cache(
        self, kind: str, payload: dict[str, t.Any]
    ) -> dict[str, t.Any] | None:
        if self.cache is None:
            return None
        cache_key = jobs_mod.cache_key_for(kind, payload)
        if cache_key is None:
            return None
        entry = self.cache.get(cache_key)
        if entry is None:
            return None
        return {
            "result_json": entry.result.to_json(),
            "wall_s": entry.wall_s,
        }

    def _store(self, job: Job) -> None:
        if self.cache is None or job.result is None:
            return
        cache_key = jobs_mod.cache_key_for(job.kind, job.payload)
        if cache_key is None:
            return
        result = ExperimentResult.from_json(job.result["result_json"])
        self.cache.put(CacheEntry(
            key=cache_key,
            job_key=job.key,
            experiment=(job.payload.get("experiment", job.kind)
                        if job.kind == "experiment" else job.kind),
            preset=job.payload.get("preset", "-"),
            seed=int(job.payload.get("seed", 0)),
            wall_s=job.result["wall_s"],
            result=result,
        ))

    # -- queries ------------------------------------------------------

    def job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServiceError(f"unknown job: {job_id!r}") from None

    def jobs(self) -> tuple[Job, ...]:
        return tuple(self._jobs.values())

    def counts(self) -> dict[str, int]:
        counts = {state: 0 for state in
                  (QUEUED, RUNNING, DONE, FAILED, CANCELLED)}
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts

    # -- cancel -------------------------------------------------------

    async def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job; terminal jobs are left be.

        Returns once the job is terminal, so its admission slot is
        free by the time the caller hears back.
        """
        job = self.job(job_id)
        if job.state in TERMINAL:
            return job
        if job.state == QUEUED:
            self._complete(job, CANCELLED)
            self._depth.add(-1.0)
            return job
        # Running: flag it and abort the in-flight execution; the shard
        # loop owns the terminal transition, and sees the abort when
        # its worker thread next polls.
        job.cancel_requested = True
        settled = self._settled.get(job.id)
        if settled is None:
            settled = asyncio.get_running_loop().create_future()
            self._settled[job.id] = settled
        await self._executors[job.shard].abort()
        if not self._closed:  # else no shard loop is left to settle it
            await asyncio.shield(settled)
        return job

    # -- events and streaming -----------------------------------------

    def _emit(self, job: Job, event: str,
              data: dict[str, t.Any] | None = None) -> None:
        payload = {"id": job.id, "key": job.key, "state": job.state}
        payload.update(data or {})
        record = JobEvent.encode(len(job.events) + 1, event, payload)
        job.events.append(record)
        for queue in self._subscribers.get(job.id, ()):  # fan out live
            queue.put_nowait(record)

    def subscribe(self, job_id: str) -> tuple[list[JobEvent], asyncio.Queue]:
        """Replay history + a live queue; always subscribe-then-replay
        so a reconnecting client can dedupe on ``seq`` and never miss
        an event between snapshot and subscription."""
        job = self.job(job_id)
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.setdefault(job_id, []).append(queue)
        return list(job.events), queue

    def unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        listeners = self._subscribers.get(job_id)
        if listeners and queue in listeners:
            listeners.remove(queue)
        if listeners is not None and not listeners:
            del self._subscribers[job_id]

    def subscriber_count(self, job_id: str) -> int:
        return len(self._subscribers.get(job_id, ()))

    # -- the shard loop ----------------------------------------------

    def _complete(self, job: Job, state: str,
                  *, error: str | None = None) -> None:
        # WAL rule: the terminal record is durable before any
        # subscriber hears the terminal event.
        t_publish = time.time()
        self._journal(
            {DONE: journal_mod.DONE, FAILED: journal_mod.FAILED,
             CANCELLED: journal_mod.CANCELLED}[state],
            id=job.id, key=job.key, cache_hit=job.cache_hit,
        )
        job.state = state
        job.error = error
        job.finished_at = time.monotonic()
        job.completions += 1
        self._live.pop(job.id, None)
        settled = self._settled.pop(job.id, None)
        if settled is not None and not settled.done():
            settled.set_result(None)
        self._finished.inc(state=state)
        event = {DONE: "done", FAILED: "failed", CANCELLED: "cancelled"}
        data: dict[str, t.Any] = {}
        if error is not None:
            data["error"] = error
        if state == DONE and job.result is not None:
            data["wall_s"] = job.result["wall_s"]
            data["cache_hit"] = job.cache_hit
        marks = job.trace_marks
        traced = bool(job.trace_id) and "t0" in marks
        if traced:
            # The publish phase covers the WAL append and result
            # bookkeeping; the root span closes *before* the emit so
            # the critical path shipped in the terminal event already
            # covers the whole job.
            t_end = time.time()
            self._span(job, "publish", t_publish, t_end, state=state)
            self.traces.add(make_record(
                marks["job_span"], "service", "job", marks["t0"],
                t_end - marks["t0"], parent=marks.get("parent"),
                attrs={"job_id": job.id, "kind": job.kind, "state": state,
                       "client": job.client, "cache_hit": job.cache_hit,
                       "attempts": job.attempts},
                trace_id=job.trace_id,
            ))
            e2e_s = t_end - marks["t0"]
            self._e2e.observe(e2e_s, **self._metric_labels(job))
            data["trace_id"] = job.trace_id
            if state in (DONE, FAILED):
                path = dist.critical_path(self.traces.spans(job.trace_id))
                data["critical_path"] = {
                    "e2e_s": round(path["e2e_s"], 6),
                    "components": path["components"],
                    "coverage": path["coverage"],
                }
            if state == DONE:
                self.slo.record_completion(ok=True, latency_s=e2e_s)
            elif state == FAILED:
                self.slo.record_completion(ok=False)
            self._update_slo_gauge()
        self._emit(job, event[state], data)
        if traced:
            t_notify = time.time()
            self._span(job, "sse.notify", t_notify, t_notify,
                       subscribers=len(self._subscribers.get(job.id, ())))
        # That was the job's last span: a finished job keeps no marks.
        job.trace_marks.clear()

    async def _breaker_gate(self, breaker: CircuitBreaker,
                            retrying: Job | None = None) -> None:
        """Park the shard loop until its breaker admits a dispatch —
        either closed, or open-gone-half-open offering a probe slot —
        or until the *retrying* job parked there is asked to cancel."""
        while not breaker.allow():
            if retrying is not None and retrying.cancel_requested:
                return
            await asyncio.sleep(
                min(0.05, max(0.005, breaker.cooldown_remaining()))
            )

    async def _shard_loop(self, shard: int) -> None:
        queue = self._queues[shard]
        executor = self._executors[shard]
        breaker = self.breakers[shard]
        while True:
            _, _, job_id = await queue.get()
            t_dequeue = time.time()
            job = self._jobs[job_id]
            if job.state != QUEUED:  # cancelled while waiting
                continue
            await self._breaker_gate(breaker)
            if job.state != QUEUED:
                # Cancelled while parked at an open breaker: cancel()
                # already completed it and settled the depth gauge.
                # The gate may have granted the half-open probe slot —
                # hand it back or the gate never opens again.
                breaker.release_probe()
                continue
            self._maybe_crash(shard)
            self._depth.add(-1.0)
            job.state = RUNNING
            self._running.add(1.0)
            t_gate = time.time()
            t_enqueued = job.trace_marks.get("enqueued", t_dequeue)
            self._span(job, "queue.wait", t_enqueued, t_dequeue,
                       worker=f"shard-{shard}", shard=shard)
            self._span(job, "breaker.gate", t_dequeue, t_gate,
                       worker=f"shard-{shard}", state=breaker.state)
            self._queue_wait.observe(
                t_dequeue - t_enqueued, **self._metric_labels(job))
            self._journal(journal_mod.DISPATCHED, id=job.id,
                          attempt=job.attempts + 1, shard=shard)
            self._emit(job, "started", {"shard": shard})
            try:
                await self._run_with_retry(job, executor, breaker)
            finally:
                self._running.add(-1.0)

    @staticmethod
    def _maybe_crash(shard: int) -> None:
        """The ``service.crash`` fault kind: chaos plans kill the
        whole service process at a dispatch point, exactly what a
        SIGKILL mid-campaign does — the journal is the only survivor."""
        inj = faults.injector()
        if inj.enabled and inj.fires(
                "service.crash", f"service-shard-{shard}"):
            _crash_process()

    async def _run_with_retry(self, job: Job, executor: SpawnExecutor,
                              breaker: CircuitBreaker) -> None:
        retry = self.config.retry
        while True:
            job.attempts += 1
            attempt_start = time.time()
            worker_span = dist.new_span_id()
            trace_arg = {
                "trace_id": job.trace_id,
                "span_id": worker_span,
                "sampling": DEFAULT_TRACE_SAMPLING,
            }
            shard_row = f"shard-{job.shard}"
            try:
                payload = await executor.run(
                    run_payload, (job.kind, job.payload, trace_arg))
            except asyncio.CancelledError:
                # Service shutdown with this job in flight: it stays
                # running and replays, unless a cancel already asked
                # for it to go.
                if job.cancel_requested:
                    self._complete(job, CANCELLED)
                raise
            except JobFailedError as exc:
                if exc.reason == "aborted":
                    self._complete(job, CANCELLED)
                    return
                if exc.reason == "exception":
                    # Deterministic in-job failure: the *worker* is
                    # fine, so the breaker hears success, not failure.
                    breaker.record_success()
                    self._span(job, "worker", attempt_start, time.time(),
                               span_id=worker_span, worker=shard_row,
                               outcome="error", attempt=job.attempts,
                               retry=job.attempts - 1, shard=job.shard,
                               pid=executor.worker_pid())
                    self._complete(job, FAILED, error=str(exc))
                    return
                breaker.record_failure()
                t_crash = time.time()
                self._span(job, "worker", attempt_start, t_crash,
                           span_id=worker_span, worker=shard_row,
                           outcome=exc.reason, attempt=job.attempts,
                           retry=job.attempts - 1, shard=job.shard)
                if job.cancel_requested:
                    self._complete(job, CANCELLED)
                    return
                if job.attempts < retry.max_attempts:
                    self._requeues.inc(reason=exc.reason)
                    self._emit(job, "requeued", {
                        "reason": exc.reason, "attempt": job.attempts,
                    })
                    # A tripped breaker pauses the retry too: hammering
                    # a sick shard with the same job is how one crashy
                    # submission burns a whole retry budget in <1s.
                    await self._breaker_gate(breaker, retrying=job)
                    self._span(job, "retry.wait", t_crash, time.time(),
                               worker=shard_row, attempt=job.attempts)
                    if job.cancel_requested:
                        # Cancelled while the retry waited: hand back
                        # the probe slot the gate may have granted.
                        breaker.release_probe()
                        self._complete(job, CANCELLED)
                        return
                    continue
                self._complete(
                    job, FAILED,
                    error=f"{exc.reason} after {job.attempts} attempts",
                )
                return
            breaker.record_success()
            if job.cancel_requested:
                # Completion raced the cancel; cancel wins — the
                # client was already told the job was going away.
                self._complete(job, CANCELLED)
                return
            trace_doc = payload.pop("trace", None) or {}
            t_done = time.time()
            self._span(job, "worker", attempt_start, t_done,
                       span_id=worker_span, worker=shard_row,
                       outcome="ok", attempt=job.attempts,
                       retry=job.attempts - 1, shard=job.shard,
                       pid=trace_doc.get("pid"),
                       sim_truncated=trace_doc.get("truncated") or None)
            if trace_doc.get("records") and job.trace_id:
                self.traces.extend(dist.sim_records_to_spans(
                    trace_doc["records"],
                    trace_id=job.trace_id,
                    parent_span_id=worker_span,
                    worker=f"pid-{trace_doc.get('pid', '?')}",
                ))
            self._worker_wall.observe(
                payload["wall_s"], **self._metric_labels(job))
            job.result = payload
            self._note_wall(payload["wall_s"])
            self._store(job)
            self._complete(job, DONE)
            return

    # -- introspection for /healthz ----------------------------------

    def shard_tasks(self) -> tuple[asyncio.Task, ...]:
        return tuple(self._loops)

    def queue_depths(self) -> tuple[int, ...]:
        return tuple(q.qsize() for q in self._queues)

    def describe(self) -> dict[str, t.Any]:
        """One JSON-able status document (the ``GET /jobs`` body)."""
        doc: dict[str, t.Any] = {
            "config": {
                "shards": self.config.shards,
                "capacity": self.config.capacity,
                "per_client_quota": self.config.per_client_quota,
            },
            "counts": self.counts(),
            "queue_depths": list(self.queue_depths()),
            "draining": self._draining,
            "breakers": [b.describe() for b in self.breakers],
            "slo": self.slo.describe(),
            "traces_held": len(self.traces),
            "jobs": [job.summary() | {"result": None}
                     for job in self._jobs.values()],
        }
        if self.journal is not None:
            doc["journal"] = {
                "dir": str(self.journal.root),
                "records": self.journal.records_written,
                "write_errors": self.journal.write_errors,
            }
            if self.last_recovery is not None:
                state = self.last_recovery
                doc["journal"]["recovery"] = {
                    "clean": state.clean,
                    "replayed": len(state.live),
                    "torn": state.torn_records,
                    "corrupt": state.corrupt_records,
                }
        return doc
