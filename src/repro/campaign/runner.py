"""Campaign orchestration: cache probe → pool fan-out → ordered merge.

:func:`run_campaign` is the one entry point.  It expands the spec,
answers every job it can from the :class:`~repro.campaign.cache.
ResultCache`, fans the misses out over a
:class:`~repro.campaign.pool.WorkerPool` (or runs them inline for
``jobs=1``), then reassembles everything **in spec order** so a
campaign's output is independent of worker scheduling.

Worker→runner traffic is plain data: each worker ships back the
result as its canonical JSON (the same bytes the cache stores, so a
fresh result and a cache hit are literally the same serialisation),
its wall-clock seconds, and — when tracing — its span records and
metrics snapshot.  The runner re-numbers every worker's simulation
``run`` ids into one namespace and merges spans and metrics into a
single campaign-wide trace (NetKernel's decoupling move: execution in
the workers, observation at the consumer).
"""

from __future__ import annotations

import dataclasses
import pathlib
import time
import typing as t

from repro import obs
from repro.campaign.cache import CacheEntry, ResultCache, job_cache_key
from repro.campaign.pool import Task, WorkerPool
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.harness.config import ExperimentConfig
from repro.harness.results import ExperimentResult
from repro.obs.export import iter_records
from repro.obs.metrics import merge_snapshots, render_snapshot

Progress = t.Optional[t.Callable[[str], None]]


def _execute_job(
    experiment: str,
    config: ExperimentConfig,
    trace: bool,
    sampling: dict[str, float] | None,
) -> dict[str, t.Any]:
    """Run one job; top-level so ``spawn`` workers can import it.

    Returns a plain-data payload (safe to queue across processes):
    the result's canonical JSON, wall seconds, and the span records +
    metrics snapshot when tracing.
    """
    from repro.harness.registry import run_experiment

    start = time.perf_counter()
    if trace:
        with obs.capture(sampling=dict(sampling or {})) as (tracer, metrics):
            result = run_experiment(experiment, config)
            records = list(iter_records(tracer))
            snapshot = metrics.snapshot()
    else:
        result = run_experiment(experiment, config)
        records, snapshot = None, None
    wall_s = time.perf_counter() - start
    result = config.stamp(result, wall_s)
    return {
        "result_json": result.to_json(),
        "wall_s": wall_s,
        "records": records,
        "metrics": snapshot,
    }


@dataclasses.dataclass(frozen=True)
class JobOutcome:
    """One job's result plus how it was obtained."""

    job: JobSpec
    result: ExperimentResult
    #: Execution wall seconds — the *original* run's cost for a cache
    #: hit (what the hit saved), the fresh run's cost otherwise.
    wall_s: float
    cache_hit: bool


@dataclasses.dataclass(frozen=True)
class CampaignTrace:
    """The merged observability of every freshly executed job."""

    records: tuple[dict[str, t.Any], ...]
    metrics_snapshot: dict[str, t.Any]
    run_names: dict[int, str]


@dataclasses.dataclass(frozen=True)
class CampaignReport:
    """Everything one campaign run produced, in spec order."""

    outcomes: tuple[JobOutcome, ...]
    #: Whole-campaign wall seconds (includes cache probes and merging).
    wall_s: float
    #: Worker processes used (1 = inline serial execution).
    workers: int
    trace: CampaignTrace | None = None
    trace_files: tuple[pathlib.Path, ...] = ()

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cache_hit)

    @property
    def serial_wall_s(self) -> float:
        """The cost of computing every job once, serially — the sum of
        per-job execution walls (cached jobs contribute their original
        cost).  ``wall_s / serial_wall_s`` is the campaign's win."""
        return sum(outcome.wall_s for outcome in self.outcomes)

    def results(self) -> tuple[ExperimentResult, ...]:
        return tuple(outcome.result for outcome in self.outcomes)


def run_campaign(
    spec: CampaignSpec,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    trace_dir: str | pathlib.Path | None = None,
    sampling: t.Mapping[str, float] | None = None,
    progress: Progress = None,
    timeout_s: float = 600.0,
) -> CampaignReport:
    """Run *spec*: probe the cache, execute misses, merge, report.

    ``jobs=1`` executes misses inline (no subprocess), which is both
    the degenerate serial mode and the reference the parallel path
    must match bit-for-bit.  ``trace_dir`` enables per-worker tracing
    and writes the merged ``campaign.trace.json`` / ``.spans.jsonl`` /
    ``.metrics.txt`` there.  Cache hits carry no spans (nothing
    executed), so a fully warm traced campaign produces an empty
    trace — that is correct, not a bug.
    """
    started = time.perf_counter()
    jobspecs = spec.expand()
    total = len(jobspecs)
    emit = progress if progress is not None else (lambda line: None)

    keys: list[str | None] = [None] * total
    outcomes: list[JobOutcome | None] = [None] * total
    misses: list[int] = []
    hits = 0
    for i, job in enumerate(jobspecs):
        entry = None
        if cache is not None:
            keys[i] = job_cache_key(job)
            entry = cache.get(keys[i])
        if entry is not None:
            outcomes[i] = JobOutcome(job, entry.result, entry.wall_s, True)
            hits += 1
            emit(f"[{hits}/{total}] {job.key}: cache hit "
                 f"(saved {entry.wall_s:.2f}s)")
        else:
            misses.append(i)

    trace = trace_dir is not None
    effective_sampling = dict(sampling) if sampling is not None else None
    if trace and effective_sampling is None:
        from repro.harness.registry import DEFAULT_TRACE_SAMPLING

        effective_sampling = dict(DEFAULT_TRACE_SAMPLING)

    done = 0

    def absorb(miss_pos: int, payload: dict[str, t.Any]) -> None:
        nonlocal done
        i = misses[miss_pos]
        job = jobspecs[i]
        result = ExperimentResult.from_json(payload["result_json"])
        outcomes[i] = JobOutcome(job, result, payload["wall_s"], False)
        if cache is not None and keys[i] is not None:
            cache.put(CacheEntry(
                key=keys[i], job_key=job.key, experiment=job.experiment,
                preset=job.preset, seed=job.seed,
                wall_s=payload["wall_s"], result=result,
            ))
        done += 1
        emit(f"[{hits + done}/{total}] {job.key}: "
             f"ran in {payload['wall_s']:.2f}s")

    payloads: list[dict[str, t.Any]]
    if misses and jobs > 1:
        pool = WorkerPool(workers=min(jobs, len(misses)),
                          timeout_s=timeout_s)
        tasks = [
            Task(
                fn=_execute_job,
                args=(jobspecs[i].experiment, jobspecs[i].config, trace,
                      effective_sampling),
                label=jobspecs[i].key,
            )
            for i in misses
        ]
        payloads = pool.run(tasks, on_result=absorb)
    else:
        payloads = []
        for pos, i in enumerate(misses):
            payload = _execute_job(
                jobspecs[i].experiment, jobspecs[i].config, trace,
                effective_sampling,
            )
            payloads.append(payload)
            absorb(pos, payload)

    merged_trace: CampaignTrace | None = None
    trace_files: tuple[pathlib.Path, ...] = ()
    if trace:
        merged_trace = _merge_traces(
            [jobspecs[i] for i in misses], payloads
        )
        from repro.harness.registry import write_trace_files

        trace_files = write_trace_files(
            trace_dir, "campaign", merged_trace.records,
            render_snapshot(merged_trace.metrics_snapshot),
            merged_trace.run_names,
        )

    return CampaignReport(
        outcomes=tuple(t.cast("list[JobOutcome]", outcomes)),
        wall_s=time.perf_counter() - started,
        workers=max(1, jobs),
        trace=merged_trace,
        trace_files=trace_files,
    )


def _merge_traces(
    jobspecs: t.Sequence[JobSpec],
    payloads: t.Sequence[dict[str, t.Any]],
) -> CampaignTrace:
    """Re-number per-worker run ids into one namespace and merge.

    Every worker's tracer counts runs from 1, so two workers' spans
    collide on ``run``; shifting each job's runs by the campaign-wide
    offset keeps them distinct and names them after the job.
    """
    records: list[dict[str, t.Any]] = []
    run_names: dict[int, str] = {}
    offset = 0
    for job, payload in zip(jobspecs, payloads):
        job_records = payload.get("records") or []
        highest = 0
        for record in job_records:
            shifted = dict(record)
            run = int(shifted.get("run", 0))
            highest = max(highest, run)
            shifted["run"] = run + offset
            run_names.setdefault(run + offset, f"{job.key}/r{run}")
            records.append(shifted)
        offset += highest
    snapshots = [p["metrics"] for p in payloads if p.get("metrics")]
    return CampaignTrace(
        records=tuple(records),
        metrics_snapshot=merge_snapshots(snapshots),
        run_names=run_names,
    )
