"""The ``service`` experiment: the live service proving itself.

Registered like any figure, this boots real :class:`~repro.service.
thread.ServiceThread` instances on loopback sockets and drives them the
way production traffic would — concurrent HTTP clients, SSE streams,
resubmits against a shared cache directory — then reports one row per
scenario lane:

* ``admission``   — a capacity-2, quota-1 instance refuses the right
  submissions with 429 + Retry-After (capacity and quota separately).
* ``mixed-load``  — ``service_clients`` threads submit a mixed bag of
  experiment/trace/sleep jobs over HTTP and stream each to completion;
  exactly-once is asserted per job key (duplicate submissions across
  clients attach to one job; nothing is lost, nothing runs twice).
* ``warm-resubmit`` — a *fresh* instance pointed at the same cache
  directory answers the identical cacheable submissions from disk;
  the hit-rate must clear 95%.
* ``crash-requeue`` — a one-shard instance loses its worker process
  mid-job and requeues onto a fresh one (attempt 2 succeeds).
* ``recovery``    — a journaled instance is killed abruptly with one
  job running and three queued; the next boot replays all four from
  the write-ahead journal and finishes each exactly once.
* ``drain``       — SIGTERM semantics over HTTP: mid-drain submits get
  503 + Retry-After, the in-flight job still finishes, and the clean-
  shutdown marker makes the next boot skip replay entirely.
* ``breaker``     — a worker hard-exit trips the one-failure breaker;
  admission sheds while it cools, the half-open probe re-runs the job
  and closes the breaker again.
* ``telemetry``   — one HTTP job yields one
  connected distributed trace (submit → admission → queue → worker →
  publish, with the engine's sim-time spans as children) whose
  critical-path components sum to the end-to-end latency within 5 %.
* ``slo``         — a burst of deterministic failures drives the
  multi-window burn rate over threshold (``service.slo`` turns
  ``/healthz`` red, ``service_slo_burn`` spikes); a run of good jobs
  slides the short window clean and the alert clears.
* ``health``      — ``/healthz`` is green and the exactly-once ledger
  balances after all of the above.

Rows carry only deterministic values; measured rates (sustained
jobs/sec, p50/p99 submit→terminal stream latency) go to ``meta``,
which is how ``BENCH_service.json`` feeds the perf-regression gate
without poisoning the result cache.
"""

from __future__ import annotations

import concurrent.futures
import os
import statistics
import tempfile
import threading
import time
import typing as t

from repro.errors import (
    AdmissionError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.harness.config import ExperimentConfig
from repro.harness.results import ExperimentResult
from repro.service.breaker import BreakerConfig
from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig, TraceService
from repro.service.thread import ServiceThread


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Service self-check: admission, mixed load, warm cache, recovery."""
    config = config or ExperimentConfig()
    rows: list[dict[str, t.Any]] = []
    meta: dict[str, t.Any] = {}
    with tempfile.TemporaryDirectory(prefix="repro-service-") as root:
        cache_dir = os.path.join(root, "cache")
        rows.append(_admission_lane())
        mixed_row, submissions = _mixed_load_lane(config, cache_dir, meta)
        rows.append(mixed_row)
        rows.append(_warm_resubmit_lane(config, cache_dir, submissions))
        rows.append(_crash_requeue_lane(root))
        rows.append(_recovery_lane(root))
        rows.append(_drain_lane(root))
        rows.append(_breaker_lane(root))
        rows.append(_telemetry_lane(config))
        rows.append(_slo_lane())
    notes = (
        f'{config.service_clients} concurrent HTTP clients, '
        f'{mixed_row["jobs_submitted"]} submissions over '
        f'{mixed_row["unique_keys"]} distinct job keys; '
        f'warm resubmit hit-rate '
        f'{rows[2]["hit_rate"]:.2f}',
        f'durability: {rows[4]["replayed"]} journaled jobs replayed '
        f'after an abrupt kill, drain refused mid-shutdown submits '
        f'with 503, breaker reclosed after its half-open probe',
        f'telemetry: one connected trace of {rows[7]["spans"]} spans '
        f'({rows[7]["sim_spans"]} sim-time children), critical path '
        f'covers {rows[7]["coverage"]:.3f} of e2e; SLO burn alert '
        f'fired and cleared in the fault lane',
        "rows are deterministic; sustained jobs/sec and stream "
        "latencies live in meta (BENCH_service.json gates the wall)",
    )
    return ExperimentResult(
        experiment="service",
        title="Trace service: admission, mixed load, cache, durability",
        rows=tuple(rows),
        notes=notes,
        meta=meta,
    )


def _admission_lane() -> dict[str, t.Any]:
    service_config = ServiceConfig(
        shards=1, capacity=2, per_client_quota=1, retry_after_s=0.1,
    )
    rejected_capacity = rejected_quota = 0
    retry_after_ok = True
    with (ServiceThread(service_config) as live,
          ServiceClient(port=live.port) as client):
        held = []
        # Two distinct clients fill the backlog (quota is 1 each); the
        # holds outlast the lane, which cancels them.
        for i in range(2):
            held.append(client.submit(
                "sleep", {"duration_s": 5.0, "label": f"hold{i}"},
                client=f"filler-{i}",
            ))
        # ...so a third client hits the capacity wall...
        try:
            client.submit("sleep", {"duration_s": 1.0, "label": "over"},
                          client="late")
        except AdmissionError as exc:
            rejected_capacity += 1
            retry_after_ok &= exc.retry_after_s > 0
            retry_after_ok &= exc.reason == "capacity"
        for job in held:
            client.cancel(job["id"])
        # ...and with the backlog drained, one client over-asking
        # trips its per-client quota instead.
        first = client.submit(
            "sleep", {"duration_s": 5.0, "label": "mine"}, client="greedy"
        )
        try:
            client.submit("sleep", {"duration_s": 1.0, "label": "more"},
                          client="greedy")
        except AdmissionError as exc:
            rejected_quota += 1
            retry_after_ok &= exc.reason == "quota"
        client.cancel(first["id"])
    return {
        "scenario": "admission",
        "capacity": service_config.capacity,
        "quota": service_config.per_client_quota,
        "rejected_capacity": rejected_capacity,
        "rejected_quota": rejected_quota,
        "retry_after_ok": retry_after_ok,
    }


def _client_submissions(
    config: ExperimentConfig, client_index: int
) -> list[tuple[str, dict[str, t.Any]]]:
    """The mixed bag one load-generator client submits.

    Deliberately overlapping across clients: every client asks for the
    shared fig08 job and the shared trace, so dedupe and exactly-once
    are exercised by construction, while per-client seeds keep some
    work unique.
    """
    jobs: list[tuple[str, dict[str, t.Any]]] = [
        ("experiment", {"experiment": "fig08", "preset": "quick",
                        "seed": config.seed}),
        ("trace", {"seed": config.seed,
                   "users": config.service_trace_users}),
        ("experiment", {"experiment": "fig02", "preset": "quick",
                        "seed": config.seed + client_index}),
        ("sleep", {"duration_s": 0.01, "label": f"c{client_index}"}),
    ]
    return jobs[:config.service_jobs_per_client]


def _mixed_load_lane(
    config: ExperimentConfig, cache_dir: str, meta: dict[str, t.Any],
) -> tuple[dict[str, t.Any], list[tuple[str, dict[str, t.Any]]]]:
    service_config = ServiceConfig(
        shards=config.service_shards,
        capacity=max(64, config.service_clients
                     * config.service_jobs_per_client * 2),
        per_client_quota=max(16, config.service_jobs_per_client * 2),
        cache_dir=cache_dir,
    )
    latencies: list[float] = []
    submissions: list[tuple[str, dict[str, t.Any]]] = []
    started = time.perf_counter()
    with ServiceThread(service_config) as live:

        def drive(client_index: int) -> list[dict[str, t.Any]]:
            finals = []
            with ServiceClient(port=live.port, timeout_s=300.0,
                               max_retries=8) as client:
                for kind, payload in _client_submissions(config,
                                                         client_index):
                    t0 = time.perf_counter()
                    doc = client.submit(kind, payload,
                                        client=f"load-{client_index}")
                    final = client.wait(doc["id"], timeout_s=300.0)
                    elapsed = time.perf_counter() - t0
                    # Submit→terminal latency net of the job's own run
                    # time: what the queue + shards + SSE pipeline added.
                    latencies.append(max(0.0, elapsed - (
                        final.get("wall_s") or 0.0)))
                    finals.append(final)
            return finals

        with concurrent.futures.ThreadPoolExecutor(
            max_workers=config.service_clients
        ) as pool:
            all_finals = [
                final
                for finals in pool.map(drive,
                                       range(config.service_clients))
                for final in finals
            ]
        with ServiceClient(port=live.port) as client:
            overview = client.overview()
            health = client.healthz()
        wall_s = time.perf_counter() - started

        for client_index in range(config.service_clients):
            submissions.extend(_client_submissions(config, client_index))

        ids_by_key: dict[str, set[str]] = {}
        for final in all_finals:
            ids_by_key.setdefault(final["key"], set()).add(final["id"])
        unique_keys = len(ids_by_key)
        exactly_once = all(len(ids) == 1 for ids in ids_by_key.values())
        done = sum(1 for final in all_finals if final["state"] == "done")
        meta.update({
            "mixed_wall_s": round(wall_s, 3),
            "jobs_per_s": round(len(all_finals) / wall_s, 3),
            "stream_p50_ms": round(
                statistics.median(latencies) * 1e3, 3),
            "stream_p99_ms": round(
                sorted(latencies)[int(0.99 * (len(latencies) - 1))] * 1e3,
                3),
        })
        return {
            "scenario": "mixed-load",
            "clients": config.service_clients,
            "shards": config.service_shards,
            "jobs_submitted": len(all_finals),
            "unique_keys": unique_keys,
            "done": done,
            "failed": sum(1 for f in all_finals if f["state"] == "failed"),
            "jobs_on_server": len(overview["jobs"]),
            "exactly_once": exactly_once
            and len(overview["jobs"]) == unique_keys,
            "healthz": health["status"],
            "violations": len(health["violations"]),
        }, submissions


def _warm_resubmit_lane(
    config: ExperimentConfig, cache_dir: str,
    submissions: list[tuple[str, dict[str, t.Any]]],
) -> dict[str, t.Any]:
    service_config = ServiceConfig(
        shards=config.service_shards, cache_dir=cache_dir,
    )
    cacheable = [(kind, payload) for kind, payload in submissions
                 if kind in ("experiment", "trace")]
    hits = 0
    with (ServiceThread(service_config) as live,
          ServiceClient(port=live.port, timeout_s=300.0) as client):
        for kind, payload in cacheable:
            doc = client.submit(kind, payload, client="resubmitter")
            if doc["state"] != "done":
                doc = client.wait(doc["id"], timeout_s=300.0)
            # A disk hit completes before submit() returns; a repeat
            # key later in this loop attaches to that same job and
            # inherits its cache_hit flag.
            if doc["cache_hit"]:
                hits += 1
        # Deduped resubmissions of the same key only touch disk once;
        # count distinct keys for the honest denominator.
        distinct = {
            (kind, tuple(sorted(payload.items(), key=str)))
            for kind, payload in cacheable
        }
    return {
        "scenario": "warm-resubmit",
        "resubmitted": len(cacheable),
        "distinct_keys": len(distinct),
        "hits": hits,
        "hit_rate": round(hits / len(cacheable), 4) if cacheable else 1.0,
    }


def _crash_requeue_lane(root: str) -> dict[str, t.Any]:
    service_config = ServiceConfig(shards=1, job_timeout_s=120.0)
    marker = os.path.join(root, "crash-once")
    with (ServiceThread(service_config) as live,
          ServiceClient(port=live.port, timeout_s=180.0) as client):
        doc = client.submit("sleep", {
            "duration_s": 0.0, "crash_unless": marker, "label": "crashy",
        })
        events = [event for event, _data in client.stream(doc["id"])]
        final = client.status(doc["id"])
    return {
        "scenario": "crash-requeue",
        "state": final["state"],
        "attempts": final["attempts"],
        "requeued": "requeued" in events,
        "marker_left": os.path.exists(marker),
    }


def _poll(predicate: t.Callable[[], bool], *, timeout_s: float = 60.0,
          interval_s: float = 0.02, what: str = "condition") -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise ServiceError(f"timed out waiting for {what}")


async def _read_recovery(service: TraceService) -> t.Any:
    return service.last_recovery


async def _jobs_snapshot(service: TraceService) -> list[dict[str, t.Any]]:
    return [
        {"state": job.state, "completions": job.completions}
        for job in service.jobs()
    ]


async def _breaker_doc(service: TraceService) -> dict[str, t.Any]:
    return service.breakers[0].describe()


async def _probe_breaker_shed(service: TraceService) -> bool:
    """While the shard breaker is cooling, admission must shed with the
    ``breaker`` reason.  Checked on the service loop so the shedding
    test and the submit are one atomic step — no HTTP race with the
    half-open probe.  Vacuously true once the breaker stops shedding.
    """
    breaker = service.breakers[0]
    if not breaker.shedding:
        return True
    try:
        service.submit("sleep", {"label": "shed-me"}, client="impatient")
    except AdmissionError as exc:
        return exc.reason == "breaker"
    return False


def _recovery_lane(root: str) -> dict[str, t.Any]:
    """Kill a journaled instance mid-flight; the next boot replays."""
    journal_dir = os.path.join(root, "journal-recovery")

    def instance() -> ServiceThread:
        return ServiceThread(ServiceConfig(
            shards=1, journal_dir=journal_dir,
        ))

    with instance() as live, ServiceClient(port=live.port) as client:
        # One running + three queued at the kill.  The hold is long
        # enough that abrupt teardown beats its completion, short
        # enough that the reboot's full re-run stays cheap.
        hold = client.submit("sleep", {"duration_s": 2.0, "label": "hold"})
        for i in range(3):
            client.submit("sleep", {"duration_s": 0.0, "label": f"q{i}"},
                          client=f"survivor-{i}")
        _poll(lambda: client.status(hold["id"])["state"] == "running",
              what="hold job to start")
        # Context exit stops the loop abruptly — no drain, no clean
        # marker: the in-process stand-in for SIGKILL.
    with (instance() as live,
          ServiceClient(port=live.port, timeout_s=120.0) as client):
        recovery = live.call(_read_recovery)
        for doc in client.overview()["jobs"]:
            client.wait(doc["id"], timeout_s=120.0)
        snapshot = live.call(_jobs_snapshot)
        live.drain()
    return {
        "scenario": "recovery",
        "clean_boot": recovery.clean,  # False: the kill left it dirty
        "replayed": len(recovery.live),
        "completed": sum(1 for job in snapshot if job["state"] == "done"),
        "exactly_once": all(job["completions"] == 1 for job in snapshot),
        "torn_records": recovery.torn_records,
    }


def _drain_lane(root: str) -> dict[str, t.Any]:
    """SIGTERM semantics over HTTP, then a clean-marker reboot."""
    journal_dir = os.path.join(root, "journal-drain")
    refused_503 = retry_after_ok = False
    live = ServiceThread(ServiceConfig(
        shards=1, journal_dir=journal_dir,
    )).start()
    client = ServiceClient(port=live.port)
    try:
        inflight = client.submit("sleep", {"duration_s": 2.0,
                                           "label": "inflight"})
        _poll(lambda: client.status(inflight["id"])["state"] == "running",
              what="in-flight job to start")
        drainer = threading.Thread(target=live.drain, daemon=True)
        drainer.start()
        _poll(lambda: bool(client.healthz().get("draining")),
              what="drain to begin")
        try:
            client.submit("sleep", {"duration_s": 0.0, "label": "late"})
        except ServiceUnavailableError as exc:
            refused_503 = True
            retry_after_ok = exc.retry_after_s > 0
        drainer.join(timeout=60.0)
    finally:
        client.close()
        live.stop()
    with ServiceThread(ServiceConfig(
        shards=1, journal_dir=journal_dir,
    )) as live:
        recovery = live.call(_read_recovery)
    return {
        "scenario": "drain",
        "refused_503": refused_503,
        "retry_after_ok": retry_after_ok,
        # The clean marker proves the in-flight job finished before
        # shutdown; replay on the next boot had nothing to do.
        "clean_boot": recovery.clean,
        "replayed": len(recovery.live),
    }


def _telemetry_lane(config: ExperimentConfig) -> dict[str, t.Any]:
    """One HTTP job = one connected distributed trace.

    The trace crosses the spawn worker's process boundary: the worker's
    sim-clock spans come back over the queue and hang off the worker
    span.  The critical-path breakdown must
    tile the end-to-end wall time (the ±5 % acceptance bound).
    """
    service_config = ServiceConfig(shards=1, job_timeout_s=300.0)
    with (ServiceThread(service_config) as live,
          ServiceClient(port=live.port, timeout_s=300.0) as client):
        doc = client.submit(
            "experiment",
            {"experiment": "fig02", "preset": "quick", "seed": config.seed},
            client="telemetry",
        )
        header_on_submit = client.last_trace_id
        final = client.wait(doc["id"], timeout_s=300.0)
        trace = client.trace(doc["id"])
        chrome = client.trace(doc["id"], fmt="chrome")
    spans = trace["spans"]
    sim_spans = sum(1 for span in spans if span["cat"] != "service")
    path = trace["critical_path"]
    components_sum = sum(path["components"].values())
    e2e = path["e2e_s"]
    return {
        "scenario": "telemetry",
        "state": final["state"],
        "spans": len(spans),
        "sim_spans": sim_spans,
        "connected": trace["connected"],
        "coverage": round(path["coverage"], 4),
        "components_sum_ok": (
            e2e > 0 and abs(components_sum - e2e) <= 0.05 * e2e
        ),
        "trace_id_consistent": (
            bool(trace["trace_id"])
            and trace["trace_id"] == final.get("trace_id")
            and trace["trace_id"] == header_on_submit
        ),
        "chrome_events": len(chrome["traceEvents"]),
    }


def _slo_lane() -> dict[str, t.Any]:
    """Drive the burn-rate alert over threshold, then clear it.

    Windows are shrunk to seconds so the lane runs in wall time a test
    can afford: a burst of deterministic failures (the ``fail`` knob)
    pushes the short *and* long availability burn past the threshold —
    ``/healthz`` goes red with a ``service.slo`` violation and the
    ``service_slo_burn`` gauge spikes — then a run of good jobs plus
    the sliding short window brings the alert back down.
    """
    from repro.service.slo import SloConfig

    slo = SloConfig(
        availability_target=0.9, latency_target_s=60.0,
        short_window_s=1.5, long_window_s=6.0,
        burn_threshold=2.0, min_samples=5,
    )
    service_config = ServiceConfig(shards=1, slo=slo)
    burn_peak = 0.0
    with (ServiceThread(service_config) as live,
          ServiceClient(port=live.port, timeout_s=60.0) as client):

        def slo_alerting() -> bool:
            return any(v["check"] == "service.slo"
                       for v in client.healthz()["violations"])

        for i in range(8):
            doc = client.submit("sleep", {"fail": True, "label": f"bad{i}"},
                                client="chaos")
            client.wait(doc["id"], timeout_s=60.0)
        _poll(slo_alerting, timeout_s=30.0, what="SLO burn alert to fire")
        alert_fired = True
        for line in client.metrics_text().splitlines():
            if line.startswith("service_slo_burn{"):
                burn_peak = max(burn_peak, float(line.rsplit(" ", 1)[1]))

        good = 0

        def recovered() -> bool:
            nonlocal good
            if slo_alerting():
                doc = client.submit(
                    "sleep", {"duration_s": 0.0, "label": f"good{good}"},
                    client="steady",
                )
                client.wait(doc["id"], timeout_s=60.0)
                good += 1
                return False
            return True

        _poll(recovered, timeout_s=60.0, interval_s=0.1,
              what="SLO burn alert to clear")
    return {
        "scenario": "slo",
        "alert_fired": alert_fired,
        "alert_cleared": True,  # _poll raised otherwise
        "burn_over_threshold": burn_peak > slo.burn_threshold,
        "good_jobs_to_clear": good,
    }


def _breaker_lane(root: str) -> dict[str, t.Any]:
    """A worker hard-exit trips the breaker; the probe re-closes it."""
    service_config = ServiceConfig(
        shards=1, job_timeout_s=120.0,
        breaker=BreakerConfig(failure_threshold=1, cooldown_s=0.5),
    )
    marker = os.path.join(root, "breaker-crash-once")
    with (ServiceThread(service_config) as live,
          ServiceClient(port=live.port, timeout_s=180.0) as client):
        doc = client.submit("sleep", {
            "duration_s": 0.0, "crash_unless": marker, "label": "tripper",
        })
        _poll(lambda: live.call(_breaker_doc)["state"] != "closed",
              timeout_s=120.0, what="breaker to trip")
        shed_enforced = live.call(_probe_breaker_shed)
        final = client.wait(doc["id"], timeout_s=180.0)
        end = live.call(_breaker_doc)
    return {
        "scenario": "breaker",
        "state": final["state"],
        "attempts": final["attempts"],
        "tripped": end["trips"] >= 1,
        "reclosed": end["state"] == "closed",
        "shed_enforced": shed_enforced,
    }
