"""A long-lived async campaign/trace service: queue → shards → SSE.

The ROADMAP's "millions of users" north star turned into standing
infrastructure: instead of one-shot CLI runs, a :class:`TraceService`
accepts experiment, streaming-trace, and calibration jobs over HTTP,
runs them on sharded workers that share the campaign's content-
addressed result cache, and streams lifecycle events back over SSE.

* :mod:`repro.service.core` — the service itself (admission, dedupe,
  cache probe, shard loops, event fan-out).
* :mod:`repro.service.queue` — admission policy (capacity + quota →
  429 with Retry-After).
* :mod:`repro.service.shards` — key-hash shard routing and the
  spawn-process executor with crash requeue.
* :mod:`repro.service.jobs` — job vocabulary and the one picklable
  worker function.
* :mod:`repro.service.http` — hand-rolled asyncio HTTP/1.1 + SSE.
* :mod:`repro.service.client` — blocking stdlib client (tests, load
  generators, humans).
* :mod:`repro.service.health` — standing invariants behind /healthz.
* :mod:`repro.service.thread` — a live instance on a background loop.
* :mod:`repro.service.journal` — write-ahead job journal (crash
  recovery, clean-shutdown markers).
* :mod:`repro.service.breaker` — per-shard circuit breakers.
* :mod:`repro.service.slo` — rolling-window SLOs and multi-window
  burn-rate alerts behind the ``service.slo`` health check.

Boot one with ``python -m repro.service --port 8700`` or embed it via
:class:`~repro.service.thread.ServiceThread`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.errors": ["ServiceUnavailableError"],
    ".breaker": ["BreakerConfig", "CircuitBreaker"],
    ".client": ["ServiceClient"],
    ".core": ["ServiceConfig", "TraceService"],
    ".health": ["check_service"],
    ".http": ["HttpServer"],
    ".jobs": ["Job", "JobEvent", "job_key", "run_payload"],
    ".journal": ["JobJournal", "JournalConfig", "ReplayState"],
    ".queue": ["AdmissionController"],
    ".shards": ["ShardRouter"],
    ".slo": ["SloConfig", "SloTracker"],
    ".thread": ["ServiceThread"],
})
