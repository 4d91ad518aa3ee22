"""Shard routing and the per-shard job executor.

The service's parallelism model is N independent *shards*, each owning
one executor and one priority queue.  A job's shard is a pure function
of its key (:class:`ShardRouter`), which gives two properties for free:

* two submissions of the same key land on the same shard, so the
  dedupe map in :class:`~repro.service.core.TraceService` never races
  a twin running elsewhere, and
* load spreads statistically without any coordination between shards
  (the ECMP argument from the fabric, applied to compute).

Each shard's :class:`SpawnExecutor` awaits one campaign
:class:`~repro.campaign.pool.SpawnWorker`: a persistent, non-daemonic
``spawn`` process.  Every failure is a
:class:`~repro.errors.JobFailedError` with a ``reason``.  A crash or a
timeout replaces the process so the shard loop can requeue under the
:mod:`repro.faults` retry policy; an in-job ``"exception"`` keeps it.
``abort()`` is the only way the service stops a running job: it kills
the process and respawns, and the in-flight ``run()`` raises
``"aborted"``.

Executor methods are called only from the service's event loop; the
blocking pieces run via ``asyncio.to_thread``.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
import typing as t

from repro.campaign.pool import SpawnWorker
from repro.errors import ConfigurationError


class ShardRouter:
    """``key -> shard`` by stable hash; no coordination, no state."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ConfigurationError(f"need at least one shard: {shards!r}")
        self.shards = int(shards)

    def shard_for(self, key: str) -> int:
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.shards


class SpawnExecutor:
    """One persistent ``spawn`` worker process; real crash recovery."""

    def __init__(self, *, timeout_s: float = 300.0,
                 poll_s: float = 0.05) -> None:
        self._worker = SpawnWorker(timeout_s=timeout_s, poll_s=poll_s)
        #: The current run's abort flag.  A fresh one per run, created
        #: on the event loop, so an abort that lands before the run's
        #: thread hands the task to the process still ends that run.
        self._aborted = threading.Event()

    async def run(self, fn: t.Callable[..., t.Any],
                  args: tuple[t.Any, ...]) -> t.Any:
        self._aborted = threading.Event()
        return await asyncio.to_thread(self._worker.run, fn, args,
                                       aborted=self._aborted)

    def worker_pid(self) -> int | None:
        """The worker process's pid (None before first use) — lets a
        worker span name its process even when no trace doc came
        back."""
        return self._worker.pid

    async def abort(self) -> None:
        """Kill whatever runs now; the waiting ``run`` call raises
        ``JobFailedError(reason="aborted")``."""
        self._aborted.set()
        await asyncio.to_thread(self._worker.abort)

    async def aclose(self) -> None:
        await asyncio.to_thread(self._worker.close)
