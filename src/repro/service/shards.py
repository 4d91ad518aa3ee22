"""Shard routing and per-shard job executors.

The service's parallelism model is N independent *shards*, each owning
one executor and one priority queue.  A job's shard is a pure function
of its key (:class:`ShardRouter`), which gives two properties for free:

* two submissions of the same key land on the same shard, so the
  dedupe map in :class:`~repro.service.core.TraceService` never races
  a twin running elsewhere, and
* load spreads statistically without any coordination between shards
  (the ECMP argument from the fabric, applied to compute).

Two executors implement the same small async surface, and both fail
with :class:`~repro.errors.JobFailedError` (``reason`` ``"crash"``,
``"timeout"``, ``"exception"`` or ``"aborted"``):

* :class:`ThreadExecutor` — runs jobs on the default thread pool.
  Fast to start, shares the interpreter; an aborted or timed-out job
  is *abandoned* (its thread finishes into the void) because threads
  cannot be killed.  The default for tests and in-process embedding.
* :class:`SpawnExecutor` — one campaign
  :class:`~repro.campaign.pool.SpawnWorker` per shard: a persistent,
  non-daemonic ``spawn`` process.  A crash or a timeout replaces the
  process so the shard loop can requeue under the :mod:`repro.faults`
  retry policy, and an abort is real: terminate + respawn.

Both end an aborted job the same way: ``abort()`` makes the in-flight
``run()`` raise ``JobFailedError(reason="aborted")``, which is the only
way the service stops a running job.

Executor methods are called only from the service's event loop; the
blocking pieces run via ``asyncio.to_thread``.
"""

from __future__ import annotations

import asyncio
import hashlib
import typing as t

from repro.campaign.pool import SpawnWorker
from repro.errors import ConfigurationError, JobFailedError


class ShardRouter:
    """``key -> shard`` by stable hash; no coordination, no state."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ConfigurationError(f"need at least one shard: {shards!r}")
        self.shards = int(shards)

    def shard_for(self, key: str) -> int:
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.shards


class ThreadExecutor:
    """Run jobs on the event loop's thread pool; abort by abandonment."""

    kind = "thread"

    def __init__(self, *, timeout_s: float = 300.0) -> None:
        self.timeout_s = float(timeout_s)
        #: Resolved by :meth:`abort` to end the in-flight :meth:`run`.
        self._aborted: asyncio.Future | None = None

    async def run(self, fn: t.Callable[..., t.Any],
                  args: tuple[t.Any, ...]) -> t.Any:
        def call() -> t.Any:
            try:
                return ("ok", fn(*args))
            except BaseException as exc:  # noqa: BLE001 - ferried across
                return ("error", f"{type(exc).__name__}: {exc}")

        # Not wait_for(): cancelling wait_for() around a *running*
        # thread blocks until the thread finishes, which would make
        # abort-while-running wait out the whole job.  asyncio.wait
        # never cancels its children, so a cancelled run(), an abort or
        # a timeout abandons the thread and returns immediately.
        task = asyncio.ensure_future(asyncio.to_thread(call))
        aborted = self._aborted = asyncio.get_running_loop().create_future()
        try:
            done, _pending = await asyncio.wait(
                {task, aborted}, timeout=self.timeout_s,
                return_when=asyncio.FIRST_COMPLETED,
            )
        except asyncio.CancelledError:
            self._abandon(task)
            raise
        finally:
            self._aborted = None
        if task not in done:
            self._abandon(task)
            if aborted in done:
                raise JobFailedError("job aborted: thread abandoned",
                                     reason="aborted")
            raise JobFailedError(
                f"job exceeded {self.timeout_s}s on the thread executor",
                reason="timeout",
            )
        status, payload = task.result()
        if status == "error":
            raise JobFailedError(payload, reason="exception")
        return payload

    @staticmethod
    def _abandon(task: asyncio.Task) -> None:
        """Walk away from a task whose thread we cannot stop.

        The cancel is best-effort (a running thread-pool future will
        not cancel); silencing ``_log_destroy_pending`` keeps asyncio
        from warning about the deliberately-orphaned task if the loop
        closes before the thread drains.
        """
        task.cancel()
        task._log_destroy_pending = False  # noqa: SLF001 - by design

    def worker_pid(self) -> int | None:
        """Thread jobs run in-process; the pid is our own."""
        import os

        return os.getpid()

    async def abort(self) -> None:
        """End the in-flight :meth:`run` with ``"aborted"``; its thread
        finishes into the void and what it returns is discarded."""
        if self._aborted is not None and not self._aborted.done():
            self._aborted.set_result(None)

    async def aclose(self) -> None:
        pass


class SpawnExecutor:
    """One persistent ``spawn`` worker process; real crash recovery."""

    kind = "spawn"

    def __init__(self, *, timeout_s: float = 300.0,
                 poll_s: float = 0.05) -> None:
        self._worker = SpawnWorker(timeout_s=timeout_s, poll_s=poll_s)

    async def run(self, fn: t.Callable[..., t.Any],
                  args: tuple[t.Any, ...]) -> t.Any:
        return await asyncio.to_thread(self._worker.run, fn, args)

    def worker_pid(self) -> int | None:
        """The worker process's pid (None before first use) — lets a
        worker span name its process even when no trace doc came
        back."""
        return self._worker.pid

    async def abort(self) -> None:
        """Kill whatever runs now; the waiting ``run`` call raises
        ``JobFailedError(reason="aborted")``."""
        await asyncio.to_thread(self._worker.abort)

    async def aclose(self) -> None:
        await asyncio.to_thread(self._worker.close)


EXECUTORS: dict[str, type] = {
    "thread": ThreadExecutor,
    "spawn": SpawnExecutor,
}


def make_executor(kind: str, *, timeout_s: float) -> t.Any:
    try:
        cls = EXECUTORS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown executor {kind!r}; expected one of "
            f"{sorted(EXECUTORS)}"
        ) from None
    return cls(timeout_s=timeout_s)
