"""Spawn worker processes with crash recovery, and a pool of them.

``multiprocessing.Pool`` cannot express what a campaign needs: a
per-job wall-clock timeout, and survival of a worker that dies mid-job
(segfault, ``os._exit``, OOM-kill).  A :class:`SpawnWorker` owns one
process and its own inbox and outbox, so its caller always knows which
job a dead or overdue process was holding.  :class:`WorkerPool` drives
several, one thread each; each ``spawn`` shard of the service awaits
one.

Every failure is a :class:`JobFailedError` with a ``reason``.
``"crash"`` and ``"timeout"`` are *environmental*: the process is
replaced, and the pool retries under a :mod:`repro.faults`
:class:`~repro.faults.recovery.RetryPolicy` (the default
``max_attempts=2`` is requeue-once).  ``"exception"`` is raised inside
the job, is *deterministic* and fails it at once.  ``"aborted"`` is a
kill from outside (:meth:`SpawnWorker.abort` or ``close``).

Workers are non-daemonic, since a daemonic process may not start
children and the ``campaign`` and ``service`` experiments do.  Every
owner closes its workers, and an exit hook closes any left before
``multiprocessing`` joins its children; a worker whose parent dies
exits too.  Stopping a worker sends SIGTERM, which the worker turns
into an orderly exit, so a job's own workers and queues are closed
too; a worker still alive five seconds later is killed.  The ``spawn``
start method works on every platform and never inherits a forked copy
of the parent's simulator state (job functions must be top-level so
they pickle by reference).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.util
import os
import queue as queue_mod
import signal
import threading
import time
import traceback
import typing as t

from repro.errors import ConfigurationError, JobFailedError
from repro.faults.recovery import RetryPolicy

#: The pool's requeue-once default: 1 try + 1 retry, no backoff delay
#: (a fresh worker process is itself the cool-down).
DEFAULT_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)


@dataclasses.dataclass(frozen=True)
class Task:
    """One unit of pool work: a picklable top-level function + args."""

    fn: t.Callable[..., t.Any]
    args: tuple[t.Any, ...] = ()
    label: str = ""


#: How long an idle worker blocks on its inbox before it looks again.
#: A SIGTERM runs its Python handler only when the main thread runs
#: bytecode, and one that lands just before a blocking pipe read starts
#: does not interrupt that read: the timeout bounds how long it waits.
IDLE_POLL_S = 0.05


def worker_identity() -> dict[str, t.Any]:
    """Who is executing right now — stamped into distributed-trace
    docs so a span can name the worker process it ran in."""
    return {"pid": os.getpid()}


class _Stopped(BaseException):
    """SIGTERM in a worker: unwinds the job, so its ``finally`` blocks
    and the exit hooks close the workers and queues it started."""


def _raise_stopped(signum: int, frame: t.Any) -> None:
    raise _Stopped


def _worker_main(inbox: t.Any, outbox: t.Any) -> None:
    """Worker loop: run each ``(fn, args)`` task from *inbox* until
    SIGTERM."""
    signal.signal(signal.SIGTERM, _raise_stopped)
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    try:
        while True:
            try:
                fn, args = inbox.get(timeout=IDLE_POLL_S)
            except queue_mod.Empty:
                continue
            try:
                outbox.put(("ok", fn(*args)))
            except _Stopped:
                raise
            except BaseException:
                outbox.put(("error", traceback.format_exc()))
    except _Stopped:
        outbox.cancel_join_thread()  # nobody reads it any more


def _exit_with_parent() -> None:
    """End this worker when its parent dies, so a killed worker takes
    the workers of a job's own pool with it instead of orphaning them."""
    multiprocessing.parent_process().join()
    os._exit(1)


#: Workers with a live process; the exit hook below closes them.
_LIVE: set[SpawnWorker] = set()


class SpawnWorker:
    """One persistent ``spawn`` process running :func:`_worker_main`.

    It starts on first :meth:`run` and respawns after a crash, a
    timeout or an :meth:`abort`; :meth:`close` stops it for good.
    """

    def __init__(self, *, timeout_s: float = 300.0,
                 poll_s: float = 0.05) -> None:
        if timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        self.timeout_s = float(timeout_s)
        self._poll_s = float(poll_s)
        self._lock = threading.Lock()
        self._generation = 0
        self._closed = False
        self._proc: t.Any = None
        self._inbox: t.Any = None
        self._outbox: t.Any = None

    @property
    def pid(self) -> int | None:
        """The live process's pid (None before first use or after close)."""
        with self._lock:
            if self._proc is not None and self._proc.is_alive():
                return self._proc.pid
            return None

    def run(self, fn: t.Callable[..., t.Any],
            args: t.Sequence[t.Any] = (), *,
            aborted: threading.Event | None = None) -> t.Any:
        """Return ``fn(*args)`` run in the process, or raise
        :class:`JobFailedError` (an ``"exception"`` carries the job's
        traceback).

        A set *aborted* event ends the run with ``"aborted"`` before
        its task reaches the process: set it, then :meth:`abort`, and
        the run stops whether or not it had started.
        """
        with self._lock:
            if self._closed:
                raise JobFailedError("worker closed", reason="aborted")
            if aborted is not None and aborted.is_set():
                raise JobFailedError("job aborted before it started",
                                     reason="aborted")
            if self._proc is None or not self._proc.is_alive():
                self._respawn_locked()
            generation = self._generation
            proc, outbox = self._proc, self._outbox
            self._inbox.put((fn, tuple(args)))
        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                status, payload = outbox.get(timeout=self._poll_s)
            except queue_mod.Empty:
                pass
            else:
                if status == "error":
                    raise JobFailedError(payload, reason="exception")
                return payload
            with self._lock:
                if self._generation != generation:
                    raise JobFailedError("job aborted: worker replaced "
                                         "mid-flight", reason="aborted")
                if not proc.is_alive():
                    reason = "crash"
                    message = f"worker died (exitcode {proc.exitcode})"
                elif time.monotonic() > deadline:
                    reason = "timeout"
                    message = f"job exceeded {self.timeout_s}s"
                else:
                    continue
                self._respawn_locked()
            raise JobFailedError(f"{message}; worker replaced", reason=reason)

    def abort(self) -> None:
        """Kill the running job and respawn; its :meth:`run` sees the
        generation change and raises ``"aborted"``."""
        with self._lock:
            if self._proc is not None and not self._closed:
                self._respawn_locked()

    def close(self) -> None:
        """Stop the process for good; a :meth:`run` in flight raises
        ``"aborted"``."""
        with self._lock:
            self._closed = True
            self._generation += 1
            self._stop_locked()

    def _respawn_locked(self) -> None:
        self._stop_locked()
        ctx = multiprocessing.get_context("spawn")
        self._inbox, self._outbox = ctx.Queue(), ctx.Queue()
        self._proc = ctx.Process(target=_worker_main, daemon=False,
                                 args=(self._inbox, self._outbox))
        self._proc.start()
        self._generation += 1
        _LIVE.add(self)

    def _stop_locked(self) -> None:
        if self._proc is None:
            return
        _LIVE.discard(self)
        self._proc.terminate()
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():  # the job ignored SIGTERM
            self._proc.kill()
            self._proc.join()
        self._inbox.cancel_join_thread()
        self._outbox.cancel_join_thread()
        self._proc = None


def _close_live_workers() -> None:
    for worker in list(_LIVE):
        worker.close()


# At exit multiprocessing runs finalizers of priority >= 0, then joins
# every non-daemonic child: close the workers in between.
multiprocessing.util.Finalize(None, _close_live_workers, exitpriority=0)


class WorkerPool:
    """Run tasks across *workers* processes; collect results in order."""

    def __init__(
        self,
        workers: int = 2,
        *,
        timeout_s: float = 300.0,
        retry: RetryPolicy = DEFAULT_RETRY,
        poll_s: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"need at least one worker: {workers!r}")
        if timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        self.workers = int(workers)
        self.timeout_s = float(timeout_s)
        self.retry = retry
        self._poll_s = float(poll_s)

    def run(
        self,
        tasks: t.Sequence[Task],
        on_result: t.Callable[[int, t.Any], None] | None = None,
    ) -> list[t.Any]:
        """Execute every task; return their values in task order.

        ``on_result(index, value)`` fires as each task finishes (in
        completion order) — the campaign runner uses it to stream
        progress.  Raises :class:`JobFailedError` on the first job
        that fails deterministically or exhausts its attempts; the
        workers are closed before the exception propagates.
        """
        tasks = list(tasks)
        todo: queue_mod.SimpleQueue[int] = queue_mod.SimpleQueue()
        for i in range(len(tasks)):
            todo.put(i)
        done: queue_mod.SimpleQueue[tuple[int, bool, t.Any]] = (
            queue_mod.SimpleQueue())
        workers = [SpawnWorker(timeout_s=self.timeout_s, poll_s=self._poll_s)
                   for _ in range(min(self.workers, len(tasks)))]

        def drive(worker: SpawnWorker) -> None:
            try:
                while True:
                    try:
                        i = todo.get_nowait()
                    except queue_mod.Empty:
                        return
                    done.put((i, True, self._attempt(worker, tasks[i], i)))
            except Exception as exc:  # noqa: BLE001 - raised by run()
                done.put((-1, False, exc))

        threads = [threading.Thread(target=drive, args=(w,), daemon=True)
                   for w in workers]
        results: list[t.Any] = [None] * len(tasks)
        try:
            for thread in threads:
                thread.start()
            for _ in tasks:
                i, ok, value = done.get()
                if not ok:
                    raise value
                results[i] = value
                if on_result is not None:
                    on_result(i, value)
        finally:
            for worker in workers:
                worker.close()
            for thread in threads:
                if thread.is_alive():
                    thread.join()
        return results

    def _attempt(self, worker: SpawnWorker, task: Task, i: int) -> t.Any:
        """Run one task, retrying a crash or timeout within the policy."""
        label = task.label or f"task {i}"
        attempt = 1
        while True:
            try:
                return worker.run(task.fn, task.args)
            except JobFailedError as exc:
                if exc.reason == "exception":
                    message = f"{label} raised:\n{exc}"
                elif (exc.reason in ("crash", "timeout")
                      and attempt < self.retry.max_attempts):
                    attempt += 1
                    continue
                else:
                    message = (f"{label}: worker {exc.reason} (attempt "
                               f"{attempt}/{self.retry.max_attempts})")
                raise JobFailedError(message, job=label,
                                     reason=exc.reason) from None
