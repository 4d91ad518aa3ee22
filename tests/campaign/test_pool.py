"""The spawn worker and its pool: ordering, crash requeue, timeouts.

The job functions live at module top level so ``spawn`` workers can
pickle them by reference; the ones that misbehave do so only on their
first attempt, signalled through a sentinel file, so requeue-once
recovery has something to succeed at.
"""

import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign.pool import SpawnWorker, Task, WorkerPool
from repro.errors import ConfigurationError, JobFailedError
from repro.faults.recovery import RetryPolicy


def _double(value):
    return value * 2


def _crash_on_first_attempt(sentinel_dir, value):
    flag = pathlib.Path(sentinel_dir) / f"crashed-{value}"
    if not flag.exists():
        flag.write_text("1")
        os._exit(13)
    return value


def _always_crash(value):
    os._exit(13)


def _hang_on_first_attempt(sentinel_dir, value):
    flag = pathlib.Path(sentinel_dir) / f"hung-{value}"
    if not flag.exists():
        flag.write_text("1")
        time.sleep(120)
    return value


def _raise(value):
    raise ValueError(f"deterministic failure for {value}")


def _mark_then_sleep(marker, seconds):
    pathlib.Path(marker).write_text("started")
    time.sleep(seconds)


def _start_nested_worker_then_sleep(marker, seconds):
    nested = SpawnWorker(timeout_s=60.0)
    partial = pathlib.Path(f"{marker}.partial")
    partial.write_text(str(nested.run(os.getpid)))
    partial.replace(marker)
    time.sleep(seconds)


def _alive(pid):
    """True while *pid* runs; an exited orphan can stay a zombie until
    init reaps it."""
    state = subprocess.run(["ps", "-o", "stat=", "-p", str(pid)],
                           capture_output=True, text=True).stdout.strip()
    return bool(state) and not state.startswith("Z")


class TestHappyPath:
    def test_results_in_task_order(self):
        pool = WorkerPool(workers=2)
        tasks = [Task(fn=_double, args=(i,)) for i in range(5)]
        assert pool.run(tasks) == [0, 2, 4, 6, 8]

    def test_empty(self):
        assert WorkerPool(workers=2).run([]) == []

    def test_on_result_streams_every_task(self):
        seen = []
        pool = WorkerPool(workers=2)
        tasks = [Task(fn=_double, args=(i,)) for i in range(4)]
        pool.run(tasks, on_result=lambda i, v: seen.append((i, v)))
        assert sorted(seen) == [(0, 0), (1, 2), (2, 4), (3, 6)]

    def test_more_workers_than_cores_run_each_task_once(self):
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = WorkerPool(workers=3, timeout_s=60.0)
            tasks = [Task(fn=_double, args=(i,)) for i in range(40)]
            values = pool.run(tasks, on_result=lambda i, v: seen.append(i))
        finally:
            sys.setswitchinterval(interval)
        assert values == [2 * i for i in range(40)]
        assert sorted(seen) == list(range(40))

    def test_single_worker(self):
        pool = WorkerPool(workers=1)
        assert pool.run([Task(fn=_double, args=(21,))]) == [42]


class TestRecovery:
    def test_crashed_worker_requeues_once(self, tmp_path):
        pool = WorkerPool(workers=2)
        tasks = [
            Task(fn=_crash_on_first_attempt, args=(str(tmp_path), 7),
                 label="crasher"),
            Task(fn=_double, args=(1,)),
        ]
        assert pool.run(tasks) == [7, 2]

    def test_persistent_crash_fails_the_job(self, tmp_path):
        pool = WorkerPool(workers=1)
        with pytest.raises(JobFailedError) as excinfo:
            pool.run([Task(fn=_always_crash, args=(1,), label="doomed")])
        assert excinfo.value.job == "doomed"
        assert excinfo.value.reason == "crash"

    def test_hung_worker_times_out_and_requeues(self, tmp_path):
        # Generous timeout: the first attempt's clock includes spawn +
        # import time, and CI machines are slow.
        pool = WorkerPool(workers=1, timeout_s=6.0)
        tasks = [Task(fn=_hang_on_first_attempt, args=(str(tmp_path), 3),
                      label="hanger")]
        assert pool.run(tasks) == [3]

    def test_deterministic_exception_fails_fast(self, tmp_path):
        pool = WorkerPool(workers=1)
        with pytest.raises(JobFailedError) as excinfo:
            pool.run([Task(fn=_raise, args=(9,), label="raiser")])
        assert excinfo.value.reason == "exception"
        assert "deterministic failure for 9" in str(excinfo.value)
        # fail-fast: no retry sentinel semantics apply to exceptions
        assert excinfo.value.job == "raiser"

    def test_retry_budget_is_the_policy(self, tmp_path):
        # max_attempts=1: no requeue at all, first crash is fatal.
        pool = WorkerPool(
            workers=1,
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.0, jitter=0.0),
        )
        with pytest.raises(JobFailedError):
            pool.run([
                Task(fn=_crash_on_first_attempt, args=(str(tmp_path), 5)),
            ])


class TestValidation:
    def test_bad_workers(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(workers=0)

    def test_bad_timeout(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(workers=1, timeout_s=0)


def _run_in_thread(worker, fn, args):
    """Start ``worker.run(fn, args)`` on a thread; collect its failures."""
    failures = []

    def run():
        try:
            worker.run(fn, args)
        except JobFailedError as exc:
            failures.append(exc)

    runner = threading.Thread(target=run)
    runner.start()
    return runner, failures


def _wait_for(path, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert path.exists()


# Abort a ``campaign`` experiment job once its own pool's workers run.
_ABORT_NESTED_CAMPAIGN = """
import os, subprocess, threading, time
from repro.campaign.pool import SpawnWorker
from repro.errors import JobFailedError
from repro.service.jobs import run_payload

worker = SpawnWorker(timeout_s=120.0)
pid = worker.run(os.getpid)

def abort_once_nested_workers_run():
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        children = subprocess.run(["ps", "-o", "pid=", "--ppid", str(pid)],
                                  capture_output=True, text=True).stdout
        if len(children.split()) >= 2:
            break
        time.sleep(0.02)
    worker.abort()

threading.Thread(target=abort_once_nested_workers_run).start()
try:
    worker.run(run_payload, ("experiment", {"experiment": "campaign",
                                            "preset": "quick"}, None))
except JobFailedError as exc:
    print(exc.reason)
worker.close()
"""


@pytest.fixture
def worker():
    worker = SpawnWorker(timeout_s=30.0)
    yield worker
    worker.close()


class TestSpawnWorker:
    def test_crash_respawns_on_a_new_pid(self, worker):
        first = worker.run(os.getpid)
        with pytest.raises(JobFailedError) as excinfo:
            worker.run(os._exit, (13,))
        assert excinfo.value.reason == "crash"
        assert "exitcode 13" in str(excinfo.value)
        assert worker.run(os.getpid) != first
        assert worker.run(_double, (4,)) == 8

    def test_hang_times_out_and_replaces_the_process(self, worker):
        first = worker.run(os.getpid)
        # Shorten the clock once the process is up: the first run's
        # clock includes spawn and import time.
        worker.timeout_s = 0.5
        with pytest.raises(JobFailedError) as excinfo:
            worker.run(time.sleep, (60,))
        assert excinfo.value.reason == "timeout"
        assert not _alive(first)
        assert worker.pid not in (None, first)

    def test_exception_keeps_the_process(self, worker):
        first = worker.run(os.getpid)
        with pytest.raises(JobFailedError) as excinfo:
            worker.run(_raise, (5,))
        assert excinfo.value.reason == "exception"
        assert "deterministic failure for 5" in str(excinfo.value)
        assert worker.run(os.getpid) == first

    def test_abort_kills_the_job_and_respawns(self, worker, tmp_path):
        first = worker.run(os.getpid)
        marker = tmp_path / "started"
        runner, failures = _run_in_thread(
            worker, _mark_then_sleep, (str(marker), 60))
        _wait_for(marker)
        worker.abort()
        runner.join(timeout=10.0)
        assert not runner.is_alive()
        assert [exc.reason for exc in failures] == ["aborted"]
        assert not _alive(first)
        assert worker.run(os.getpid) != first

    def test_abort_takes_a_jobs_own_workers_with_it(self, worker, tmp_path):
        marker = tmp_path / "nested-pid"
        runner, failures = _run_in_thread(
            worker, _start_nested_worker_then_sleep, (str(marker), 60))
        _wait_for(marker)
        nested = int(marker.read_text())
        worker.abort()
        runner.join(timeout=10.0)
        assert [exc.reason for exc in failures] == ["aborted"]
        deadline = time.monotonic() + 10.0
        while _alive(nested) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(nested)

    def test_abort_of_a_nested_campaign_leaks_no_semaphore(self):
        # The resource tracker reports leaks when the parent exits, so
        # the abort runs in a process of its own.
        done = subprocess.run(
            [sys.executable, "-c", _ABORT_NESTED_CAMPAIGN],
            capture_output=True, text=True, timeout=180.0,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["aborted"], done.stderr
        assert "leaked semaphore" not in done.stderr, done.stderr

    def test_close_stops_the_process_for_good(self, worker):
        pid = worker.run(os.getpid)
        worker.close()
        assert worker.pid is None
        assert not _alive(pid)
        with pytest.raises(JobFailedError) as excinfo:
            worker.run(os.getpid)
        assert excinfo.value.reason == "aborted"

    def test_close_right_after_a_job_exits_in_order(self):
        # A SIGTERM that lands just as the worker goes back to its
        # inbox must still end it by its own handler: no 5 s join, no
        # SIGKILL (exit code -9).
        for _ in range(10):
            worker = SpawnWorker(timeout_s=30.0)
            worker.run(os.getpid)
            proc = worker._proc
            start = time.perf_counter()
            worker.close()
            assert time.perf_counter() - start < 1.0
            assert proc.exitcode == 0
