"""Admission policy and shard routing/executors."""

import asyncio
import multiprocessing
import time

import pytest

from repro.errors import AdmissionError, ConfigurationError, JobFailedError
from repro.service.queue import AdmissionController
from repro.service.shards import (
    ShardRouter,
    SpawnExecutor,
    ThreadExecutor,
    make_executor,
)


class TestAdmission:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(capacity=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(per_client_quota=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(retry_after_s=0.0)

    def test_admits_under_both_bounds(self):
        AdmissionController(capacity=4, per_client_quota=2).admit(
            "a", backlog=3, client_active=1
        )

    def test_capacity_rejection(self):
        controller = AdmissionController(capacity=2, per_client_quota=2)
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit("a", backlog=2, client_active=0)
        assert excinfo.value.reason == "capacity"
        assert excinfo.value.retry_after_s > 0

    def test_quota_rejection(self):
        controller = AdmissionController(capacity=10, per_client_quota=2)
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit("chatty", backlog=3, client_active=2)
        assert excinfo.value.reason == "quota"

    def test_retry_after_scales_with_overload(self):
        controller = AdmissionController(capacity=4, retry_after_s=0.5)
        at_line = controller._hint(4)
        deep = controller._hint(40)
        assert at_line == pytest.approx(0.5)
        assert deep == pytest.approx(2.0)  # capped at 4x


class TestShardRouter:
    def test_deterministic_and_in_range(self):
        router = ShardRouter(4)
        keys = [f"job-{i}" for i in range(200)]
        first = [router.shard_for(k) for k in keys]
        assert first == [router.shard_for(k) for k in keys]
        assert all(0 <= shard < 4 for shard in first)

    def test_spreads_load(self):
        router = ShardRouter(4)
        shards = {router.shard_for(f"job-{i}") for i in range(100)}
        assert shards == {0, 1, 2, 3}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(0)


def _boom():
    raise ValueError("deterministic bug")


def _slow():
    time.sleep(3.0)
    return "late"


def run_async(coro):
    """``asyncio.run`` minus ``shutdown_default_executor`` — that
    shutdown *joins* abandoned job threads, which is exactly the wait
    the thread executor's abandonment semantics avoid."""
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


class TestThreadExecutor:
    def test_runs_and_returns(self):
        async def go():
            return await ThreadExecutor().run(lambda a, b: a + b, (2, 3))

        assert run_async(go()) == 5

    def test_in_job_exception_is_execution_error(self):
        async def go():
            await ThreadExecutor().run(_boom, ())

        with pytest.raises(JobFailedError, match="deterministic bug") as excinfo:
            run_async(go())
        assert excinfo.value.reason == "exception"

    def test_timeout_is_a_crash_and_returns_promptly(self):
        async def go():
            await ThreadExecutor(timeout_s=0.1).run(_slow, ())

        start = time.perf_counter()
        with pytest.raises(JobFailedError) as excinfo:
            run_async(go())
        assert excinfo.value.reason == "timeout"
        # The 3s thread is abandoned, not waited out.
        assert time.perf_counter() - start < 2.0

    def test_abort_ends_the_running_job(self):
        executor = ThreadExecutor()

        async def go():
            run = asyncio.ensure_future(executor.run(_slow, ()))
            await asyncio.sleep(0.05)  # the thread is inside _slow
            await executor.abort()
            await run

        start = time.perf_counter()
        with pytest.raises(JobFailedError) as excinfo:
            run_async(go())
        assert excinfo.value.reason == "aborted"
        assert time.perf_counter() - start < 1.0


def _start_and_join_a_child():
    child = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(0.0,))
    child.start()
    child.join()
    return child.exitcode


class TestSpawnExecutor:
    def test_a_job_may_start_processes_of_its_own(self):
        # Nested experiments (campaign, service) start spawn children;
        # a daemonic worker may not.
        executor = SpawnExecutor(timeout_s=60.0)

        async def go():
            try:
                return await executor.run(_start_and_join_a_child, ())
            finally:
                await executor.aclose()

        assert run_async(go()) == 0


def test_make_executor_rejects_unknown_kind():
    with pytest.raises(ConfigurationError, match="thread"):
        make_executor("fork", timeout_s=1.0)
