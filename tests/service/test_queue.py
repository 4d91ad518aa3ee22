"""Admission policy, shard routing and the shard executor."""

import asyncio
import multiprocessing
import time

import pytest

from repro.errors import AdmissionError, ConfigurationError, JobFailedError
from repro.service.__main__ import build_parser
from repro.service.queue import AdmissionController
from repro.service.shards import ShardRouter, SpawnExecutor


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

        assert asyncio.run(go()) == 0

    def test_abort_ends_a_run_whose_task_has_not_reached_the_worker(self):
        # The abort lands while the run's thread may still be starting
        # the process: the run must end "aborted", not sleep it out.
        executor = SpawnExecutor(timeout_s=60.0)

        async def go():
            run = asyncio.ensure_future(executor.run(time.sleep, (30.0,)))
            await asyncio.sleep(0)  # run() is now awaiting its thread
            try:
                await executor.abort()
                return await run
            finally:
                await executor.aclose()

        start = time.perf_counter()
        with pytest.raises(JobFailedError) as excinfo:
            asyncio.run(go())
        assert excinfo.value.reason == "aborted"
        assert time.perf_counter() - start < 10.0


def test_executor_flag_accepts_only_spawn(capsys):
    assert build_parser().parse_args(["--executor", "spawn"]).executor \
        == "spawn"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--executor", "thread"])
    assert "invalid choice: 'thread'" in capsys.readouterr().err
