"""The service core: submission, dedupe, cancel, retry, cache, health."""

import asyncio
import json
import time

import pytest

from repro.errors import AdmissionError, ServiceError
from repro.service.core import ServiceConfig, TraceService
from repro.service.health import check_service
from repro.service.jobs import CANCELLED, DONE, FAILED, TERMINAL


async def wait_terminal(service, job, timeout_s=60.0):
    history, queue = service.subscribe(job.id)
    try:
        if any(e.event in ("done", "failed", "cancelled") for e in history):
            return
        async with asyncio.timeout(timeout_s):
            while True:
                event = await queue.get()
                if event.event in ("done", "failed", "cancelled"):
                    return
    finally:
        service.unsubscribe(job.id, queue)


async def started(service, job, timeout_s=30.0):
    async with asyncio.timeout(timeout_s):
        while job.state == "queued":
            await asyncio.sleep(0.005)


def one_shard(**overrides) -> TraceService:
    return TraceService(ServiceConfig(**{"shards": 1, **overrides}))


class TestLifecycle:
    def test_sleep_job_runs_to_done(self):
        async def go():
            service = one_shard()
            await service.start()
            try:
                job = service.submit("sleep", {"duration_s": 0.0,
                                               "label": "ok"})
                await wait_terminal(service, job)
                assert job.state == DONE
                assert job.completions == 1
                assert job.result is not None and job.result["wall_s"] >= 0
                doc = json.loads(job.result["result_json"])
                assert doc["rows"][0]["label"] == "ok"
                assert check_service(service) == []
            finally:
                await service.aclose()

        asyncio.run(go())

    def test_event_log_orders_the_lifecycle(self):
        async def go():
            service = one_shard()
            await service.start()
            try:
                job = service.submit("sleep", {"label": "events"})
                await wait_terminal(service, job)
                names = [e.event for e in job.events]
                assert names == ["queued", "started", "done"]
                assert [e.seq for e in job.events] == [1, 2, 3]
            finally:
                await service.aclose()

        asyncio.run(go())

    def test_submit_after_close_is_refused(self):
        async def go():
            service = one_shard()
            await service.start()
            await service.aclose()
            with pytest.raises(ServiceError, match="shutting down"):
                service.submit("sleep", {})

        asyncio.run(go())

    def test_unknown_job_lookup(self):
        service = one_shard()
        with pytest.raises(ServiceError, match="unknown job"):
            service.job("j99999")


class TestDedupe:
    def test_duplicate_submit_attaches_to_the_twin(self):
        async def go():
            service = one_shard()
            await service.start()
            try:
                a = service.submit("sleep", {"duration_s": 0.2,
                                             "label": "twin"},
                                   client="one")
                b = service.submit("sleep", {"duration_s": 0.2,
                                             "label": "twin"},
                                   client="two")
                assert b is a  # same record, not a second run
                await wait_terminal(service, a)
                c = service.submit("sleep", {"duration_s": 0.2,
                                             "label": "twin"})
                assert c.id == a.id and c.state == DONE
                assert a.completions == 1
            finally:
                await service.aclose()

        asyncio.run(go())

    def test_failed_jobs_may_be_resubmitted_fresh(self):
        async def go():
            service = one_shard()
            await service.start()
            try:
                a = service.submit("sleep", {"fail": True, "label": "f"})
                await wait_terminal(service, a)
                assert a.state == FAILED and a.error
                b = service.submit("sleep", {"fail": True, "label": "f"})
                assert b.id != a.id
                await wait_terminal(service, b)
            finally:
                await service.aclose()

        asyncio.run(go())


class TestAdmission:
    def test_capacity_then_quota_rejections(self):
        async def go():
            service = one_shard(capacity=2, per_client_quota=1)
            await service.start()
            try:
                service.submit("sleep", {"duration_s": 3.0, "label": "h0"},
                               client="a")
                service.submit("sleep", {"duration_s": 3.0, "label": "h1"},
                               client="b")
                with pytest.raises(AdmissionError) as excinfo:
                    service.submit("sleep", {"label": "over"}, client="c")
                assert excinfo.value.reason == "capacity"
                assert excinfo.value.retry_after_s > 0
                counts = service.counts()
                assert counts["queued"] + counts["running"] == 2
            finally:
                await service.aclose()

        asyncio.run(go())

    def test_quota_rejection_names_the_client(self):
        async def go():
            service = one_shard(capacity=8, per_client_quota=1)
            await service.start()
            try:
                service.submit("sleep", {"duration_s": 3.0, "label": "g"},
                               client="greedy")
                with pytest.raises(AdmissionError) as excinfo:
                    service.submit("sleep", {"label": "g2"},
                                   client="greedy")
                assert excinfo.value.reason == "quota"
                assert "greedy" in str(excinfo.value)
            finally:
                await service.aclose()

        asyncio.run(go())

    def test_rejected_submissions_never_become_jobs(self):
        async def go():
            service = one_shard(capacity=1)
            await service.start()
            try:
                service.submit("sleep", {"duration_s": 3.0, "label": "h"})
                before = len(service.jobs())
                with pytest.raises(AdmissionError):
                    service.submit("sleep", {"label": "refused"})
                assert len(service.jobs()) == before
            finally:
                await service.aclose()

        asyncio.run(go())


class TestCancel:
    def test_cancel_queued_job(self):
        async def go():
            service = one_shard()
            await service.start()
            try:
                hold = service.submit("sleep", {"duration_s": 3.0,
                                                "label": "hold"})
                queued = service.submit("sleep", {"duration_s": 3.0,
                                                  "label": "queued"},
                                        client="other")
                await started(service, hold)
                await service.cancel(queued.id)
                assert queued.state == CANCELLED
                assert queued.attempts == 0  # never reached a worker
                await service.cancel(hold.id)
            finally:
                await service.aclose()

        asyncio.run(go())

    def test_cancel_while_running_is_prompt(self):
        async def go():
            service = one_shard(capacity=1)
            await service.start()
            try:
                job = service.submit("sleep", {"duration_s": 30.0,
                                               "label": "doomed"})
                await started(service, job)
                t0 = time.perf_counter()
                await service.cancel(job.id)
                # Returned only once the job is terminal: the one
                # admission slot is already free.
                assert job.state == CANCELLED
                after = service.submit("sleep", {"label": "after"})
                assert time.perf_counter() - t0 < 5.0  # not the 30 s
                assert job.completions == 1
                await wait_terminal(service, after, timeout_s=60.0)
                assert check_service(service) == []
            finally:
                await service.aclose()

        asyncio.run(go())

    def test_cancel_while_running_on_spawn_replaces_the_worker(self):
        async def go():
            service = one_shard(job_timeout_s=120.0)
            await service.start()
            executor = service._executors[0]
            try:
                job = service.submit("sleep", {"duration_s": 30.0,
                                               "label": "doomed"})
                await started(service, job)
                async with asyncio.timeout(30.0):
                    while (pid := executor.worker_pid()) is None:
                        await asyncio.sleep(0.01)
                await service.cancel(job.id)
                assert executor.worker_pid() not in (None, pid)
                after = service.submit("sleep", {"label": "after"})
                await wait_terminal(service, after, timeout_s=60.0)
                assert after.state == DONE
                assert check_service(service) == []
            finally:
                await service.aclose()

        asyncio.run(go())

    def test_cancel_terminal_job_is_a_noop(self):
        async def go():
            service = one_shard()
            await service.start()
            try:
                job = service.submit("sleep", {"label": "done"})
                await wait_terminal(service, job)
                again = await service.cancel(job.id)
                assert again.state == DONE and again.completions == 1
            finally:
                await service.aclose()

        asyncio.run(go())


class TestRetry:
    def test_deterministic_failure_is_not_retried(self):
        async def go():
            service = one_shard()
            await service.start()
            try:
                job = service.submit("sleep", {"fail": True, "label": "d"})
                await wait_terminal(service, job)
                assert job.state == FAILED
                assert job.attempts == 1
            finally:
                await service.aclose()

        asyncio.run(go())

    def test_crashed_worker_requeues_and_recovers(self, tmp_path):
        """The spawn worker hard-exits mid-job; the shard requeues onto
        a fresh worker and attempt 2 succeeds."""
        marker = tmp_path / "crash-once"

        async def go():
            service = one_shard(job_timeout_s=120.0)
            await service.start()
            try:
                job = service.submit("sleep", {
                    "duration_s": 0.0, "label": "crashy",
                    "crash_unless": str(marker),
                })
                await wait_terminal(service, job, timeout_s=120.0)
                assert job.state == DONE
                assert job.attempts == 2
                assert "requeued" in [e.event for e in job.events]
                assert check_service(service) == []
            finally:
                await service.aclose()

        asyncio.run(go())
        assert marker.exists()


class TestDiskCache:
    def test_warm_resubmit_completes_at_the_door(self, tmp_path):
        cache_dir = tmp_path / "cache"
        payload = {"seed": 12, "users": 400, "chunk": 128}

        async def first():
            service = one_shard(cache_dir=cache_dir)
            await service.start()
            try:
                job = service.submit("trace", payload)
                await wait_terminal(service, job)
                assert job.state == DONE and not job.cache_hit
                return job.result["result_json"]
            finally:
                await service.aclose()

        async def second():
            service = one_shard(cache_dir=cache_dir)
            await service.start()
            try:
                job = service.submit("trace", payload)
                # A disk hit completes before submit() returns.
                assert job.state == DONE and job.cache_hit
                assert job.completions == 1
                return job.result["result_json"]
            finally:
                await service.aclose()

        fresh = asyncio.run(first())
        warm = asyncio.run(second())
        assert json.loads(fresh)["rows"] == json.loads(warm)["rows"]

    def test_campaign_hit_on_a_service_entry_reads_like_a_fresh_run(
            self, tmp_path):
        from repro.campaign.cache import ResultCache
        from repro.campaign.runner import run_campaign
        from repro.campaign.spec import CampaignSpec

        cache_dir = tmp_path / "cache"

        async def serve():
            service = one_shard(cache_dir=cache_dir)
            await service.start()
            try:
                job = service.submit("experiment", {
                    "experiment": "table01", "preset": "quick", "seed": 3})
                await wait_terminal(service, job)
                assert job.state == DONE and not job.cache_hit
            finally:
                await service.aclose()

        asyncio.run(serve())
        spec = CampaignSpec(experiments=("table01",), presets=("quick",),
                            seeds=(3,))
        hit = run_campaign(spec, cache=ResultCache(cache_dir))
        fresh = run_campaign(spec)
        assert hit.outcomes[0].cache_hit and not fresh.outcomes[0].cache_hit
        assert set(hit.outcomes[0].result.meta) \
            == set(fresh.outcomes[0].result.meta)
        assert "config_fingerprint" in hit.outcomes[0].result.meta


class TestHealth:
    def test_violations_surface(self):
        async def go():
            service = one_shard()
            await service.start()
            try:
                job = service.submit("sleep", {"label": "h"})
                await wait_terminal(service, job)
                assert check_service(service) == []
                job.completions = 2  # corrupt the ledger on purpose
                violations = check_service(service)
                assert any(v.check == "service.exactly_once"
                           for v in violations)
                job.completions = 1
            finally:
                await service.aclose()

        asyncio.run(go())

    def test_terminal_states_are_terminal(self):
        assert TERMINAL == {DONE, FAILED, CANCELLED}
