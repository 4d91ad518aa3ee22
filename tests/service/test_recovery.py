"""Crash recovery, graceful drain, deadline shedding, breakers —
the durable-service story end to end, in-process."""

import asyncio

import pytest

from repro import faults
from repro.errors import (
    AdmissionError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.service import journal as journal_mod
from repro.service.breaker import BreakerConfig
from repro.service.core import ServiceConfig, TraceService
from repro.service.core import _crash_process  # noqa: F401 - patched
from repro.service.health import check_service
from repro.service.journal import JobJournal, JournalConfig
from repro.sim import RngRegistry
from tests.service.test_service import started, wait_terminal


def durable_service(tmp_path, **overrides) -> TraceService:
    config = ServiceConfig(**{
        "shards": 1,
        "journal_dir": tmp_path / "journal",
        "journal": JournalConfig(fsync="never"),
        **overrides,
    })
    return TraceService(config)


class TestCrashRecovery:
    def test_queued_jobs_replay_and_finish_exactly_once(self, tmp_path):
        """Abrupt aclose() is the in-process stand-in for SIGKILL:
        queued jobs stay journaled in-flight and the next boot
        re-admits and finishes each exactly once."""
        async def crash():
            service = durable_service(tmp_path)
            await service.start()
            hold = service.submit("sleep", {"duration_s": 2.0,
                                            "label": "hold"})
            queued = [
                service.submit("sleep", {"duration_s": 0.0,
                                         "label": f"q{i}"},
                               client=f"c{i}")
                for i in range(3)
            ]
            await started(service, hold)
            await service.aclose()  # no drain: crash-like
            assert hold.state == "running"
            return [job.key for job in [hold, *queued]]

        async def reboot(keys):
            service = durable_service(tmp_path)
            await service.start()
            try:
                recovery = service.last_recovery
                assert recovery is not None and not recovery.clean
                assert len(recovery.live) == 4  # hold + 3 queued
                for job in service.jobs():
                    await wait_terminal(service, job, timeout_s=60.0)
                assert {job.key for job in service.jobs()} == set(keys)
                assert all(job.state == "done" and job.completions == 1
                           for job in service.jobs())
                assert check_service(service) == []
            finally:
                await service.aclose(drain=True)

        keys = asyncio.run(crash())
        asyncio.run(reboot(keys))

    def test_cancel_then_abrupt_close_does_not_replay(self, tmp_path):
        """A running job cancelled just before an abrupt aclose() ends
        cancelled, so the next boot has nothing to replay."""
        async def crash():
            service = durable_service(tmp_path, job_timeout_s=120.0)
            await service.start()
            job = service.submit("sleep", {"duration_s": 30.0,
                                           "label": "doomed"})
            await started(service, job)
            await service.cancel(job.id)
            await service.aclose()
            assert job.state == "cancelled" and job.completions == 1

        async def reboot():
            service = durable_service(tmp_path)
            await service.start()
            try:
                assert service.last_recovery.live == {}
                assert service.jobs() == ()
            finally:
                await service.aclose()

        asyncio.run(crash())
        asyncio.run(reboot())

    def test_recovered_job_keeps_client_and_priority(self, tmp_path):
        async def crash():
            service = durable_service(tmp_path)
            await service.start()
            service.submit("sleep", {"duration_s": 30.0, "label": "hold"})
            # Long enough to still be in flight at the crash (its
            # priority puts it at the head of the shard queue).
            vip = service.submit("sleep", {"duration_s": 30.0,
                                           "label": "vip"},
                                 client="alice", priority=7,
                                 deadline_s=120.0)
            await started(service, vip)
            await service.aclose()

        async def reboot():
            service = durable_service(tmp_path)
            await service.start()
            try:
                vip = next(job for job in service.jobs()
                           if job.payload.get("label") == "vip")
                assert vip.client == "alice"
                assert vip.priority == 7
                assert vip.deadline_s == 120.0
            finally:
                await service.aclose()

        asyncio.run(crash())
        asyncio.run(reboot())

    def test_cache_complete_job_finishes_at_the_door(self, tmp_path):
        cache_dir = tmp_path / "cache"
        payload = {"seed": 5, "users": 300, "chunk": 64}

        async def warm():
            service = TraceService(ServiceConfig(
                shards=1, cache_dir=cache_dir,
            ))
            await service.start()
            try:
                job = service.submit("trace", payload)
                await wait_terminal(service, job)
                assert job.state == "done"
                return job.key
            finally:
                await service.aclose()

        key = asyncio.run(warm())

        # Forge the journal a crashed instance would have left: the
        # trace job accepted but never finished.
        j = JobJournal(tmp_path / "journal", JournalConfig(fsync="never"))
        j.append(journal_mod.ACCEPTED, id="j00000", key=key, kind="trace",
                 payload=payload, client="crashed", priority=0)
        j.close()

        async def reboot():
            service = durable_service(tmp_path, cache_dir=cache_dir)
            await service.start()
            try:
                job = next(iter(service.jobs()))
                # Recovered through the cache probe: done before any
                # worker ran, exactly the warm-restart promise.
                assert job.state == "done" and job.cache_hit
                assert job.completions == 1
            finally:
                await service.aclose(drain=True)

        asyncio.run(reboot())

    def test_torn_tail_never_wedges_a_boot(self, tmp_path):
        j = JobJournal(tmp_path / "journal", JournalConfig(fsync="never"))
        j.append(journal_mod.ACCEPTED, id="j00000", key="sleep:0.0:t",
                 kind="sleep", payload={"label": "t"}, client="c",
                 priority=0)
        j.close()
        segment = j.active_segment
        segment.write_bytes(segment.read_bytes() + b"5c5c5c5c {\"torn")

        async def reboot():
            service = durable_service(tmp_path)
            await service.start()
            try:
                assert service.last_recovery.torn_records == 1
                assert len(service.jobs()) == 1  # the good record lives
                for job in service.jobs():
                    await wait_terminal(service, job)
            finally:
                await service.aclose(drain=True)

        asyncio.run(reboot())

    def test_kill_between_replay_and_readmission_loses_nothing(
            self, tmp_path, monkeypatch):
        """Regression: recovery must not compact the old segments away
        before the live jobs are re-journaled under their new ids — a
        kill inside that window used to lose every accepted in-flight
        job.  Simulated by dying on the first re-admission."""
        j = JobJournal(tmp_path / "journal", JournalConfig(fsync="never"))
        for i in range(2):
            j.append(journal_mod.ACCEPTED, id=f"j0000{i}",
                     key=f"sleep:0.0:k{i}", kind="sleep",
                     payload={"label": f"k{i}"}, client="c", priority=0)
        j.close()

        def killed(self, *args, **kwargs):
            raise KeyboardInterrupt  # stand-in for SIGKILL mid-recovery

        monkeypatch.setattr(TraceService, "submit", killed)

        async def boot_and_die():
            service = durable_service(tmp_path)
            with pytest.raises(KeyboardInterrupt):
                await service.start()
            for task in service.shard_tasks():
                task.cancel()
            await asyncio.gather(*service.shard_tasks(),
                                 return_exceptions=True)

        asyncio.run(boot_and_die())

        state = JobJournal(tmp_path / "journal",
                           JournalConfig(fsync="never")).replay()
        assert len(state.live) == 2  # both envelopes still on disk

    def test_rotation_during_readmission_carries_the_rest(
            self, tmp_path, monkeypatch):
        """Re-admission appends can cross the rotation threshold: the
        compacted segment must still hold every replayed envelope not
        yet re-admitted.  Simulated by dying on the third of five."""
        j = JobJournal(tmp_path / "journal", JournalConfig(fsync="never"))
        for i in range(5):
            j.append(journal_mod.ACCEPTED, id=f"old{i}",
                     key=f"sleep:0.0:k{i}", kind="sleep",
                     payload={"label": f"k{i}"}, client="c", priority=0)
        j.close()
        readmit = TraceService.submit
        calls = []

        def die_on_the_third(self, *args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt  # stand-in for SIGKILL
            return readmit(self, *args, **kwargs)

        monkeypatch.setattr(TraceService, "submit", die_on_the_third)

        async def boot_and_die():
            service = durable_service(tmp_path, journal=JournalConfig(
                fsync="never", rotate_records=4))
            with pytest.raises(KeyboardInterrupt):
                await service.start()
            for task in service.shard_tasks():
                task.cancel()
            await asyncio.gather(*service.shard_tasks(),
                                 return_exceptions=True)

        asyncio.run(boot_and_die())

        segments = sorted((tmp_path / "journal").glob("seg-*.jsonl"))
        assert [p.name for p in segments] != ["seg-00000001.jsonl"]
        state = JobJournal(tmp_path / "journal",
                           JournalConfig(fsync="never")).replay()
        assert {f"old{i}" for i in range(2, 5)} <= set(state.live)
        assert {e["payload"]["label"] for e in state.live.values()} \
            == {f"k{i}" for i in range(5)}

    def test_unknown_experiment_in_journal_is_skipped(self, tmp_path):
        j = JobJournal(tmp_path / "journal", JournalConfig(fsync="never"))
        j.append(journal_mod.ACCEPTED, id="j00000", key="gone@quick#s0",
                 kind="experiment",
                 payload={"experiment": "renamed-away"},
                 client="c", priority=0)
        j.close()

        async def reboot():
            service = durable_service(tmp_path)
            await service.start()
            try:
                assert service.jobs() == ()  # dropped, not fatal
            finally:
                await service.aclose(drain=True)

        asyncio.run(reboot())


class TestGracefulDrain:
    def test_drain_finishes_inflight_and_refuses_new(self, tmp_path):
        async def go():
            service = durable_service(tmp_path)
            await service.start()
            job = service.submit("sleep", {"duration_s": 0.3,
                                           "label": "inflight"})
            await started(service, job)
            closer = asyncio.ensure_future(service.aclose(drain=True))
            await asyncio.sleep(0.05)
            assert service.draining
            with pytest.raises(ServiceUnavailableError,
                               match="draining") as excinfo:
                service.submit("sleep", {"label": "late"})
            assert excinfo.value.retry_after_s > 0
            await closer
            assert job.state == "done" and job.completions == 1

        asyncio.run(go())

    def test_clean_shutdown_skips_replay(self, tmp_path):
        async def drain():
            service = durable_service(tmp_path)
            await service.start()
            job = service.submit("sleep", {"duration_s": 0.0,
                                           "label": "clean"})
            await wait_terminal(service, job)
            await service.aclose(drain=True)

        async def reboot():
            service = durable_service(tmp_path)
            await service.start()
            try:
                assert service.last_recovery.clean
                assert service.jobs() == ()  # nothing replayed
            finally:
                await service.aclose(drain=True)

        asyncio.run(drain())
        asyncio.run(reboot())

    def test_drain_deadline_caps_the_wait(self, tmp_path):
        async def go():
            service = durable_service(tmp_path)
            await service.start()
            job = service.submit("sleep", {"duration_s": 30.0,
                                           "label": "slow"})
            await started(service, job)
            async with asyncio.timeout(10.0):
                await service.aclose(drain=True, drain_timeout_s=0.2)
            # The job did not finish; the journal is dirty on purpose.
            assert job.state != "done"

        asyncio.run(go())

        async def reboot():
            service = durable_service(tmp_path)
            await service.start()
            try:
                assert not service.last_recovery.clean
                assert len(service.last_recovery.live) == 1
                await service.cancel(next(iter(service.jobs())).id)
            finally:
                await service.aclose()

        asyncio.run(reboot())


class TestDeadlineShedding:
    def test_unmeetable_deadline_is_shed(self, tmp_path):
        async def go():
            service = durable_service(tmp_path)
            await service.start()
            try:
                service._note_wall(2.0)  # EWMA evidence: jobs take ~2s
                hold = service.submit("sleep", {"duration_s": 30.0,
                                                "label": "hold"})
                await started(service, hold)
                with pytest.raises(AdmissionError) as excinfo:
                    service.submit("sleep", {"duration_s": 0.0,
                                             "label": "urgent"},
                                   client="b", deadline_s=0.5)
                assert excinfo.value.reason == "deadline"
                assert excinfo.value.retry_after_s > 0
                # A generous deadline still gets in.
                ok = service.submit("sleep", {"duration_s": 0.0,
                                              "label": "patient"},
                                    client="b", deadline_s=120.0)
                assert ok.state == "queued"
            finally:
                await service.aclose()

        asyncio.run(go())

    def test_jobs_cancelled_while_queued_add_no_wait(self, tmp_path):
        """Regression: the estimate once added the shard queue's size,
        which still holds jobs cancelled while queued, so five
        cancelled jobs shed a deadline that one running job meets."""
        async def go():
            service = durable_service(tmp_path)
            await service.start()
            try:
                service._note_wall(0.2)  # EWMA evidence: jobs take 0.2s
                hold = service.submit("sleep", {"duration_s": 3.0,
                                                "label": "hold"})
                await started(service, hold)
                for index in range(5):
                    queued = service.submit(
                        "sleep", {"duration_s": 3.0, "label": f"q{index}"},
                        client="b")
                    await service.cancel(queued.id)
                counts = service.counts()
                assert (counts["queued"], counts["running"]) == (0, 1)
                # One running job plus the newcomer: 0.4s <= 0.5s.
                job = service.submit("sleep", {"label": "urgent"},
                                     client="c", deadline_s=0.5)
                assert job.state == "queued"
                await service.cancel(hold.id)
            finally:
                await service.aclose()

        asyncio.run(go())

    def test_no_history_never_sheds(self, tmp_path):
        async def go():
            service = durable_service(tmp_path)
            await service.start()
            try:
                job = service.submit("sleep", {"label": "first"},
                                     deadline_s=0.001)
                await wait_terminal(service, job)
                assert job.state == "done"
            finally:
                await service.aclose(drain=True)

        asyncio.run(go())

    def test_nonpositive_deadline_is_a_client_error(self, tmp_path):
        async def go():
            service = durable_service(tmp_path)
            await service.start()
            try:
                with pytest.raises(ServiceError, match="deadline"):
                    service.submit("sleep", {"label": "x"}, deadline_s=-1)
            finally:
                await service.aclose()

        asyncio.run(go())


class TestBreakerIntegration:
    def test_crashy_shard_trips_then_probes_back(self, tmp_path):
        """A spawn worker that hard-exits trips the 1-failure breaker;
        admission sheds during the cooldown; the half-open probe (the
        requeued attempt, marker now present) closes it again."""
        marker = tmp_path / "crash-once"

        async def go():
            service = TraceService(ServiceConfig(
                shards=1, job_timeout_s=120.0,
                breaker=BreakerConfig(failure_threshold=1, cooldown_s=0.4),
            ))
            await service.start()
            breaker = service.breakers[0]
            try:
                job = service.submit("sleep", {
                    "duration_s": 0.0, "label": "crashy",
                    "crash_unless": str(marker),
                })
                # Wait for the crash to trip the breaker.
                async with asyncio.timeout(60.0):
                    while breaker.state == "closed":
                        await asyncio.sleep(0.01)
                if breaker.shedding:
                    with pytest.raises(AdmissionError) as excinfo:
                        service.submit("sleep", {"label": "shed"},
                                       client="other")
                    assert excinfo.value.reason == "breaker"
                await wait_terminal(service, job, timeout_s=120.0)
                assert job.state == "done"
                assert breaker.state == "closed"  # probe succeeded
                assert any(new == "open" for _o, new in breaker.transitions)
                assert check_service(service) == []
            finally:
                await service.aclose()

        asyncio.run(go())


class TestCancelAtOpenBreaker:
    def test_cancel_while_parked_at_open_breaker(self, tmp_path):
        """Regression: cancelling a job the shard loop had dequeued and
        parked behind an open breaker used to kill the loop (the
        popped cancel event raised KeyError) and could complete the
        job a second time; now the loop skips it, hands the probe slot
        back, and keeps serving."""
        async def go():
            service = durable_service(
                tmp_path,
                breaker=BreakerConfig(failure_threshold=1, cooldown_s=0.3))
            await service.start()
            breaker = service.breakers[0]
            try:
                # Submit, then trip the breaker before yielding to the
                # event loop: the shard loop dequeues the job and
                # parks at the gate.
                job = service.submit("sleep", {"duration_s": 0.0,
                                               "label": "parked"})
                breaker.record_failure()
                assert breaker.state == "open"
                await asyncio.sleep(0.05)  # loop dequeues, parks
                await service.cancel(job.id)
                assert job.state == "cancelled"
                await asyncio.sleep(0.4)  # cooldown elapses, gate opens
                assert not service.shard_tasks()[0].done()
                assert job.state == "cancelled" and job.completions == 1
                after = service.submit("sleep", {"duration_s": 0.0,
                                                 "label": "after"})
                await wait_terminal(service, after)
                assert after.state == "done"
                assert breaker.state == "closed"
                assert check_service(service) == []
            finally:
                await service.aclose(drain=True)

        asyncio.run(go())


    def test_cancel_during_retry_wait_dispatches_no_attempt(self,
                                                            tmp_path):
        """A crash trips the breaker and parks the retry at its gate; a
        cancel there ends the job without a second attempt and leaves
        no probe slot taken, so the shard serves again once the
        breaker half-opens."""
        marker = tmp_path / "crash-once"

        async def go():
            service = TraceService(ServiceConfig(
                shards=1, job_timeout_s=120.0,
                breaker=BreakerConfig(failure_threshold=1, cooldown_s=0.4),
            ))
            await service.start()
            breaker = service.breakers[0]
            try:
                job = service.submit("sleep", {
                    "duration_s": 0.0, "label": "crashy",
                    "crash_unless": str(marker),
                })
                async with asyncio.timeout(60.0):
                    while "requeued" not in [e.event for e in job.events]:
                        await asyncio.sleep(0.005)
                assert breaker.state == "open"
                await service.cancel(job.id)
                await wait_terminal(service, job, timeout_s=10.0)
                assert job.state == "cancelled" and job.completions == 1
                assert job.attempts == 1
                assert not breaker.probe_in_flight
                # The cancel did not wait out the cooldown; admission
                # sheds for the shard until it ends.
                await asyncio.sleep(breaker.cooldown_remaining())
                after = service.submit("sleep", {"label": "after"},
                                       client="other")
                await wait_terminal(service, after, timeout_s=60.0)
                assert after.state == "done"
                assert breaker.state == "closed"
                assert check_service(service) == []
            finally:
                await service.aclose()

        asyncio.run(go())

    def test_cancel_returns_without_waiting_out_the_cooldown(self,
                                                             tmp_path):
        """A cancel of a retry parked at an open breaker answers once
        the job is cancelled, not when the cooldown ends."""
        marker = tmp_path / "crash-once"

        async def go():
            service = TraceService(ServiceConfig(
                shards=1, job_timeout_s=120.0,
                breaker=BreakerConfig(failure_threshold=1, cooldown_s=60.0),
            ))
            await service.start()
            try:
                job = service.submit("sleep", {
                    "duration_s": 0.0, "label": "crashy",
                    "crash_unless": str(marker),
                })
                async with asyncio.timeout(60.0):
                    while "requeued" not in [e.event for e in job.events]:
                        await asyncio.sleep(0.005)
                async with asyncio.timeout(10.0):
                    await service.cancel(job.id)
                assert job.state == "cancelled" and job.completions == 1
                assert job.attempts == 1
            finally:
                await service.aclose()

        asyncio.run(go())

class TestCrashFault:
    def test_service_crash_fault_fires_at_dispatch(self, tmp_path,
                                                   monkeypatch):
        """The ``service.crash`` chaos kind calls the process-killer at
        a dispatch point; patched here to something observable."""
        from repro.service import core as core_mod

        crashes = []
        monkeypatch.setattr(core_mod, "_crash_process",
                            lambda: crashes.append(True))
        rng = RngRegistry(11)
        inj = FaultInjector(
            FaultPlan(specs=(
                FaultSpec(kind="service.crash", target="service-shard-*",
                          max_hits=1),
            )),
            rng.stream("faults"),
        )

        async def go():
            service = durable_service(tmp_path)
            await service.start()
            try:
                with faults.use(inj):
                    job = service.submit("sleep", {"label": "doomed"})
                    await wait_terminal(service, job, timeout_s=30.0)
                assert crashes == [True]
            finally:
                await service.aclose()

        asyncio.run(go())
