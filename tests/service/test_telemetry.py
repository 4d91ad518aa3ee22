"""End-to-end distributed tracing: one job, one connected trace.

Covers the span pipeline in-process, the spawn
boundary (worker spans + sim children + retry attempts under one trace
id), the journal's trace-id survival across a crash, and the HTTP
surface (``X-Trace-Id`` everywhere, ``GET /jobs/<id>/trace``).
"""

import asyncio
import json
import os

import pytest

from repro.obs.distributed import TraceContext
from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig, TraceService
from repro.service.thread import ServiceThread


async def wait_terminal(service, job, timeout_s=120.0):
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


def one_shard(**overrides) -> TraceService:
    return TraceService(ServiceConfig(**{"shards": 1, **overrides}))


class TestInProcessTrace:
    def test_one_job_yields_one_connected_trace(self):
        async def scenario():
            service = one_shard()
            await service.start()
            try:
                job = service.submit("sleep", {"duration_s": 0.02,
                                               "label": "traced"})
                assert job.trace_id
                await wait_terminal(service, job)
                return job.trace_id, service.trace(job.id)
            finally:
                await service.aclose()

        trace_id, doc = asyncio.run(scenario())
        assert doc["trace_id"] == trace_id
        assert doc["connected"]
        names = {s["name"] for s in doc["spans"]}
        assert {"job", "cache.probe", "admission", "queue.wait",
                "breaker.gate", "worker", "publish"} <= names
        assert all(s["trace_id"] == trace_id for s in doc["spans"])

    def test_critical_path_components_tile_e2e(self):
        async def scenario():
            service = one_shard()
            await service.start()
            try:
                job = service.submit("sleep", {"duration_s": 0.05,
                                               "label": "tiled"})
                await wait_terminal(service, job)
                return service.trace(job.id)
            finally:
                await service.aclose()

        doc = asyncio.run(scenario())
        path = doc["critical_path"]
        total = sum(path["components"].values())
        assert path["e2e_s"] > 0
        # "other" pads to e2e by construction; the 5% acceptance bound
        # is then about the recorded phases actually tiling the job.
        assert total == pytest.approx(path["e2e_s"], rel=0.05)
        assert path["coverage"] > 0.5
        assert path["components"]["worker"] >= 0.05

    def test_caller_context_and_baggage_propagate(self):
        async def scenario():
            service = one_shard()
            await service.start()
            try:
                ctx = TraceContext.root("caller-minted-id", tenant="t9")
                job = service.submit(
                    "sleep", {"label": "ctx"}, trace=ctx.child("parent01")
                )
                await wait_terminal(service, job)
                return job, service.trace(job.id)
            finally:
                await service.aclose()

        job, doc = asyncio.run(scenario())
        assert job.trace_id == "caller-minted-id"
        assert job.summary()["trace_id"] == "caller-minted-id"
        roots = [s for s in doc["spans"] if s["name"] == "job"]
        assert roots[0]["parent"] == "parent01"
        # A parented trace is "disconnected" from the store's point of
        # view only if the parent span never arrives; callers that
        # bring their own parent must record it themselves.
        assert doc["connected"] is False

    def test_done_event_carries_trace_id_and_critical_path(self):
        async def scenario():
            service = one_shard()
            await service.start()
            try:
                job = service.submit("sleep", {"label": "evt"})
                history, queue = service.subscribe(job.id)
                try:
                    async with asyncio.timeout(60.0):
                        events = list(history)
                        while not any(e.event == "done" for e in events):
                            events.append(await queue.get())
                finally:
                    service.unsubscribe(job.id, queue)
                return job, [e for e in events if e.event == "done"][0]
            finally:
                await service.aclose()

        job, done = asyncio.run(scenario())
        assert done.data["trace_id"] == job.trace_id
        path = done.data["critical_path"]
        assert sum(path["components"].values()) == (
            pytest.approx(path["e2e_s"], rel=0.05))

    def test_latency_histograms_expose_buckets_sum_count(self):
        async def scenario():
            service = one_shard()
            await service.start()
            try:
                job = service.submit("sleep", {"label": "hist"})
                await wait_terminal(service, job)
                return service.metrics.render_text()
            finally:
                await service.aclose()

        text = asyncio.run(scenario())
        for family in ("service_admission_latency_s", "service_queue_wait_s",
                       "service_worker_wall_s", "service_e2e_latency_s"):
            assert f"# TYPE {family} histogram" in text
            assert f'{family}_bucket{{' in text
            assert 'le="+Inf"' in text
            assert f"{family}_sum{{" in text
            assert f"{family}_count{{" in text
        assert 'kind="sleep"' in text
        assert "backend=" not in text  # one executor: no label for it

    def test_slo_document_rides_describe(self):
        async def scenario():
            service = one_shard()
            await service.start()
            try:
                job = service.submit("sleep", {"label": "slo"})
                await wait_terminal(service, job)
                return service.describe()
            finally:
                await service.aclose()

        doc = asyncio.run(scenario())
        assert doc["slo"]["recorded"] == 1
        assert doc["slo"]["objectives"]["availability"]["bad"] == 0
        assert doc["traces_held"] == 1


class TestSpawnBoundary:
    def test_crash_requeue_stays_one_trace_with_retry_span(self, tmp_path):
        """Satellite: the trace survives the spawn boundary and a dead
        worker.  Two worker spans, one trace id, the retry attempt
        tagged ``retry=1``, and the job still completes exactly once.
        """
        marker = os.fspath(tmp_path / "crash-once")

        async def scenario():
            service = one_shard(job_timeout_s=120.0)
            await service.start()
            try:
                job = service.submit("sleep", {
                    "duration_s": 0.0, "crash_unless": marker,
                    "label": "crashy-trace",
                })
                await wait_terminal(service, job)
                return job, service.trace(job.id)
            finally:
                await service.aclose()

        job, doc = asyncio.run(scenario())
        assert job.state == "done" and job.completions == 1
        workers = [s for s in doc["spans"] if s["name"] == "worker"]
        assert len(workers) == 2
        assert {w["attrs"]["retry"] for w in workers} == {0, 1}
        assert {w["attrs"]["outcome"] for w in workers} == {"crash", "ok"}
        assert all(w["trace_id"] == job.trace_id for w in workers)
        assert any(s["name"] == "retry.wait" for s in doc["spans"])
        assert doc["connected"]
        # Both attempts carry their own span id, so sim children of a
        # future successful attempt could never collide with the
        # crashed attempt's namespace.  (Sleep jobs run no engine, so
        # no sim spans here — the service experiment's telemetry lane
        # covers sim children riding a real experiment job.)
        assert workers[0]["sid"] != workers[1]["sid"]

    def test_trace_spans_are_spans_jsonl_records(self, tmp_path, capsys):
        """Service spans and the worker's sim spans use the key set of
        a traced run's ``.spans.jsonl`` lines, plus ``trace_id`` and
        ``worker``."""
        from repro.harness.__main__ import main

        payload = {"experiment": "fig07", "preset": "quick"}

        async def scenario():
            service = one_shard(job_timeout_s=120.0)
            await service.start()
            try:
                job = service.submit("experiment", payload)
                await wait_terminal(service, job)
                return job, service.trace(job.id)
            finally:
                await service.aclose()

        job, doc = asyncio.run(scenario())
        assert job.state == "done" and doc["connected"]
        assert main(["fig07", "--preset", "quick",
                     "--trace", str(tmp_path)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "fig07.spans.jsonl").read_text().splitlines()
        jsonl_keys = set().union(*(json.loads(line) for line in lines))
        core = {"kind", "sid", "cat", "name", "ts", "dur", "run"}
        assert core <= jsonl_keys
        cats = set()
        for span in doc["spans"]:
            keys = set(span) - {"trace_id", "worker"}
            assert core <= keys <= jsonl_keys, span
            assert span["trace_id"] == job.trace_id and span["worker"]
            cats.add(span["cat"])
        assert "service" in cats and len(cats) > 1


class TestRecoveryKeepsTraceId:
    def test_replayed_job_keeps_its_trace_id(self, tmp_path):
        journal_dir = os.fspath(tmp_path / "journal")

        def config():
            return ServiceConfig(shards=1, journal_dir=journal_dir)

        async def first_boot():
            service = TraceService(config())
            await service.start()
            job = service.submit("sleep", {"duration_s": 5.0,
                                           "label": "survivor"})
            # Abrupt teardown: no drain, no clean marker (the
            # in-process stand-in for SIGKILL).
            await service.aclose()
            return job.trace_id

        trace_id = asyncio.run(first_boot())

        async def second_boot():
            service = TraceService(config())
            await service.start()
            try:
                jobs = list(service.jobs())
                return [(job.trace_id, job.summary()["trace_id"])
                        for job in jobs]
            finally:
                await service.aclose()

        recovered = asyncio.run(second_boot())
        assert recovered, "journal replay must re-admit the job"
        assert all(tid == trace_id and stid == trace_id
                   for tid, stid in recovered)


class TestHttpSurface:
    @pytest.fixture()
    def live(self):
        with ServiceThread(ServiceConfig(shards=1)) as instance:
            yield instance

    @pytest.fixture()
    def client(self, live):
        with ServiceClient(port=live.port) as client:
            yield client

    def test_every_response_carries_x_trace_id(self, client):
        doc = client.submit("sleep", {"label": "hdr"})
        assert client.last_trace_id == doc["trace_id"]
        client.wait(doc["id"], timeout_s=30.0)
        client.status(doc["id"])
        assert client.last_trace_id == doc["trace_id"]
        client.overview()
        assert client.last_trace_id  # request-scoped id, still present
        client.healthz()
        assert client.last_trace_id

    def test_inbound_trace_id_is_honoured(self, client):
        doc = client.submit("sleep", {"label": "mine"},
                            trace_id="my-own-trace-id-01")
        assert doc["trace_id"] == "my-own-trace-id-01"
        assert client.last_trace_id == "my-own-trace-id-01"

    def test_hostile_inbound_trace_id_is_replaced(self, client):
        doc = client.submit("sleep", {"label": "evil"},
                            trace_id="x")  # too short: rejected
        assert doc["trace_id"] != "x"
        assert len(doc["trace_id"]) == 16

    def test_trace_route_serves_connected_trace(self, client):
        doc = client.submit("sleep", {"duration_s": 0.01, "label": "rt"})
        client.wait(doc["id"], timeout_s=30.0)
        trace = client.trace(doc["id"])
        assert trace["trace_id"] == doc["trace_id"]
        assert trace["connected"]
        names = [s["name"] for s in trace["spans"]]
        assert "http.parse" in names and "job" in names
        assert len(trace["spans"]) >= 6
        path = trace["critical_path"]
        assert sum(path["components"].values()) == (
            pytest.approx(path["e2e_s"], rel=0.05))

    def test_trace_route_chrome_format(self, client):
        doc = client.submit("sleep", {"label": "chrome"})
        client.wait(doc["id"], timeout_s=30.0)
        chrome = client.trace(doc["id"], fmt="chrome")
        events = chrome["traceEvents"]
        assert events and chrome["displayTimeUnit"] == "ms"
        rows = {e["args"]["name"] for e in events
                if e.get("name") == "process_name"}
        assert "service" in rows and any(r.startswith("shard-")
                                         for r in rows)
        phases = {e["name"] for e in events if e.get("ph") == "X"}
        assert "worker" in phases

    def test_trace_of_unknown_job_is_404(self, client):
        with pytest.raises(Exception, match="404"):
            client.trace("j99999")

    def test_dedupe_twin_reports_the_first_trace(self, client):
        payload = {"duration_s": 0.2, "label": "twin"}
        a = client.submit("sleep", payload, client="one")
        b = client.submit("sleep", payload, client="two",
                          trace_id="second-submitters-id")
        assert b["id"] == a["id"]
        # The attach answers with the job's (first) trace id, so the
        # second submitter can find the one real trace.
        assert b["trace_id"] == a["trace_id"]
        assert client.last_trace_id == a["trace_id"]
        client.wait(a["id"], timeout_s=30.0)
