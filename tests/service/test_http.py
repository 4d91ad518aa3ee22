"""The HTTP/SSE front end, driven over real loopback sockets."""

import gc
import http.client
import json
import logging
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import (
    AdmissionError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig
from repro.service.journal import JournalConfig
from repro.service.thread import ServiceThread


def one_shard(**overrides) -> ServiceConfig:
    return ServiceConfig(**{"shards": 1, **overrides})


@pytest.fixture()
def live():
    with ServiceThread(one_shard()) as instance:
        yield instance


@pytest.fixture()
def client(live):
    with ServiceClient(port=live.port) as client:
        yield client


async def _count(svc, job_id):
    return svc.subscriber_count(job_id)


class TestRoundtrip:
    def test_submit_wait_status(self, client):
        doc = client.submit("sleep", {"duration_s": 0.01, "label": "rt"})
        assert doc["state"] in ("queued", "running")
        final = client.wait(doc["id"], timeout_s=30.0)
        assert final["state"] == "done"
        assert final["wall_s"] >= 0.01
        assert final["result"]["rows"][0]["label"] == "rt"

    def test_duplicate_submit_returns_the_same_job(self, client):
        payload = {"duration_s": 0.01, "label": "dup"}
        a = client.submit("sleep", payload, client="one")
        b = client.submit("sleep", payload, client="two")
        assert b["id"] == a["id"]
        final = client.wait(a["id"], timeout_s=30.0)
        # Resubmitting a finished key attaches to the cached result.
        c = client.submit("sleep", payload, client="three")
        assert c["id"] == a["id"] and c["state"] == "done"
        assert final["state"] == "done"

    def test_overview_lists_jobs(self, client):
        doc = client.submit("sleep", {"label": "listed"})
        client.wait(doc["id"], timeout_s=30.0)
        overview = client.overview()
        assert set(overview["config"]) == {"shards", "capacity",
                                           "per_client_quota"}
        assert any(job["id"] == doc["id"] for job in overview["jobs"])


class TestErrors:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client.status("j99999")

    def test_wrong_method_is_405(self, live):
        conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=10)
        try:
            conn.request("DELETE", "/jobs")
            assert conn.getresponse().status == 405
        finally:
            conn.close()

    def test_bad_body_is_400(self, live):
        conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=10)
        try:
            conn.request("POST", "/jobs", body=b"not json",
                         headers={"Content-Type": "application/json"})
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_bad_kind_is_400(self, client):
        with pytest.raises(ServiceError, match="400"):
            client.submit("bogus", {})

    def _post_jobs(self, live, doc):
        conn = http.client.HTTPConnection("127.0.0.1", live.port,
                                          timeout=10)
        try:
            conn.request("POST", "/jobs", body=json.dumps(doc).encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def test_nonpositive_deadline_is_400(self, live):
        status, body = self._post_jobs(
            live, {"kind": "sleep", "payload": {"label": "d"},
                   "deadline_s": -1})
        assert status == 400
        assert "deadline_s" in body["error"]

    def test_non_numeric_deadline_is_400(self, live):
        status, body = self._post_jobs(
            live, {"kind": "sleep", "payload": {"label": "d"},
                   "deadline_s": "soon"})
        assert status == 400
        assert "deadline_s" in body["error"]

    def test_non_numeric_priority_is_400_with_its_own_message(self, live):
        """Regression: a bad priority used to surface as a misleading
        'bad deadline_s' 400."""
        status, body = self._post_jobs(
            live, {"kind": "sleep", "payload": {"label": "p"},
                   "priority": "high"})
        assert status == 400
        assert "priority" in body["error"]
        assert "deadline" not in body["error"]

    def test_unknown_route_is_404(self, live):
        conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=10)
        try:
            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404
        finally:
            conn.close()


class TestAdmissionOverHttp:
    def test_429_carries_retry_after(self):
        config = one_shard(capacity=1, per_client_quota=1,
                               retry_after_s=0.2)
        with (ServiceThread(config) as live,
              ServiceClient(port=live.port) as client):
            hold = client.submit("sleep", {"duration_s": 5.0,
                                           "label": "hold"},
                                 client="filler")
            with pytest.raises(AdmissionError) as excinfo:
                client.submit("sleep", {"label": "over"}, client="late")
            assert excinfo.value.reason == "capacity"
            assert excinfo.value.retry_after_s == pytest.approx(0.2)
            # The raw header is present too, not just the JSON body.
            conn = http.client.HTTPConnection("127.0.0.1", live.port,
                                              timeout=10)
            try:
                conn.request("POST", "/jobs", body=json.dumps({
                    "kind": "sleep", "payload": {"label": "again"},
                    "client": "late2",
                }).encode(), headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 429
                assert float(response.getheader("Retry-After")) > 0
            finally:
                conn.close()
            client.cancel(hold["id"])


class TestStreaming:
    def test_sse_lifecycle_to_terminal(self, client):
        doc = client.submit("sleep", {"duration_s": 0.05, "label": "sse"})
        events = list(client.stream(doc["id"]))
        names = [name for name, _data in events]
        assert names[0] == "queued" and names[-1] == "done"
        assert "started" in names
        # Every event carries the job identity and a state.
        assert all(data["id"] == doc["id"] for _name, data in events)

    def test_late_subscriber_replays_history(self, client):
        doc = client.submit("sleep", {"duration_s": 0.0, "label": "late"})
        client.wait(doc["id"], timeout_s=30.0)
        # Job already terminal: the stream replays and closes.
        names = [name for name, _data in client.stream(doc["id"])]
        assert names == ["queued", "started", "done"]

    def test_disconnect_mid_stream_leaks_nothing(self, live, client):
        """A client that vanishes mid-stream is unsubscribed, and its
        job keeps running (disconnection is not cancellation)."""
        doc = client.submit("sleep", {"duration_s": 4.0, "label": "gone"})

        conn = http.client.HTTPConnection("127.0.0.1", live.port,
                                          timeout=10)
        conn.request("GET", f"/jobs/{doc['id']}/stream")
        response = conn.getresponse()
        assert response.status == 200
        assert response.fp.readline().startswith(b"id:")
        # Vanish without reading to the end.  Close the response too:
        # it duplicates the socket fd, and while it lives no FIN ever
        # reaches the server.
        response.close()
        conn.close()

        def subscribers(svc):
            async def go(svc):
                return svc.subscriber_count(doc["id"])
            return go(svc)

        deadline = time.monotonic() + 10.0
        while live.call(subscribers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert live.call(subscribers) == 0
        assert client.status(doc["id"])["state"] in ("queued", "running")
        client.cancel(doc["id"])
        final = client.wait(doc["id"], timeout_s=10.0)
        assert final["state"] == "cancelled"

    def test_abrupt_disconnect_mid_event_frame(self, live, client):
        """A subscriber that RSTs its socket after reading only half a
        frame (not even a full SSE event) must not take the service
        down — the write side absorbs the connection reset and the
        job's remaining events go to nobody."""
        doc = client.submit("sleep", {"duration_s": 1.0, "label": "rst"})

        sock = socket.create_connection(("127.0.0.1", live.port),
                                        timeout=10)
        try:
            sock.sendall(
                f"GET /jobs/{doc['id']}/stream HTTP/1.1\r\n"
                f"Host: x\r\n\r\n".encode()
            )
            # Read a handful of bytes: headers + the first few bytes of
            # the first event frame, then vanish with an RST (SO_LINGER
            # zero) instead of a polite FIN.
            assert sock.recv(64)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        finally:
            sock.close()

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if live.call(lambda svc: _count(svc, doc["id"])) == 0:
                break
            time.sleep(0.05)
        assert live.call(lambda svc: _count(svc, doc["id"])) == 0
        # The service shrugged: the job finishes and health is green.
        final = client.wait(doc["id"], timeout_s=30.0)
        assert final["state"] == "done"
        assert client.healthz()["status"] == "ok"


def _raw(port, request: bytes) -> bytes:
    """Send *request* on a fresh socket; read until the server closes
    it (a server that keeps it open fails the read's timeout)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestKeepAlive:
    def test_json_calls_share_one_connection(self, client):
        connects = []
        connect = client._connect

        def counted():
            connects.append(1)
            return connect()

        client._connect = counted
        doc = client.submit("sleep", {"label": "ka"})
        for _ in range(5):
            client.status(doc["id"])
        client.overview()
        client.healthz()
        client.metrics_text()
        assert client.submit("sleep", {"label": "ka"})["id"] == doc["id"]
        with pytest.raises(ServiceError, match="404"):
            client.status("j99999")  # an error closes the connection …
        client.status(doc["id"])     # … and the next call opens one
        assert len(connects) == 2
        client.close()

    def test_close_reaches_every_thread(self, client):
        conns = []
        connect = client._connect

        def recorded():
            conns.append(connect())
            return conns[-1]

        client._connect = recorded
        threads = [threading.Thread(target=client.healthz)
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        client.healthz()
        assert len(conns) == 3  # one per thread
        assert all(conn.sock is not None for conn in conns)
        client.close()
        assert all(conn.sock is None for conn in conns)

    def test_keep_alive_is_the_http11_default(self, live):
        conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            first = conn.getresponse()
            first.read()
            sock = conn.sock
            assert first.getheader("Connection") is None
            conn.request("GET", "/jobs")
            second = conn.getresponse()
            assert second.status == 200 and json.loads(second.read())
            assert conn.sock is sock  # the same socket answered both
        finally:
            conn.close()

    @pytest.mark.parametrize("request_head", [
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ], ids=["connection-close", "http10"])
    def test_close_requests_get_close_and_eof(self, live, request_head):
        head, _, body = _raw(live.port, request_head).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["status"] == "ok"  # one response, then EOF

    @pytest.mark.parametrize("request_head,status", [
        (b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", b"404"),
        # Bodies are framed by Content-Length alone: a chunked one
        # reads as empty, is refused, and its bytes are never parsed
        # as a next request.
        (b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
         b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", b"400"),
    ], ids=["not-found", "chunked-body"])
    def test_error_response_closes(self, live, request_head, status):
        head, _, _ = _raw(live.port, request_head).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 " + status)
        assert b"\r\nConnection: close" in head

    def test_sse_still_ends_at_the_terminal_event(self, live):
        with ServiceClient(port=live.port) as client:
            doc = client.submit("sleep", {"duration_s": 0.05,
                                          "label": "ka-sse"})
            head, _, body = _raw(
                live.port,
                f"GET /jobs/{doc['id']}/stream HTTP/1.1\r\nHost: x\r\n\r\n"
                .encode(),
            ).partition(b"\r\n\r\n")
            assert b"\r\nConnection: close" in head
            events = [line.split(b": ", 1)[1] for line in body.splitlines()
                      if line.startswith(b"event: ")]
            assert events[0] == b"queued" and events[-1] == b"done"
            assert client.status(doc["id"])["state"] == "done"

    def test_thread_stop_with_an_idle_connection(self, caplog):
        caplog.set_level(logging.DEBUG, logger="asyncio")
        unraisable = []
        hook = sys.unraisablehook
        sys.unraisablehook = unraisable.append
        try:
            live = ServiceThread(one_shard()).start()
            client = ServiceClient(port=live.port, timeout_s=5.0)
            client.healthz()  # the connection now sits idle, open
            start = time.monotonic()
            live.stop()
            assert time.monotonic() - start < 5.0
            gc.collect()
        finally:
            sys.unraisablehook = hook
        assert not unraisable
        assert not [r for r in caplog.records
                    if r.name == "asyncio" and r.levelno >= logging.WARNING]
        # The server closed the idle connection; the client's retry
        # finds nobody listening.
        with pytest.raises(OSError):
            client.healthz()
        client.close()

    def test_sigterm_with_an_idle_connection(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "PYTHONUNBUFFERED": "1"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--shards", "1", "--executor", "spawn"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            port = int(re.search(r"http://[^\s:]+:(\d+)", banner).group(1))
            with ServiceClient(port=port, timeout_s=10.0) as client:
                client.wait(client.submit("sleep", {"label": "term"})["id"],
                            timeout_s=30.0)
                client.healthz()  # the connection now sits idle, open
                start = time.monotonic()
                proc.send_signal(signal.SIGTERM)
                _out, err = proc.communicate(timeout=5.0)
                assert time.monotonic() - start < 5.0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        for sign in ("Traceback", "Exception in callback",
                     "Exception ignored", "Task was destroyed"):
            assert sign not in err, err


class TestOps:
    def test_healthz_green(self, client):
        doc = client.submit("sleep", {"label": "hz"})
        client.wait(doc["id"], timeout_s=30.0)
        health = client.healthz()
        assert health["status"] == "ok" and health["violations"] == []

    def test_metrics_exposition(self, client):
        doc = client.submit("sleep", {"label": "m"})
        client.wait(doc["id"], timeout_s=30.0)
        text = client.metrics_text()
        assert "service_jobs_submitted_total" in text
        assert "service_jobs_finished_total" in text

    def test_metrics_survive_concurrent_scrape_and_shutdown(self):
        """Scrape /metrics from several threads while the service goes
        down mid-flight: every scrape either returns a full exposition
        or a clean connection error — never a hung thread or a torn
        half-response that parses as metrics."""
        live = ServiceThread(one_shard()).start()
        client = ServiceClient(port=live.port, timeout_s=5.0)
        client.submit("sleep", {"duration_s": 0.5, "label": "mx"})
        stop = threading.Event()
        outcomes: list[str] = []
        lock = threading.Lock()

        def scrape():
            while not stop.is_set():
                try:
                    text = client.metrics_text()
                except (ServiceError, OSError):
                    with lock:
                        outcomes.append("refused")
                    continue
                assert "service_jobs_submitted_total" in text
                with lock:
                    outcomes.append("ok")

        scrapers = [threading.Thread(target=scrape) for _ in range(4)]
        for thread in scrapers:
            thread.start()
        time.sleep(0.2)  # let scrapes overlap live traffic …
        live.stop()      # … then yank the service out from under them
        time.sleep(0.2)
        stop.set()
        for thread in scrapers:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in scrapers)
        assert "ok" in outcomes  # scrapes really ran before the stop
        client.close()

    def test_teardown_races_a_fresh_cancel(self):
        """Regression: cancelling a running job and stopping the
        service in the same breath must not wedge teardown (the shard
        loop once swallowed its own shutdown cancellation here and
        aclose waited on a zombie for the full join timeout)."""
        start = time.perf_counter()
        with (ServiceThread(one_shard()) as live,
              ServiceClient(port=live.port) as client):
            doc = client.submit("sleep", {"duration_s": 3.0,
                                          "label": "racing"})
            deadline = time.monotonic() + 10.0
            while (client.status(doc["id"])["state"] != "running"
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            client.cancel(doc["id"])
            # exit immediately: stop() races the cancel's shard-side
            # completion, exactly the admission-lane shape
        assert time.perf_counter() - start < 10.0


async def _start_drain(svc):
    """Kick off the drain without waiting for it: the 503 window only
    exists while in-flight work holds the drain open."""
    import asyncio

    asyncio.ensure_future(svc.aclose(drain=True, drain_timeout_s=30.0))
    while not svc.draining:
        await asyncio.sleep(0.005)


class TestDrainOverHttp:
    def test_503_with_retry_after_while_draining(self, tmp_path):
        config = one_shard(journal_dir=tmp_path / "journal",
                               journal=JournalConfig(fsync="never"),
                               retry_after_s=0.25)
        with (ServiceThread(config) as live,
              ServiceClient(port=live.port) as client):
            doc = client.submit("sleep", {"duration_s": 2.0, "label": "d"})
            live.call(_start_drain)
            with pytest.raises(ServiceUnavailableError) as excinfo:
                client.submit("sleep", {"label": "late"})
            assert excinfo.value.retry_after_s == pytest.approx(0.25)
            # The raw response is a real 503 with the header set.
            conn = http.client.HTTPConnection("127.0.0.1", live.port,
                                              timeout=10)
            try:
                conn.request("POST", "/jobs", body=json.dumps({
                    "kind": "sleep", "payload": {"label": "raw"},
                }).encode(), headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 503
                assert float(response.getheader("Retry-After")) > 0
                assert json.loads(response.read())["reason"] == "draining"
            finally:
                conn.close()
            # The in-flight job still finishes: drain means finish,
            # not abandon.
            deadline = time.monotonic() + 30.0
            while (client.status(doc["id"])["state"] != "done"
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert client.status(doc["id"])["state"] == "done"


class TestClientRetries:
    def test_default_client_surfaces_the_refusal(self):
        config = one_shard(capacity=1)
        with (ServiceThread(config) as live,
              ServiceClient(port=live.port) as client):
            hold = client.submit("sleep", {"duration_s": 5.0,
                                           "label": "hold"})
            with pytest.raises(AdmissionError):
                client.submit("sleep", {"label": "over"}, client="late")
            client.cancel(hold["id"])

    def test_max_retries_resubmits_after_the_hint(self):
        config = one_shard(capacity=1, retry_after_s=0.1)
        with (ServiceThread(config) as live,
              ServiceClient(port=live.port, max_retries=3) as client,
              ServiceClient(port=live.port) as client_b):
            slept: list[float] = []
            hold = client.submit("sleep", {"duration_s": 30.0,
                                           "label": "hold"})

            def free_then_note(seconds: float) -> None:
                # First refusal: free the slot instead of sleeping, so
                # the retry deterministically succeeds.
                slept.append(seconds)
                client_b.cancel(hold["id"])

            client._sleep = free_then_note
            doc = client.submit("sleep", {"label": "retried"},
                                client="late")
            assert doc["state"] in ("queued", "running", "done")
            assert len(slept) == 1
            assert 0 < slept[0] <= client.backoff_cap_s

    def test_backoff_is_capped_and_jittered(self):
        client = ServiceClient(max_retries=5, backoff_cap_s=2.0)
        client._rng.seed(42)
        delays = [client._backoff_s(10.0, attempt)
                  for attempt in range(1, 6)]
        assert all(d <= 2.0 for d in delays)  # hint 10s, capped at 2
        assert all(d >= 1.0 for d in delays)  # jitter floor is 50%
        assert len(set(delays)) > 1  # actually jittered

    def test_retry_budget_exhausts(self):
        config = one_shard(capacity=1, retry_after_s=0.02)
        with (ServiceThread(config) as live,
              ServiceClient(port=live.port, max_retries=2) as client):
            naps: list[float] = []
            client._sleep = naps.append
            hold = client.submit("sleep", {"duration_s": 30.0,
                                           "label": "hold"})
            with pytest.raises(AdmissionError):
                client.submit("sleep", {"label": "doomed"}, client="late")
            assert len(naps) == 2  # retried exactly max_retries times
            client.cancel(hold["id"])
