"""A blocking stdlib client for the trace service.

``http.client`` only — usable from tests, the harness experiment's
load-generator threads, and interactive sessions without any third-
party HTTP stack.  One method per route; SSE streaming is a generator
of parsed ``(event, data)`` pairs.

Connections are persistent, one per calling thread: every JSON route
reuses the thread's connection until the server closes it, so a
client shared by several threads never interleaves two requests on
one socket.  A reused connection that fails before any byte of the
response arrives (the server closed it while it sat idle) is replaced
once and the request sent again; a replayed ``POST /jobs`` is safe
because submission dedupes by job key.  An SSE stream takes its own
connection, which the server closes at the job's terminal event.

429 responses raise the same :class:`~repro.errors.AdmissionError`
the server raised, and 503 from job routes (a draining instance)
raises :class:`~repro.errors.ServiceUnavailableError`, both with
``retry_after_s`` recovered from the ``Retry-After`` header — so a
polite load generator can implement backoff with the exact vocabulary
the admission controller speaks.  With ``max_retries > 0``,
:meth:`ServiceClient.submit` does the polite thing itself: it sleeps
the server's hint (jittered, capped at ``backoff_cap_s``) and
resubmits, up to the retry budget.  The default budget is 0 — an
unconfigured client surfaces every refusal, which is what tests and
admission experiments want.

Tracing: every response's ``X-Trace-Id`` header lands in
:attr:`ServiceClient.last_trace_id`, :meth:`ServiceClient.submit` can
carry a caller-minted ``trace_id`` so client-side spans join the
service's trace, and :meth:`ServiceClient.trace` fetches the merged
distributed trace with its critical-path breakdown.
:meth:`ServiceClient.healthz` never raises on 503 — an unhealthy
verdict *is* the answer, not a transport failure — so probes and
chaos lanes can read the violation list straight off the document.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import typing as t

from repro.errors import (
    AdmissionError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.obs.distributed import TRACE_HEADER


class ServiceClient:
    """Talk to one ``repro.service`` instance at ``host:port``."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8700,
                 *, timeout_s: float = 60.0, max_retries: int = 0,
                 backoff_cap_s: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = float(timeout_s)
        if max_retries < 0:
            raise ServiceError(f"max_retries must be >= 0: {max_retries!r}")
        if backoff_cap_s <= 0:
            raise ServiceError(
                f"backoff_cap_s must be positive: {backoff_cap_s!r}")
        self.max_retries = int(max_retries)
        self.backoff_cap_s = float(backoff_cap_s)
        #: Injection points so tests drive the backoff deterministically.
        self._sleep: t.Callable[[float], None] = time.sleep
        self._rng = random.Random()
        #: ``X-Trace-Id`` from the most recent response (any route).
        self.last_trace_id: str = ""
        #: Each thread's persistent connection (``.conn``).
        self._local = threading.local()
        #: Every persistent connection still open, whichever thread
        #: made it, so :meth:`close` reaches them all.
        self._open: set[http.client.HTTPConnection] = set()
        self._open_lock = threading.Lock()

    # -- plumbing -----------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        """A new connection: each call is one TCP connect."""
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )

    def close(self) -> None:
        """Close every persistent connection, in every thread; the next
        call opens a new one."""
        with self._open_lock:
            conns, self._open = self._open, set()
        for conn in conns:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: t.Any) -> None:
        self.close()

    def _drop(self) -> None:
        """Close the calling thread's persistent connection."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            conn.close()
            with self._open_lock:
                self._open.discard(conn)

    def _exchange(self, method: str, path: str, payload: bytes | None = None,
                  headers: dict[str, str] | None = None,
                  ) -> tuple[http.client.HTTPResponse, bytes]:
        """Send one request on this thread's persistent connection and
        read the whole response.

        A connection the server has closed (``Connection: close``, or
        closed while idle) is replaced.  A *reused* connection that
        fails before the response's first byte is replaced once and
        the request sent again; any other failure closes the
        connection and propagates.
        """
        while True:
            conn = getattr(self._local, "conn", None)
            reused = conn is not None and conn.sock is not None
            if not reused:
                self._drop()
                conn = self._local.conn = self._connect()
                with self._open_lock:
                    self._open.add(conn)
            try:
                conn.request(method, path, body=payload,
                             headers=headers or {})
                response = conn.getresponse()
            except BaseException as exc:
                self._drop()
                if reused and isinstance(exc, ConnectionError):
                    continue  # once: the next connection is a new one
                raise
            try:
                return response, response.read()
            except BaseException:
                self._drop()
                raise

    def _request(self, method: str, path: str,
                 body: dict[str, t.Any] | None = None,
                 *, trace_id: str | None = None) -> dict[str, t.Any]:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        if trace_id:
            headers[TRACE_HEADER] = trace_id
        response, raw = self._exchange(method, path, payload, headers)
        doc = json.loads(raw) if raw else {}
        self.last_trace_id = response.getheader(TRACE_HEADER) or ""
        if response.status == 429:
            raise AdmissionError(
                doc.get("error", "service refused the submission"),
                reason=doc.get("reason", "capacity"),
                retry_after_s=float(
                    response.getheader("Retry-After")
                    or doc.get("retry_after_s", 1.0)
                ),
            )
        if response.status == 503:
            raise ServiceUnavailableError(
                doc.get("error", "service unavailable"),
                retry_after_s=float(
                    response.getheader("Retry-After")
                    or doc.get("retry_after_s", 1.0)
                ),
            )
        if response.status >= 400:
            detail = doc.get("error") or repr(raw[:200])
            raise ServiceError(
                f"{method} {path} -> {response.status}: {detail}"
            )
        return doc

    # -- routes -------------------------------------------------------

    def submit(self, kind: str, payload: dict[str, t.Any] | None = None,
               *, client: str = "anonymous", priority: int = 0,
               deadline_s: float | None = None,
               trace_id: str | None = None) -> dict[str, t.Any]:
        """Submit one job; retries 429/503 up to ``max_retries`` times,
        sleeping the server's Retry-After hint (jittered, capped).

        The returned summary carries ``trace_id`` — the server's if it
        minted one, or the caller's *trace_id* when supplied (so the
        client can pre-correlate its own spans before submitting).
        """
        body: dict[str, t.Any] = {
            "kind": kind, "payload": payload or {},
            "client": client, "priority": priority,
        }
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        attempt = 0
        while True:
            try:
                return self._request("POST", "/jobs", body,
                                     trace_id=trace_id)
            except (AdmissionError, ServiceUnavailableError) as exc:
                if attempt >= self.max_retries:
                    raise
                attempt += 1
                self._sleep(self._backoff_s(exc.retry_after_s, attempt))

    def _backoff_s(self, hint_s: float, attempt: int) -> float:
        """The server's hint, doubled per attempt, capped, then
        jittered to 50–100% so a herd of refused clients decorrelates
        instead of returning in lockstep."""
        base = min(self.backoff_cap_s,
                   max(0.0, hint_s) * (2 ** (attempt - 1)))
        return base * self._rng.uniform(0.5, 1.0)

    def status(self, job_id: str) -> dict[str, t.Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def trace(self, job_id: str, *,
              fmt: str | None = None) -> dict[str, t.Any]:
        """The job's merged distributed trace (spans + critical path);
        ``fmt="chrome"`` returns the Perfetto/Chrome trace_event form."""
        path = f"/jobs/{job_id}/trace"
        if fmt:
            path += f"?format={fmt}"
        return self._request("GET", path)

    def cancel(self, job_id: str) -> dict[str, t.Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def overview(self) -> dict[str, t.Any]:
        return self._request("GET", "/jobs")

    def healthz(self) -> dict[str, t.Any]:
        """The health document, whatever the verdict.

        Deliberately does **not** go through :meth:`_request`: a 503
        here means "unhealthy" (a perfectly good probe answer), not
        "go away", so raising ``ServiceUnavailableError`` would hide
        exactly the violations the caller asked for.  The document's
        ``status``/``violations`` fields carry the verdict instead.
        """
        response, raw = self._exchange("GET", "/healthz")
        self.last_trace_id = response.getheader(TRACE_HEADER) or ""
        if response.status not in (200, 503):
            raise ServiceError(f"/healthz -> {response.status}")
        return json.loads(raw) if raw else {}

    def metrics_text(self) -> str:
        response, raw = self._exchange("GET", "/metrics")
        if response.status != 200:
            raise ServiceError(f"/metrics -> {response.status}")
        return raw.decode("utf-8")

    # -- SSE ----------------------------------------------------------

    def stream(self, job_id: str) -> t.Iterator[tuple[str, dict[str, t.Any]]]:
        """Yield ``(event, data)`` pairs until the job's terminal event
        (after which the server closes the stream)."""
        conn = self._connect()
        try:
            conn.request("GET", f"/jobs/{job_id}/stream")
            response = conn.getresponse()
            if response.status != 200:
                raise ServiceError(
                    f"stream {job_id} -> {response.status}: "
                    f"{response.read()[:200]!r}"
                )
            event_name, data = "", None
            while True:
                line = response.fp.readline()
                if not line:
                    return
                line = line.decode("utf-8").rstrip("\n")
                if line.startswith("event:"):
                    event_name = line.split(":", 1)[1].strip()
                elif line.startswith("data:"):
                    data = json.loads(line.split(":", 1)[1].strip())
                elif not line and data is not None:
                    yield event_name, data
                    if event_name in ("done", "failed", "cancelled"):
                        return
                    event_name, data = "", None
        finally:
            conn.close()

    def wait(self, job_id: str,
             timeout_s: float = 120.0) -> dict[str, t.Any]:
        """Stream until terminal; returns the final status document."""
        deadline = time.monotonic() + timeout_s
        for _event, _data in self.stream(job_id):
            if time.monotonic() > deadline:
                raise ServiceError(f"job {job_id} not terminal "
                                   f"after {timeout_s}s")
        doc = self.status(job_id)
        if doc["state"] not in ("done", "failed", "cancelled"):
            raise ServiceError(
                f"stream for {job_id} ended in state {doc['state']}"
            )
        return doc
