"""A hand-rolled asyncio HTTP/1.1 + SSE front end for the service.

No third-party web framework: the dependency budget is the stdlib, and
the API surface is small enough that ``asyncio.start_server`` plus a
~hundred-line request parser is the honest cost.

Connections are persistent: an HTTP/1.1 client sends request after
request on one connection, each body framed by ``Content-Length``, so
a submit → wait → status loop pays for one TCP handshake, not three.
The server answers ``Connection: close`` and closes after a request
that asks for it, after any HTTP/1.0 request, after an error response
(the parse may have left the byte stream out of step), and after an
SSE stream: a stream holds its connection until the job's terminal
event, then closes it, exactly as the protocol intends.
:meth:`HttpServer.aclose` closes the connections that sit idle between
requests and the open streams, and lets a request already being
answered finish first.

Routes:

====== ========================== =======================================
POST   /jobs                      submit ``{"kind", "payload",
                                  "client", "priority", "deadline_s"}``
                                  → job summary (429 + Retry-After when
                                  refused, 503 + Retry-After while the
                                  service drains)
GET    /jobs                      service status + job listing
GET    /jobs/<id>                 one job's status document
POST   /jobs/<id>/cancel          cancel queued/running work
GET    /jobs/<id>/stream          SSE: replayed + live lifecycle events
GET    /jobs/<id>/trace           the job's distributed trace: spans,
                                  connectivity, critical path
                                  (``?format=chrome`` → Perfetto JSON)
GET    /healthz                   200/503 from repro.service.health
GET    /metrics                   text exposition of the obs registry
====== ========================== =======================================

Every response carries an ``X-Trace-Id`` header: the job's trace id on
job-scoped routes, the request's (inbound header honoured, else fresh)
everywhere else — so a client can grep journals, traces and logs by
one id.  ``POST /jobs`` also records the ``http.parse`` span that
roots a freshly admitted job's trace.

SSE framing is ``id: <seq>`` / ``event: <name>`` / ``data: <json>``
per event; the ``id`` is the job-local sequence number so a client
reconnecting mid-stream dedupes replayed history.  A client that goes
away mid-stream is noticed by awaiting its half of the socket for EOF
concurrently with the event queue — the handler unsubscribes and the
job keeps running (disconnection is not cancellation).
"""

from __future__ import annotations

import asyncio
import json
import time
import typing as t

from repro.errors import (
    AdmissionError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.obs import distributed as dist
from repro.obs.distributed import TRACE_HEADER, TraceContext
from repro.obs.export import distributed_chrome_trace, make_record
from repro.service.health import check_service
from repro.service.jobs import TERMINAL

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.service.core import TraceService

MAX_BODY = 1 << 20  # 1 MiB of JSON is already an abuse of this API

REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HttpError(ServiceError):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Connection:
    """One client connection's keep-alive state."""

    __slots__ = ("task", "interruptible", "close")

    def __init__(self, task: asyncio.Task | None) -> None:
        #: The handler task serving the connection.
        self.task = task
        #: Waiting for the next request or for an SSE event: closing
        #: the socket now loses no response.
        self.interruptible = True
        #: Answer the current request with ``Connection: close``, then
        #: close.
        self.close = False


class HttpServer:
    """The asyncio server owning one :class:`TraceService` front end."""

    def __init__(self, service: "TraceService", *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: dict[asyncio.StreamWriter, _Connection] = {}
        self._closing = False

    async def start(self) -> int:
        """Bind and listen; returns the actual port (for ``port=0``)."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def aclose(self) -> None:
        """Stop listening and close every connection.

        Idle connections and SSE streams close at once; a request
        being answered gets up to five seconds to finish, and its
        connection closes after the response.  Every handler has
        returned when this does, so no handler task is left for the
        event loop's teardown to cancel.
        """
        if self._server is None:
            return
        self._server.close()
        self._closing = True
        handlers = {conn.task for conn in self._connections.values()
                    if conn.task is not None}
        for writer, conn in list(self._connections.items()):
            if conn.interruptible:
                writer.close()
        if handlers:
            await asyncio.wait(handlers, timeout=5.0)
        for writer in list(self._connections):
            writer.close()
        await self._server.wait_closed()
        self._server = None

    # -- connection handling ------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        conn = _Connection(asyncio.current_task())
        self._connections[writer] = conn
        try:
            while not self._closing and not conn.close:
                line = await reader.readline()
                if not line:  # the client closed between requests
                    break
                conn.interruptible = False
                await self._serve_one(line, reader, writer, conn)
                conn.interruptible = True
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            del self._connections[writer]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(self, line: bytes, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         conn: _Connection) -> None:
        """Answer the request whose request line is *line*."""
        t_start = time.time()
        trace_id = dist.new_trace_id()
        try:
            method, path, version, headers = await self._read_head(
                line, reader)
            if (version != "HTTP/1.1"
                    or headers.get("connection", "").lower() == "close"):
                conn.close = True
            # Honour a caller-minted id so one trace spans client and
            # service; mint locally when absent or malformed.
            inbound = dist.sanitize_trace_id(
                headers.get(TRACE_HEADER.lower(), "")
            )
            if inbound:
                trace_id = inbound
            await self._route(
                method, path, body=await self._read_body(reader, headers),
                reader=reader, writer=writer,
                trace_id=trace_id, t_start=t_start,
            )
        except HttpError as exc:
            conn.close = True
            await self._respond(
                writer, exc.status, {"error": str(exc)}, trace_id=trace_id
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            conn.close = True
            await self._respond(
                writer, 500, {"error": repr(exc)}, trace_id=trace_id
            )

    @staticmethod
    async def _read_head(
        line: bytes, reader: asyncio.StreamReader,
    ) -> tuple[str, str, str, dict[str, str]]:
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise HttpError(400, f"malformed request line: {line!r}")
        method, path, version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), path, version.upper(), headers

    @staticmethod
    async def _read_body(reader: asyncio.StreamReader,
                         headers: dict[str, str]) -> bytes:
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY:
            raise HttpError(400, f"body too large: {length} bytes")
        return await reader.readexactly(length) if length else b""

    # -- routing ------------------------------------------------------

    async def _route(self, method: str, path: str, *, body: bytes,
                     reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter,
                     trace_id: str, t_start: float) -> None:
        path, _, query = path.partition("?")
        path = path.rstrip("/") or "/"
        parts = path.strip("/").split("/")

        if path == "/healthz":
            self._expect(method, "GET")
            return await self._healthz(writer, trace_id)
        if path == "/metrics":
            self._expect(method, "GET")
            return await self._respond_text(
                writer, 200, self.service.metrics.render_text(),
                trace_id=trace_id,
            )
        if path == "/jobs":
            if method == "POST":
                return await self._submit(body, writer, trace_id, t_start)
            self._expect(method, "GET")
            return await self._respond(
                writer, 200, self.service.describe(), trace_id=trace_id
            )
        if parts[0] == "jobs" and len(parts) == 2:
            self._expect(method, "GET")
            job = self._job(parts[1])
            return await self._respond(
                writer, 200, job.summary(),
                trace_id=job.trace_id or trace_id,
            )
        if parts[0] == "jobs" and len(parts) == 3 and parts[2] == "cancel":
            self._expect(method, "POST")
            job = await self.service.cancel(self._job(parts[1]).id)
            return await self._respond(
                writer, 200, job.summary(),
                trace_id=job.trace_id or trace_id,
            )
        if parts[0] == "jobs" and len(parts) == 3 and parts[2] == "stream":
            self._expect(method, "GET")
            return await self._stream(parts[1], reader, writer)
        if parts[0] == "jobs" and len(parts) == 3 and parts[2] == "trace":
            self._expect(method, "GET")
            return await self._trace(parts[1], query, writer, trace_id)
        raise HttpError(404, f"no such route: {path}")

    @staticmethod
    def _expect(method: str, allowed: str) -> None:
        if method != allowed:
            raise HttpError(405, f"{method} not allowed (use {allowed})")

    def _job(self, job_id: str) -> t.Any:
        try:
            return self.service.job(job_id)
        except ServiceError as exc:
            raise HttpError(404, str(exc)) from None

    # -- handlers -----------------------------------------------------

    async def _submit(self, body: bytes, writer: asyncio.StreamWriter,
                      trace_id: str, t_start: float) -> None:
        try:
            doc = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"body is not JSON: {exc}") from None
        if not isinstance(doc, dict) or "kind" not in doc:
            raise HttpError(400, 'body must be {"kind": ..., "payload": ...}')
        deadline = doc.get("deadline_s")
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError) as exc:
                raise HttpError(400, f"bad deadline_s: {exc}") from None
            if deadline <= 0:
                raise HttpError(
                    400, f"bad deadline_s: must be positive, "
                         f"got {deadline:g}")
        try:
            priority = int(doc.get("priority", 0))
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad priority: {exc}") from None
        parse_span = dist.new_span_id()
        t_parsed = time.time()
        try:
            job = self.service.submit(
                doc["kind"],
                doc.get("payload") or {},
                client=str(doc.get("client", "anonymous")),
                priority=priority,
                deadline_s=deadline,
                trace=TraceContext(
                    trace_id=trace_id, parent_span_id=parse_span
                ),
            )
        except AdmissionError as exc:
            await self._respond(
                writer, 429,
                {"error": str(exc), "reason": exc.reason,
                 "retry_after_s": exc.retry_after_s},
                extra_headers={"Retry-After": f"{exc.retry_after_s:g}"},
                trace_id=trace_id,
            )
            return
        except ServiceUnavailableError as exc:
            # Draining: the go-away answer is load-independent, so it
            # gets its own status — clients should try the next
            # instance, not just back off.
            await self._respond(
                writer, 503,
                {"error": str(exc), "reason": "draining",
                 "retry_after_s": exc.retry_after_s},
                extra_headers={"Retry-After": f"{exc.retry_after_s:g}"},
                trace_id=trace_id,
            )
            return
        except ServiceError as exc:
            raise HttpError(400, str(exc)) from None
        if job.trace_id == trace_id:
            # Fresh admission (not a dedupe twin riding an older
            # trace): the HTTP parse becomes the trace's true root and
            # the job span's parent.
            self.service.traces.add(make_record(
                parse_span, "service", "http.parse", t_start,
                t_parsed - t_start,
                attrs={"kind": str(doc["kind"]),
                       "client": str(doc.get("client", "anonymous"))},
                trace_id=trace_id,
            ))
        await self._respond(
            writer, 200, job.summary(), trace_id=job.trace_id or trace_id
        )

    async def _trace(self, job_id: str, query: str,
                     writer: asyncio.StreamWriter, trace_id: str) -> None:
        job = self._job(job_id)
        doc = self.service.trace(job.id)
        if "format=chrome" in query:
            doc = distributed_chrome_trace(doc)
        await self._respond(
            writer, 200, doc, trace_id=job.trace_id or trace_id
        )

    async def _healthz(self, writer: asyncio.StreamWriter,
                       trace_id: str) -> None:
        violations = check_service(self.service)
        status = 200 if not violations else 503
        await self._respond(writer, status, {
            "status": "ok" if not violations else "unhealthy",
            "draining": self.service.draining,
            "counts": self.service.counts(),
            "violations": [
                {"check": v.check, "subject": v.subject, "detail": v.detail}
                for v in violations
            ],
        }, trace_id=trace_id)

    async def _stream(self, job_id: str, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        job = self._job(job_id)
        if self._closing:
            raise HttpError(503, "server is shutting down")
        # A stream ends when the job does, and closes its connection;
        # until then closing the server may cut it.
        conn = self._connections[writer]
        conn.close = conn.interruptible = True
        history, queue = self.service.subscribe(job.id)
        # EOF (or any byte) from the client means it went away; the
        # stream hears it as a ``None`` on its event queue.
        eof = asyncio.ensure_future(reader.read(1))
        eof.add_done_callback(lambda _: queue.put_nowait(None))
        try:
            writer.write((
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                f"{TRACE_HEADER}: {job.trace_id or 'untraced'}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1") + b"".join(e.frame for e in history))
            await writer.drain()
            seen = history[-1].seq if history else 0
            terminal = any(e.event in TERMINAL for e in history)
            while not terminal:
                event = await queue.get()
                if event is None:  # client disconnected mid-stream
                    break
                if event.seq <= seen:  # replay raced the live feed
                    continue
                seen = event.seq
                writer.write(event.frame)
                await writer.drain()
                terminal = event.event in TERMINAL
        finally:
            self.service.unsubscribe(job.id, queue)
            eof.cancel()

    # -- response plumbing --------------------------------------------

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int,
        doc: dict[str, t.Any], *,
        extra_headers: dict[str, str] | None = None,
        trace_id: str | None = None,
    ) -> None:
        await self._send(
            writer, status, "application/json",
            json.dumps(doc, default=str).encode("utf-8"),
            extra_headers=extra_headers, trace_id=trace_id,
        )

    async def _respond_text(self, writer: asyncio.StreamWriter, status: int,
                            text: str, *,
                            trace_id: str | None = None) -> None:
        await self._send(writer, status, "text/plain; charset=utf-8",
                         text.encode("utf-8"), trace_id=trace_id)

    async def _send(self, writer: asyncio.StreamWriter, status: int,
                    content_type: str, body: bytes, *,
                    extra_headers: dict[str, str] | None = None,
                    trace_id: str | None = None) -> None:
        head = (
            f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if trace_id:
            head += f"{TRACE_HEADER}: {trace_id}\r\n"
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        conn = self._connections[writer]
        if self._closing:
            conn.close = True
        if conn.close:
            head += "Connection: close\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()
