"""A hand-rolled asyncio HTTP/1.1 + SSE front end for the service.

No third-party web framework: the dependency budget is the stdlib, and
the API surface is small enough that ``asyncio.start_server`` plus a
~hundred-line request parser is the honest cost.  One connection = one
request (``Connection: close``), which keeps the parser trivial and is
plenty for a campaign driver; SSE streams hold their connection open
until the job's terminal event, exactly as the protocol intends.

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
from repro.service.jobs import TERMINAL, JobEvent

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


class HttpServer:
    """The asyncio server owning one :class:`TraceService` front end."""

    def __init__(self, service: "TraceService", *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> int:
        """Bind and listen; returns the actual port (for ``port=0``)."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        t_start = time.time()
        trace_id = dist.new_trace_id()
        try:
            method, path, headers = await self._read_head(reader)
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
            await self._respond(
                writer, exc.status, {"error": str(exc)}, trace_id=trace_id
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            try:
                await self._respond(
                    writer, 500, {"error": repr(exc)}, trace_id=trace_id
                )
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_head(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, dict[str, str]]:
        line = await reader.readline()
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise HttpError(400, f"malformed request line: {line!r}")
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), path, headers

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
        history, queue = self.service.subscribe(job.id)
        eof = asyncio.ensure_future(reader.read(1))  # EOF = client gone
        try:
            writer.write((
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                f"{TRACE_HEADER}: {job.trace_id or 'untraced'}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1"))
            await writer.drain()
            seen = 0
            for event in history:
                self._write_event(writer, event)
                seen = event.seq
            await writer.drain()
            terminal = any(e.event in ("done", "failed", "cancelled")
                           for e in history)
            while not terminal:
                getter = asyncio.ensure_future(queue.get())
                done, _ = await asyncio.wait(
                    {getter, eof}, return_when=asyncio.FIRST_COMPLETED
                )
                if eof in done:  # client disconnected mid-stream
                    getter.cancel()
                    break
                event = getter.result()
                if event.seq <= seen:  # replay raced the live feed
                    continue
                seen = event.seq
                self._write_event(writer, event)
                await writer.drain()
                terminal = event.event in ("done", "failed", "cancelled")
        finally:
            self.service.unsubscribe(job.id, queue)
            eof.cancel()

    @staticmethod
    def _write_event(writer: asyncio.StreamWriter, event: JobEvent) -> None:
        data = json.dumps(event.data, default=str)
        writer.write(
            f"id: {event.seq}\nevent: {event.event}\n"
            f"data: {data}\n\n".encode("utf-8")
        )

    # -- response plumbing --------------------------------------------

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter, status: int, doc: dict[str, t.Any],
        *, extra_headers: dict[str, str] | None = None,
        trace_id: str | None = None,
    ) -> None:
        body = json.dumps(doc, default=str).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if trace_id:
            head += f"{TRACE_HEADER}: {trace_id}\r\n"
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        head += "Connection: close\r\n\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    @staticmethod
    async def _respond_text(writer: asyncio.StreamWriter, status: int,
                            text: str, *,
                            trace_id: str | None = None) -> None:
        body = text.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: text/plain; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if trace_id:
            head += f"{TRACE_HEADER}: {trace_id}\r\n"
        head += "Connection: close\r\n\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
