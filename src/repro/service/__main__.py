"""``python -m repro.service``: boot a live trace service.

The operational entry point the README quickstart documents::

    python -m repro.service --port 8700 --cache .cache &
    curl -s localhost:8700/jobs -d '{"kind": "experiment",
        "payload": {"experiment": "fig08", "preset": "quick"}}'
    curl -N localhost:8700/jobs/j00000/stream

Runs until interrupted; ``--shards`` sizes the worker side (one spawn
worker process per shard), ``--capacity``/``--quota`` bound admission,
``--cache`` points at (and shares) a campaign result-cache directory,
and ``--journal`` turns on the write-ahead job journal: a killed
service replays it on the next boot and finishes what it had accepted.
``--slo-*`` tune the rolling availability/latency objectives behind
the ``service.slo`` health check and the ``service_slo_burn`` gauge;
``--trace-keep`` sizes the in-memory distributed-trace store behind
``GET /jobs/<id>/trace``.

SIGTERM is the graceful exit: admission flips to 503 + Retry-After,
in-flight jobs finish (up to ``--drain-timeout``), the journal gets
its clean-shutdown marker, and the process leaves 0.  SIGINT (^C)
stays abrupt — on a journaled service that is exactly the crash the
journal exists for.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
import typing as t

from repro.service.core import ServiceConfig, TraceService
from repro.service.http import HttpServer
from repro.service.slo import SloConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Long-lived campaign/trace job service (HTTP + SSE).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8700,
                        help="listen port (0 picks a free one)")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker shards (default: 2)")
    parser.add_argument("--executor", choices=["spawn"], default="spawn",
                        help="per-shard executor; the only one is spawn, "
                             "one worker process per shard")
    parser.add_argument("--capacity", type=int, default=64,
                        help="max queued+running jobs before 429s")
    parser.add_argument("--quota", type=int, default=16,
                        help="max active jobs per client")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="content-addressed result cache directory "
                             "(shared with campaign --cache)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="per-job wall-clock timeout seconds")
    parser.add_argument("--journal", metavar="DIR", default=None,
                        help="write-ahead job journal directory; a "
                             "restarted service replays it and finishes "
                             "accepted work (default: no journal)")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        help="seconds SIGTERM waits for in-flight jobs "
                             "before giving up (default: 30)")
    parser.add_argument("--slo-availability", type=float, default=0.99,
                        help="availability objective: fraction of "
                             "completions that must succeed "
                             "(default: 0.99)")
    parser.add_argument("--slo-latency-target", type=float, default=60.0,
                        help="latency objective threshold: seconds a "
                             "successful job may take end-to-end "
                             "(default: 60)")
    parser.add_argument("--slo-windows", metavar="SHORT,LONG",
                        default="300,3600",
                        help="burn-rate windows in seconds, short,long "
                             "(default: 300,3600)")
    parser.add_argument("--trace-keep", type=int, default=256,
                        help="distributed traces retained in memory "
                             "for GET /jobs/<id>/trace (default: 256)")
    return parser


def _parse_windows(raw: str) -> tuple[float, float]:
    try:
        short_s, long_s = (float(part) for part in raw.split(","))
    except ValueError:
        raise SystemExit(
            f"--slo-windows wants SHORT,LONG seconds, got {raw!r}"
        ) from None
    return short_s, long_s


async def serve(config: ServiceConfig, host: str, port: int,
                announce: t.Callable[[str], None] = print) -> None:
    service = TraceService(config)
    server = HttpServer(service, host=host, port=port)
    await service.start()
    bound = await server.start()
    announce(
        f"repro.service listening on http://{host}:{bound} "
        f"({config.shards} spawn shards, "
        f"capacity {config.capacity}, quota {config.per_client_quota})"
    )
    drain = asyncio.Event()
    loop = asyncio.get_running_loop()
    with contextlib.suppress(NotImplementedError):  # non-Unix loops
        loop.add_signal_handler(signal.SIGTERM, drain.set)
    drained = False
    try:
        await drain.wait()  # SIGTERM, or cancelled from outside
        announce("repro.service draining (SIGTERM): finishing "
                 "in-flight jobs, refusing new work with 503")
        await service.aclose(drain=True)
        drained = True
    finally:
        with contextlib.suppress(NotImplementedError):
            loop.remove_signal_handler(signal.SIGTERM)
        await server.aclose()
        if not drained:
            await service.aclose()


def main(argv: t.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    short_s, long_s = _parse_windows(args.slo_windows)
    config = ServiceConfig(
        shards=args.shards,
        capacity=args.capacity,
        per_client_quota=args.quota,
        cache_dir=args.cache,
        job_timeout_s=args.timeout,
        journal_dir=args.journal,
        drain_timeout_s=args.drain_timeout,
        slo=SloConfig(
            availability_target=args.slo_availability,
            latency_target_s=args.slo_latency_target,
            short_window_s=short_s,
            long_window_s=long_s,
        ),
        trace_keep=args.trace_keep,
    )
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(serve(config, args.host, args.port))
    return 0


if __name__ == "__main__":
    sys.exit(main())
