"""The analytic throughput/latency model."""

from __future__ import annotations

import dataclasses
import typing as t

from repro.net.path import Datapath
from repro.net.transfer import TransferEngine, stage_plan

#: Mirrors the TCP ACK cadence of the netperf stream workload.
ACK_EVERY = 2
ACK_BYTES = 64


def _domain_seconds(
    engine: TransferEngine,
    path: Datapath,
    nbytes: int,
    stream: bool,
    weight: float = 1.0,
    into: dict[str, float] | None = None,
) -> dict[str, float]:
    """Busy seconds per CPU domain for one message on *path*."""
    busy = into if into is not None else {}
    for _, domain, _, _, cycles, _ in stage_plan(
            path, nbytes, stream, engine.cost_model):
        # ``engine.cpu`` also creates the lazy kernel-thread CPUs the
        # DES will use, in stage order, before it runs.
        pool = engine.cpu(domain)
        busy[domain] = busy.get(domain, 0.0) + (
            weight * cycles / pool.freq_hz
        )
    return busy


def pipeline_latency(engine: TransferEngine, path: Datapath,
                     nbytes: int, stream: bool) -> float:
    """Uncontended time for one message to traverse the whole path."""
    total = 0.0
    for _, domain, _, _, cycles, wakeup in stage_plan(
            path, nbytes, stream, engine.cost_model):
        total += cycles / engine.cpu(domain).freq_hz
        total += wakeup
    return total


@dataclasses.dataclass(frozen=True)
class StreamPrediction:
    """Predicted streaming behaviour of one flow."""

    throughput_bps: float
    bottleneck_domain: str
    bottleneck_rate_msgs: float
    window_rate_msgs: float
    pipeline_latency_s: float

    @property
    def window_bound(self) -> bool:
        """True when the window, not a CPU, limits the flow."""
        return self.window_rate_msgs < self.bottleneck_rate_msgs


def predict_stream_throughput(
    engine: TransferEngine,
    forward: Datapath,
    ack_path: Datapath | None,
    nbytes: int,
    window: int = 128,
) -> StreamPrediction:
    """Closed-form throughput of a windowed stream on *forward*.

    Each CPU domain serves ``cores / busy_seconds_per_message``
    messages per second; the slowest domain is the bottleneck; a
    *window* of in-flight messages over the pipeline latency caps the
    rate from above as well.
    """
    busy = _domain_seconds(engine, forward, nbytes, stream=True)
    if ack_path is not None:
        _domain_seconds(engine, ack_path, ACK_BYTES, stream=True,
                        weight=1.0 / ACK_EVERY, into=busy)

    bottleneck_domain = "none"
    bottleneck_rate = float("inf")
    for domain, seconds in busy.items():
        if seconds <= 0:
            continue
        rate = engine.cpu(domain).cores / seconds
        if rate < bottleneck_rate:
            bottleneck_domain, bottleneck_rate = domain, rate

    latency = pipeline_latency(engine, forward, nbytes, stream=True)
    window_rate = window / latency if latency > 0 else float("inf")
    rate = min(bottleneck_rate, window_rate)
    return StreamPrediction(
        throughput_bps=rate * nbytes * 8,
        bottleneck_domain=bottleneck_domain,
        bottleneck_rate_msgs=bottleneck_rate,
        window_rate_msgs=window_rate,
        pipeline_latency_s=latency,
    )


def predict_rr_latency(
    engine: TransferEngine,
    forward: Datapath,
    reverse: Datapath,
    nbytes: int,
) -> float:
    """Closed-form round-trip latency of one synchronous transaction."""
    return (
        pipeline_latency(engine, forward, nbytes, stream=False)
        + pipeline_latency(engine, reverse, nbytes, stream=False)
    )


def sweep_message_sizes(
    engine: TransferEngine,
    forward: Datapath,
    reverse: Datapath,
    ack_path: Datapath | None,
    sizes: t.Sequence[int],
    window: int = 128,
) -> list[dict[str, float | str]]:
    """Instant (no-DES) sweep: one row per message size."""
    rows: list[dict[str, float | str]] = []
    for size in sizes:
        stream = predict_stream_throughput(
            engine, forward, ack_path, size, window=window
        )
        rows.append({
            "size_B": float(size),
            "throughput_mbps": stream.throughput_bps / 1e6,
            "bottleneck": stream.bottleneck_domain,
            "rr_latency_us": predict_rr_latency(
                engine, forward, reverse, size
            ) * 1e6,
        })
    return rows
