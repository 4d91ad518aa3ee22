"""The analytic throughput/latency model."""

from __future__ import annotations

import dataclasses

from repro.net.path import Datapath
from repro.net.transfer import TransferEngine

#: Mirrors the TCP ACK cadence of the netperf stream workload.
ACK_EVERY = 2
ACK_BYTES = 64


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
    busy: dict[str, float] = {}
    for domain, service, _ in engine.stage_seconds(forward, nbytes, True):
        busy[domain] = busy.get(domain, 0.0) + service
    if ack_path is not None:
        for domain, service, _ in engine.stage_seconds(
                ack_path, ACK_BYTES, True):
            busy[domain] = busy.get(domain, 0.0) + service / ACK_EVERY

    bottleneck_domain = "none"
    bottleneck_rate = float("inf")
    for domain, seconds in busy.items():
        if seconds <= 0:
            continue
        rate = engine.cpu_spec(domain)[0] / seconds
        if rate < bottleneck_rate:
            bottleneck_domain, bottleneck_rate = domain, rate

    latency = engine.latency_estimate(forward, nbytes, stream=True)
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
    return (engine.latency_estimate(forward, nbytes)
            + engine.latency_estimate(reverse, nbytes))
