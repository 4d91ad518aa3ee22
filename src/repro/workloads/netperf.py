"""Netperf: TCP_STREAM (throughput) and UDP_RR (latency).

TCP_STREAM keeps a window of in-flight messages streaming from the
client to the server for a fixed duration and reports the achieved
payload rate; UDP_RR sends synchronous transactions one at a time and
reports per-transaction round-trip latency — exactly netperf's two
modes as used in §5.1.
"""

from __future__ import annotations

from repro.core.scenario import Scenario
from repro.sim.events import AllOf
from repro.workloads.base import (
    LatencyRecorder,
    WorkloadResult,
    require_positive,
    workload_rng,
)

#: TCP acknowledges roughly every other segment; the ACK leg is small
#: but does consume CPU on the reverse path.
ACK_EVERY = 2
ACK_BYTES = 64


class NetperfTcpStream:
    """``netperf -t TCP_STREAM`` against a scenario's server."""

    def __init__(self, window: int = 8) -> None:
        require_positive(window=window)
        self.window = window

    def run(self, scenario: Scenario, message_size: int,
            duration_s: float = 0.10) -> WorkloadResult:
        require_positive(message_size=message_size, duration_s=duration_s)
        tb = scenario.testbed
        engine = tb.engine
        forward, _ = scenario.paths("tcp")
        ack = scenario.ack_path("tcp")
        t_start = tb.env.now
        t_end = t_start + duration_s
        counters = {"messages": 0, "bytes": 0}

        def worker(index: int):
            sent = index  # desynchronise the ACK cadence across workers
            while tb.env.now < t_end:
                yield from engine.transfer(forward, message_size, stream=True)
                sent += 1
                if sent % ACK_EVERY == 0:
                    yield from engine.transfer(ack, ACK_BYTES, stream=True)
                if tb.env.now <= t_end:
                    counters["messages"] += 1
                    counters["bytes"] += message_size

        procs = [tb.env.process(worker(i)) for i in range(self.window)]
        tb.env.run(until=AllOf(tb.env, procs))
        elapsed = tb.env.now - t_start
        return WorkloadResult(
            workload="netperf_tcp_stream",
            mode=scenario.mode,
            message_size=message_size,
            duration_s=max(elapsed, duration_s),
            messages=counters["messages"],
            bytes_transferred=counters["bytes"],
        )


class NetperfTcpRR:
    """``netperf -t TCP_RR``: request/response over one warm connection.

    Identical transaction structure to UDP_RR plus TCP's per-segment
    ACK work; the paper uses UDP_RR for its latency numbers, TCP_RR is
    provided for completeness.
    """

    def run(self, scenario: Scenario, message_size: int,
            transactions: int = 200) -> WorkloadResult:
        require_positive(message_size=message_size, transactions=transactions)
        tb = scenario.testbed
        engine = tb.engine
        forward, reverse = scenario.paths("tcp")
        ack = scenario.ack_path("tcp")
        rng = workload_rng(scenario, "tcp_rr")
        recorder = LatencyRecorder(forward, rng)
        t_start = tb.env.now

        def client():
            for _ in range(transactions):
                t0 = tb.env.now
                yield from engine.transfer(forward, message_size, stream=False)
                yield from engine.transfer(ack, ACK_BYTES, stream=False)
                yield from engine.transfer(reverse, message_size, stream=False)
                recorder.record(tb.env.now - t0)

        tb.env.run(until=tb.env.process(client()))
        return WorkloadResult(
            workload="netperf_tcp_rr",
            mode=scenario.mode,
            message_size=message_size,
            duration_s=tb.env.now - t_start,
            messages=transactions,
            bytes_transferred=2 * message_size * transactions,
            latency_samples=tuple(recorder.samples),
        )


class NetperfTcpCRR:
    """``netperf -t TCP_CRR``: connect, one request/response, close.

    Every transaction pays the three-way handshake (one extra round
    trip) and, on NAT paths, a fresh conntrack entry — which is why
    connection churn amplifies the duplicated layer's cost.
    """

    #: Handshake control segments are tiny.
    SYN_BYTES = 60

    def run(self, scenario: Scenario, message_size: int,
            transactions: int = 100) -> WorkloadResult:
        require_positive(message_size=message_size, transactions=transactions)
        tb = scenario.testbed
        engine = tb.engine
        forward, reverse = scenario.paths("tcp")
        ack = scenario.ack_path("tcp")
        rng = workload_rng(scenario, "tcp_crr")
        recorder = LatencyRecorder(forward, rng)
        t_start = tb.env.now

        def client():
            for _ in range(transactions):
                t0 = tb.env.now
                # SYN / SYN-ACK / ACK.
                yield from engine.transfer(forward, self.SYN_BYTES,
                                           stream=False)
                yield from engine.transfer(reverse, self.SYN_BYTES,
                                           stream=False)
                yield from engine.transfer(forward, self.SYN_BYTES,
                                           stream=False)
                # The transaction itself.
                yield from engine.transfer(forward, message_size, stream=False)
                yield from engine.transfer(reverse, message_size, stream=False)
                # FIN exchange (one leg each way suffices for timing).
                yield from engine.transfer(ack, ACK_BYTES, stream=False)
                recorder.record(tb.env.now - t0)

        tb.env.run(until=tb.env.process(client()))
        return WorkloadResult(
            workload="netperf_tcp_crr",
            mode=scenario.mode,
            message_size=message_size,
            duration_s=tb.env.now - t_start,
            messages=transactions,
            bytes_transferred=2 * message_size * transactions,
            latency_samples=tuple(recorder.samples),
        )


class NetperfUdpRR:
    """``netperf -t UDP_RR``: synchronous request/response transactions."""

    def run(self, scenario: Scenario, message_size: int,
            transactions: int = 200) -> WorkloadResult:
        require_positive(message_size=message_size, transactions=transactions)
        tb = scenario.testbed
        engine = tb.engine
        forward, reverse = scenario.paths("udp")
        rng = workload_rng(scenario, "udp_rr")
        recorder = LatencyRecorder(forward, rng)
        t_start = tb.env.now

        def client():
            for _ in range(transactions):
                t0 = tb.env.now
                yield from engine.round_trip(
                    forward, reverse, message_size, message_size
                )
                recorder.record(tb.env.now - t0)

        proc = tb.env.process(client())
        tb.env.run(until=proc)
        elapsed = tb.env.now - t_start
        return WorkloadResult(
            workload="netperf_udp_rr",
            mode=scenario.mode,
            message_size=message_size,
            duration_s=elapsed,
            messages=transactions,
            bytes_transferred=2 * message_size * transactions,
            latency_samples=tuple(recorder.samples),
        )
