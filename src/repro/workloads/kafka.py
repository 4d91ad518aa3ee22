"""Kafka producer throughput test (table 1: 120 k msg/s, 100 B, 8192 B
batches), driven by ``kafka-producer-perf-test.sh`` semantics.

The producer accumulates 100 B records into 8192 B batches and sends a
batch as soon as it fills (at 120 k msg/s a batch fills in ~0.68 ms, so
batching — not linger — dominates).  Per-record latency is the time
from the record's arrival at the producer to the broker's acknowledge,
so records early in a batch see extra queueing delay — this is why
Kafka latencies sit in the milliseconds while netperf's sit in the
microseconds.
"""

from __future__ import annotations

from repro.core.scenario import Scenario
from repro.workloads.base import (
    LatencyRecorder,
    WorkloadResult,
    require_positive,
    workload_rng,
)

#: Broker-side work per batch: protocol parse, log append, page-cache copy.
BROKER_BATCH_CYCLES = 140_000
#: Producer-side work per batch: compression/serialization.
PRODUCER_BATCH_CYCLES = 60_000
#: Containerized brokers pay overlayfs/cgroup overhead on the log append
#: path — the reason BrFusion stays ~13 % above NoCont in fig 5 even
#: though its network path matches NoCont's.
CONTAINER_BROKER_FACTOR = 2.3
ACK_BYTES = 68


class KafkaProducerPerf:
    """The Kafka producer performance benchmark."""

    def __init__(self, rate_per_s: float = 120_000.0,
                 message_bytes: int = 100, batch_bytes: int = 8192) -> None:
        require_positive(rate_per_s=rate_per_s, message_bytes=message_bytes,
                         batch_bytes=batch_bytes)
        if batch_bytes < message_bytes:
            raise ValueError("batch must hold at least one message")
        self.rate_per_s = rate_per_s
        self.message_bytes = message_bytes
        self.batch_bytes = batch_bytes
        self.messages_per_batch = batch_bytes // message_bytes

    def run(self, scenario: Scenario, duration_s: float = 0.25) -> WorkloadResult:
        require_positive(duration_s=duration_s)
        tb = scenario.testbed
        engine = tb.engine
        forward, reverse = scenario.paths("tcp")
        broker_cpu = engine.cpu(scenario.server_domain)
        producer_cpu = engine.cpu(scenario.client_domain)
        rng = workload_rng(scenario, "kafka")
        recorder = LatencyRecorder(forward, rng)
        broker_cycles = BROKER_BATCH_CYCLES
        if scenario.dst_ns.kind == "container":
            broker_cycles *= CONTAINER_BROKER_FACTOR

        batch_fill_s = self.messages_per_batch / self.rate_per_s
        total_batches = max(1, int(duration_s / batch_fill_s))
        t_start = tb.env.now
        counters = {"messages": 0, "bytes": 0}

        def producer():
            for _ in range(total_batches):
                batch_open = tb.env.now
                # Records arrive uniformly while the batch fills.
                yield tb.env.timeout(batch_fill_s)
                yield producer_cpu.execute(PRODUCER_BATCH_CYCLES, account="usr")
                yield from engine.transfer(forward, self.batch_bytes,
                                           stream=True)
                yield broker_cpu.execute(broker_cycles, account="usr")
                yield from engine.transfer(reverse, ACK_BYTES, stream=False)
                acked = tb.env.now
                # Mean record latency within the batch: a record arriving
                # at fill-fraction f waits (1-f)·fill + send/ack time.
                mean_record_latency = (acked - batch_open) - batch_fill_s / 2.0
                recorder.record(mean_record_latency)
                counters["messages"] += self.messages_per_batch
                counters["bytes"] += self.batch_bytes

        proc = tb.env.process(producer())
        tb.env.run(until=proc)
        elapsed = tb.env.now - t_start
        return WorkloadResult(
            workload="kafka_producer",
            mode=scenario.mode,
            message_size=self.message_bytes,
            duration_s=elapsed,
            messages=counters["messages"],
            bytes_transferred=counters["bytes"],
            latency_samples=tuple(recorder.samples),
        )
