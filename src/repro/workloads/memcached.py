"""Memcached driven by memtier_benchmark (table 1 parameters).

Closed-loop: ``threads × connections`` independent connections each
issue synchronous operations with a 1:10 SET:GET ratio.  The server
charges per-operation CPU in the server namespace's domain (``usr``
work — memcached's hash/LRU handling), on top of the network path.
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

#: Per-operation application work (cycles) on the server.
SERVER_OP_CYCLES = 5500
#: Client-side request formatting / parsing work.
CLIENT_OP_CYCLES = 2500
#: memtier defaults: small keys, small values.
REQUEST_BYTES_GET = 70
REQUEST_BYTES_SET = 70 + 128
RESPONSE_BYTES_GET = 128 + 40
RESPONSE_BYTES_SET = 8
#: Service-time lognormal sigma (not mean-normalised).  When memtier
#: and memcached share the same VM (SameNode), the 200 client threads
#: contend with the server for the 5 vCPUs — the paper observes
#: "extreme variability" in SameNode latencies (fig 12), which is why
#: hostlo "unexpectedly reaches the levels of SameNode" (fig 11).
SERVICE_SIGMA_COLOCATED = 0.90
SERVICE_SIGMA_REMOTE = 0.25


class MemtierBenchmark:
    """``memtier_benchmark`` against a memcached scenario."""

    def __init__(self, threads: int = 4, connections_per_thread: int = 50,
                 set_get_ratio: float = 1.0 / 10.0) -> None:
        require_positive(threads=threads,
                         connections_per_thread=connections_per_thread)
        if not 0.0 <= set_get_ratio <= 1.0:
            raise ValueError(f"bad SET:GET ratio {set_get_ratio!r}")
        self.connections = threads * connections_per_thread
        self.set_fraction = set_get_ratio / (1.0 + set_get_ratio)

    def run(self, scenario: Scenario, duration_s: float = 0.05) -> WorkloadResult:
        require_positive(duration_s=duration_s)
        tb = scenario.testbed
        engine = tb.engine
        forward, reverse = scenario.paths("tcp")
        server_cpu = engine.cpu(scenario.server_domain)
        client_cpu = engine.cpu(scenario.client_domain)
        rng = workload_rng(scenario, "memtier")
        recorder = LatencyRecorder(forward, rng)
        service_rng = tb.rng.stream("memtier-service")  # common random numbers
        sigma = (
            SERVICE_SIGMA_COLOCATED
            if scenario.client_domain == scenario.server_domain
            else SERVICE_SIGMA_REMOTE
        )
        t_start = tb.env.now
        t_end = t_start + duration_s
        counters = {"ops": 0, "bytes": 0}

        def connection(index: int):
            del index
            while tb.env.now < t_end:
                is_set = rng.random() < self.set_fraction
                req = REQUEST_BYTES_SET if is_set else REQUEST_BYTES_GET
                resp = RESPONSE_BYTES_SET if is_set else RESPONSE_BYTES_GET
                t0 = tb.env.now
                yield client_cpu.execute(CLIENT_OP_CYCLES, account="usr")
                # Hundreds of concurrent connections keep the NIC queues
                # full: the stack batches as under streaming.
                yield from engine.transfer(forward, req, stream=True)
                noise = float(service_rng.lognormal(mean=0.0, sigma=sigma))
                yield server_cpu.execute(SERVER_OP_CYCLES * noise,
                                         account="usr")
                yield from engine.transfer(reverse, resp, stream=True)
                if tb.env.now <= t_end:
                    recorder.record(tb.env.now - t0)
                    counters["ops"] += 1
                    counters["bytes"] += req + resp

        procs = [tb.env.process(connection(i)) for i in range(self.connections)]
        tb.env.run(until=AllOf(tb.env, procs))
        elapsed = tb.env.now - t_start
        return WorkloadResult(
            workload="memtier",
            mode=scenario.mode,
            message_size=REQUEST_BYTES_GET,
            duration_s=max(elapsed, duration_s),
            messages=counters["ops"],
            bytes_transferred=counters["bytes"],
            latency_samples=tuple(recorder.samples),
        )
