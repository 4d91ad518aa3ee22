"""Benchmark workloads.

Implements the paper's load generators over the simulated datapaths:

* :class:`NetperfTcpStream` / :class:`NetperfUdpRR` — the §5.1
  micro-benchmark (throughput via a windowed byte stream, latency via
  synchronous request/response transactions).
* :class:`MemtierBenchmark` — Memcached driven by memtier (table 1:
  4 threads, 50 connections/thread, SET:GET = 1:10).
* :class:`Wrk2Benchmark` — NGINX driven by wrk2 (table 1: 2 threads,
  100 connections, 10 k req/s on a 1 kB file), open-loop and therefore
  free of coordinated omission.
* :class:`KafkaProducerPerf` — kafka-producer-perf-test (table 1:
  120 000 msg/s of 100 B messages, 8192 B batches).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ["WorkloadResult"],
    ".kafka": ["KafkaProducerPerf"],
    ".memcached": ["MemtierBenchmark"],
    ".netperf": [
        "NetperfTcpCRR", "NetperfTcpRR", "NetperfTcpStream", "NetperfUdpRR",
    ],
    ".nginx": ["Wrk2Benchmark"],
})
