"""Shared macro-benchmark runner (Memcached, NGINX, Kafka).

Builds a fresh testbed per (application, mode) pair, runs the table 1
workload, and optionally collects the usr/sys/soft/guest CPU breakdowns
over the measurement window for the CPU figures.
"""

from __future__ import annotations

import typing as t

from repro.core import MODES, Scenario, build_scenario
from repro.core.testbed import Testbed, default_testbed
from repro.errors import ConfigurationError
from repro.harness.config import ExperimentConfig
from repro.metrics.cpu import CpuBreakdown
from repro.workloads import KafkaProducerPerf, MemtierBenchmark, Wrk2Benchmark
from repro.workloads.base import WorkloadResult

#: Application image + canonical port per macro-benchmark.
APPS = {
    "memcached": ("memcached", 11211),
    "nginx": ("nginx", 80),
    "kafka": ("kafka", 9092),
}


def build_workload(app: str, config: ExperimentConfig):
    if app == "memcached":
        return MemtierBenchmark(
            threads=config.memtier_threads,
            connections_per_thread=config.memtier_connections_per_thread,
        )
    if app == "nginx":
        return Wrk2Benchmark(
            connections=config.wrk2_connections,
            rate_per_s=config.wrk2_rate_per_s,
        )
    if app == "kafka":
        return KafkaProducerPerf()
    raise ConfigurationError(f"unknown macro app {app!r}")


def run_macro(
    app: str,
    mode: str,
    config: ExperimentConfig,
) -> tuple[WorkloadResult, dict[str, CpuBreakdown], Testbed, Scenario]:
    """One macro run; returns (result, breakdowns, testbed, scenario)."""
    if app not in APPS:
        raise ConfigurationError(f"unknown macro app {app!r}")
    image, port = APPS[app]
    # "By nature, the SameNode setup features only one VM, whereas
    # Hostlo, NAT and Overlay include two VMs" (§5.3.4) — idle-guest
    # load must not be double-billed to single-VM configurations.
    tb = default_testbed(seed=config.seed, vms=MODES[mode].vms)
    scenario = build_scenario(tb, mode, image=image, port=port)
    workload = build_workload(app, config)
    tb.reset_accounting()
    result = workload.run(scenario, duration_s=config.macro_duration_s)
    return result, tb.breakdowns(), tb, scenario


def latency_row(app: str, result: WorkloadResult) -> dict[str, t.Any]:
    stats = result.latency
    return {
        "app": app,
        "mode": result.mode,
        "rate_per_s": result.rate_per_s,
        "latency_us": stats.mean * 1e6,
        "latency_std_us": stats.std * 1e6,
        "latency_cv": stats.cv,
        "p99_us": stats.p99 * 1e6,
    }


def cpu_rows(
    app: str,
    mode: str,
    breakdowns: dict[str, CpuBreakdown],
    entities: t.Sequence[str],
) -> list[dict[str, t.Any]]:
    rows = []
    for entity in entities:
        bd = breakdowns[entity]
        rows.append({
            "app": app,
            "mode": mode,
            "entity": entity,
            "usr_cores": _per_window(bd, bd.usr),
            "sys_cores": _per_window(bd, bd.sys),
            "soft_cores": _per_window(bd, bd.soft),
            "guest_cores": _per_window(bd, bd.guest),
            "total_cores": bd.cores_used(),
        })
    return rows


def _per_window(bd: CpuBreakdown, seconds: float) -> float:
    """Busy seconds expressed as average cores over the window."""
    if bd.window_s <= 0:
        return 0.0
    return seconds / bd.window_s
