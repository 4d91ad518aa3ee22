"""Shared netperf sweep runner for the micro-benchmark figures."""

from __future__ import annotations

import typing as t

from repro.core import build_scenario
from repro.core.testbed import default_testbed
from repro.harness.config import ExperimentConfig
from repro.harness.results import value
from repro.workloads import NetperfTcpStream, NetperfUdpRR

Row = dict[str, t.Any]


def run_point(
    mode: str, size: int, config: ExperimentConfig
) -> Row:
    """One (mode, message size) measurement on fresh testbeds.

    Each configuration runs on its own testbed, exactly as the paper
    tears down and redeploys between runs — no cross-talk between
    modes.
    """
    tb = default_testbed(seed=config.seed, vms=2)
    scenario = build_scenario(tb, mode)
    stream = NetperfTcpStream(window=config.stream_window).run(
        scenario, size, duration_s=config.stream_duration_s
    )

    tb_lat = default_testbed(seed=config.seed, vms=2)
    scenario_lat = build_scenario(tb_lat, mode)
    rr = NetperfUdpRR().run(
        scenario_lat, size, transactions=config.rr_transactions
    )
    stats = rr.latency
    return {
        "mode": mode,
        "size_B": size,
        "throughput_mbps": stream.throughput_mbps,
        "latency_us": stats.mean * 1e6,
        "latency_std_us": stats.std * 1e6,
        "latency_cv": stats.cv,
    }


def run_sweep(
    modes: t.Sequence[str], config: ExperimentConfig
) -> list[Row]:
    rows = []
    for size in config.message_sizes:
        for mode in modes:
            rows.append(run_point(mode, size, config))
    return rows


def ratio(rows: t.Sequence[Row], column: str, size: int,
          numerator: str, denominator: str) -> float:
    """Ratio of *column* between two modes at one message size."""
    return (value(rows, column, mode=numerator, size_B=size)
            / value(rows, column, mode=denominator, size_B=size))
