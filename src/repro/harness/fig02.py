"""Fig 2 — motivation: nested (NAT) vs single-level (NoCont) netperf.

The paper's §2 excerpt of fig 4: with 1280 B messages, nested
virtualization degrades throughput by ~68 % and increases latency by
~31 % compared to a single networking layer.
"""

from __future__ import annotations

from repro.harness.config import ExperimentConfig
from repro.harness.micro import ratio, run_point
from repro.harness.results import ExperimentResult

MESSAGE_SIZE = 1280


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    config = config or ExperimentConfig()
    rows = [
        run_point("nocont", MESSAGE_SIZE, config),
        run_point("nat", MESSAGE_SIZE, config),
    ]
    degradation = 1.0 - ratio(rows, "throughput_mbps", MESSAGE_SIZE,
                              "nat", "nocont")
    increase = ratio(rows, "latency_us", MESSAGE_SIZE, "nat", "nocont") - 1.0
    return ExperimentResult(
        experiment="fig02",
        title="Fig 2: network performance under nested vs single-level "
              "virtualization (1280 B)",
        rows=tuple(rows),
        notes=(
            f"throughput degradation: {degradation:.1%} (paper ≈ 68%)",
            f"latency increase: {increase:.1%} (paper ≈ 31%)",
        ),
    )
