"""Fig 4 — BrFusion micro-benchmark: netperf over message sizes.

Paper claims at 1280 B: BrFusion throughput ≈ 2.1× NAT, latency 18.4 %
lower than NAT, and within 3.5 % of NoCont; NAT scales more slowly with
message size and stagnates past the MTU.
"""

from __future__ import annotations

from repro.harness.config import ExperimentConfig
from repro.harness.micro import ratio, run_sweep
from repro.harness.results import ExperimentResult

MODES = ("nat", "brfusion", "nocont")
HEADLINE_SIZE = 1280


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    config = config or ExperimentConfig()
    if HEADLINE_SIZE not in config.message_sizes:
        config = ExperimentConfig(
            **{**config.__dict__,
               "message_sizes": tuple(config.message_sizes) + (HEADLINE_SIZE,)}
        )
    rows = run_sweep(MODES, config)
    notes = (
        "BrFusion/NAT throughput @1280B: "
        f"{ratio(rows, 'throughput_mbps', HEADLINE_SIZE, 'brfusion', 'nat'):.2f}x"
        " (paper ≈ 2.1x; fig 2's -68% implies ≈ 3.1x)",
        "BrFusion/NoCont throughput @1280B: "
        f"{ratio(rows, 'throughput_mbps', HEADLINE_SIZE, 'brfusion', 'nocont'):.3f}"
        " (paper ≥ 0.965)",
        "BrFusion/NAT latency @1280B: "
        f"{ratio(rows, 'latency_us', HEADLINE_SIZE, 'brfusion', 'nat'):.3f}"
        " (paper ≈ 0.816)",
    )
    return ExperimentResult(
        experiment="fig04",
        title="Fig 4: BrFusion micro-benchmark (netperf TCP_STREAM + UDP_RR)",
        rows=tuple(rows),
        notes=notes,
    )
