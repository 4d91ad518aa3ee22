"""Fig 10 — Hostlo overhead micro-benchmark: intra-pod netperf sweep.

Paper claims at 1024 B: Hostlo throughput is 17.9 % higher than NAT's,
27 % lower than Overlay's, and 5.3× below SameNode's; Hostlo latency is
87.3 % lower than NAT's and 89.8 % lower than Overlay's, stable across
message sizes at roughly twice SameNode's.  Worst case over the sweep:
6.1× lower throughput / 2.1× higher latency than SameNode.
"""

from __future__ import annotations

from repro.harness.config import ExperimentConfig
from repro.harness.micro import ratio, run_sweep
from repro.harness.results import ExperimentResult

MODES = ("samenode", "hostlo", "overlay", "nat_cross")
HEADLINE_SIZE = 1024


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    config = config or ExperimentConfig()
    if HEADLINE_SIZE not in config.message_sizes:
        config = ExperimentConfig(
            **{**config.__dict__,
               "message_sizes": tuple(config.message_sizes) + (HEADLINE_SIZE,)}
        )
    rows = run_sweep(MODES, config)

    worst_thr = max(
        ratio(rows, "throughput_mbps", size, "samenode", "hostlo")
        for size in config.message_sizes
    )
    worst_lat = max(
        ratio(rows, "latency_us", size, "hostlo", "samenode")
        for size in config.message_sizes
    )
    notes = (
        "Hostlo/NAT throughput @1024B: "
        f"{ratio(rows, 'throughput_mbps', HEADLINE_SIZE, 'hostlo', 'nat_cross'):.3f}"
        " (paper ≈ 1.179)",
        "Hostlo/Overlay throughput @1024B: "
        f"{ratio(rows, 'throughput_mbps', HEADLINE_SIZE, 'hostlo', 'overlay'):.3f}"
        " (paper ≈ 0.73)",
        "SameNode/Hostlo throughput @1024B: "
        f"{ratio(rows, 'throughput_mbps', HEADLINE_SIZE, 'samenode', 'hostlo'):.2f}x"
        " (paper ≈ 5.3x)",
        "Hostlo latency vs NAT @1024B: "
        f"{1 - ratio(rows, 'latency_us', HEADLINE_SIZE, 'hostlo', 'nat_cross'):.1%} lower"
        " (paper ≈ 87.3% lower)",
        "Hostlo latency vs Overlay @1024B: "
        f"{1 - ratio(rows, 'latency_us', HEADLINE_SIZE, 'hostlo', 'overlay'):.1%} lower"
        " (paper ≈ 89.8% lower)",
        f"worst case over sweep: {worst_thr:.1f}x lower throughput / "
        f"{worst_lat:.1f}x higher latency than SameNode "
        "(paper: 6.1x / 2.1x)",
    )
    return ExperimentResult(
        experiment="fig10",
        title="Fig 10: Hostlo overhead micro-benchmark (intra-pod netperf)",
        rows=tuple(rows),
        notes=notes,
    )
