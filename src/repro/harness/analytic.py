"""Extension experiment: the closed-form model vs the simulator.

Runs the fig 4 sweep twice — once through the discrete-event engine,
once through :mod:`repro.analysis`'s closed form — and reports the
agreement per (mode, size) point.  A reproduction whose two independent
performance mechanisms diverge is lying somewhere; this experiment
keeps them honest.
"""

from __future__ import annotations

from repro.analysis import predict_rr_latency, predict_stream_throughput
from repro.core import build_scenario
from repro.core.testbed import default_testbed
from repro.harness.config import ExperimentConfig
from repro.harness.results import ExperimentResult
from repro.workloads import NetperfTcpStream, NetperfUdpRR

MODES = ("nocont", "nat", "hostlo")


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    config = config or ExperimentConfig()
    rows = []
    for mode in MODES:
        for size in config.message_sizes:
            tb = default_testbed(seed=config.seed, vms=2)
            scenario = build_scenario(tb, mode)
            forward, reverse = scenario.paths("tcp")
            prediction = predict_stream_throughput(
                tb.engine, forward, scenario.ack_path("tcp"), size,
                window=config.stream_window,
            )
            des = NetperfTcpStream(window=config.stream_window).run(
                scenario, size, duration_s=config.stream_duration_s
            )

            tb_lat = default_testbed(seed=config.seed, vms=2)
            scenario_lat = build_scenario(tb_lat, mode)
            fwd_udp, rev_udp = scenario_lat.paths("udp")
            predicted_rr = predict_rr_latency(
                tb_lat.engine, fwd_udp, rev_udp, size
            )
            des_rr = NetperfUdpRR().run(
                scenario_lat, size, transactions=config.rr_transactions
            )
            rows.append({
                "mode": mode,
                "size_B": size,
                "des_mbps": des.throughput_mbps,
                "model_mbps": prediction.throughput_bps / 1e6,
                "thr_agreement": des.throughput_bps / prediction.throughput_bps,
                "des_rr_us": des_rr.latency.mean * 1e6,
                "model_rr_us": predicted_rr * 1e6,
                "bottleneck": prediction.bottleneck_domain,
            })

    worst = min(rows, key=lambda r: r["thr_agreement"])
    return ExperimentResult(
        experiment="analytic_check",
        title="Extension: closed-form model vs discrete-event simulation",
        rows=tuple(rows),
        notes=(
            "throughput agreement (DES/model) worst case: "
            f"{worst['thr_agreement']:.2f} at {worst['mode']} "
            f"@{worst['size_B']}B (DES adds queueing/drain slack)",
        ),
    )
