"""Figs 6 & 7 — CPU usage breakdowns under Kafka and NGINX.

Paper claims (fig 6, Kafka): VM CPU usage is ≈ 9.6 % higher than
NoCont's for both NAT and BrFusion, but BrFusion cuts the CPU time the
guest spends serving software interrupts by ≈ 67 % relative to NAT
(NAT rules run in softirq hooks; BrFusion removes them).  Fig 7 (NGINX)
shows the same effect with higher magnitude.
"""

from __future__ import annotations

from repro.harness.config import ExperimentConfig
from repro.harness.macro import cpu_rows, run_macro
from repro.harness.results import ExperimentResult

MODES = ("nat", "brfusion", "nocont")


def _run_app(app: str, experiment: str, title: str,
             config: ExperimentConfig) -> ExperimentResult:
    rows = []
    for mode in MODES:
        _result, breakdowns, tb, scenario = run_macro(app, mode, config)
        server_vm = scenario.server_domain
        rows.extend(cpu_rows(app, mode, breakdowns,
                             entities=(server_vm, "host", "client")))

    def soft(mode):
        return next(
            r["soft_cores"] for r in rows
            if r["mode"] == mode and r["entity"].startswith("vm:")
        )

    reduction = 1.0 - soft("brfusion") / soft("nat") if soft("nat") else 0.0
    notes = (
        f"guest softirq CPU, BrFusion vs NAT: {reduction:.1%} lower "
        "(paper ≈ 67% lower for Kafka; NAT's netfilter hooks run in "
        "softirq context and BrFusion removes them)",
    )
    return ExperimentResult(
        experiment=experiment, title=title, rows=tuple(rows), notes=notes
    )


def run_fig06(config: ExperimentConfig | None = None) -> ExperimentResult:
    return _run_app(
        "kafka", "fig06",
        "Fig 6: CPU usage breakdown under Kafka (cores busy, by category)",
        config or ExperimentConfig(),
    )


def run_fig07(config: ExperimentConfig | None = None) -> ExperimentResult:
    return _run_app(
        "nginx", "fig07",
        "Fig 7: CPU usage breakdown under NGINX (cores busy, by category)",
        config or ExperimentConfig(),
    )
