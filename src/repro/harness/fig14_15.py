"""Figs 14 & 15 — CPU usage of Hostlo vs SameNode/NAT/Overlay.

Paper claims (fig 14, Memcached): vs SameNode, hostlo raises
client+server kernel CPU by ≈46.7 % and total client+server CPU by
≈53.2 %; host-side guest CPU time grows ≈89.8 % (SameNode runs one VM,
the others two).  ~1.68 cores of host kernel time serve the guests'
virtual interfaces (vhost) — present for NAT and Overlay too, so the
hostlo module's CPU cost is attributed like vhost's.  Fig 15 (NGINX):
smaller increases (+17.1 % client+server, +36.9 % guest).
"""

from __future__ import annotations

from repro.harness.config import ExperimentConfig
from repro.harness.macro import cpu_rows, run_macro
from repro.harness.results import ExperimentResult

MODES = ("samenode", "hostlo", "overlay", "nat_cross")


def _run_app(app: str, experiment: str, title: str,
             config: ExperimentConfig) -> ExperimentResult:
    rows = []
    summaries = {}
    for mode in MODES:
        _result, breakdowns, tb, scenario = run_macro(app, mode, config)
        vm_entities = sorted(
            name for name in breakdowns if name.startswith("vm:")
        )
        rows.extend(cpu_rows(app, mode, breakdowns,
                             entities=(*vm_entities, "host")))
        # client+server = everything the guests run (both pod fragments).
        kernel = sum(
            breakdowns[e].kernel for e in vm_entities
        )
        total = sum(breakdowns[e].total for e in vm_entities)
        summaries[mode] = {
            "kernel": kernel,
            "total": total,
            "guest": breakdowns["host"].guest,
            "host_sys": breakdowns["host"].sys,
        }

    def rel(metric, mode):
        base = summaries["samenode"][metric]
        if base <= 0:
            return 0.0
        return summaries[mode][metric] / base - 1.0

    notes = (
        f"client+server kernel CPU, hostlo vs SameNode: "
        f"{rel('kernel', 'hostlo'):+.1%}"
        " (paper: +46.7% for Memcached, smaller for NGINX)",
        f"client+server total CPU, hostlo vs SameNode: "
        f"{rel('total', 'hostlo'):+.1%} (paper: +53.2% / +17.1%)",
        f"host guest-CPU time, hostlo vs SameNode: "
        f"{rel('guest', 'hostlo'):+.1%}"
        " (paper: +89.8% / +36.9%; SameNode runs one VM, hostlo two)",
        "host kernel (vhost/hostlo worker) cores — hostlo "
        f"{summaries['hostlo']['host_sys'] / max(config.macro_duration_s, 1e-9):.2f}"
        ", nat "
        f"{summaries['nat_cross']['host_sys'] / max(config.macro_duration_s, 1e-9):.2f}"
        ", overlay "
        f"{summaries['overlay']['host_sys'] / max(config.macro_duration_s, 1e-9):.2f}"
        " (paper: ≈1.68 cores, similar across the three)",
    )
    return ExperimentResult(
        experiment=experiment, title=title, rows=tuple(rows), notes=notes
    )


def run_fig14(config: ExperimentConfig | None = None) -> ExperimentResult:
    return _run_app(
        "memcached", "fig14",
        "Fig 14: CPU usage, Memcached over Hostlo (cores busy)",
        config or ExperimentConfig(),
    )


def run_fig15(config: ExperimentConfig | None = None) -> ExperimentResult:
    return _run_app(
        "nginx", "fig15",
        "Fig 15: CPU usage, NGINX over Hostlo (cores busy)",
        config or ExperimentConfig(),
    )
