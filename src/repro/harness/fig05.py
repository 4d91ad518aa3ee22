"""Fig 5 — BrFusion macro-benchmarks: Kafka, NGINX, Memcached latency.

Paper claims: Kafka latency −11.8 % under BrFusion vs NAT (still
13.1 % above NoCont); NGINX latency −30.1 % vs NAT but far above NoCont
(software overhead, not networking); container cases show much larger
latency variance than NoCont.
"""

from __future__ import annotations

from repro.harness.config import ExperimentConfig
from repro.harness.macro import latency_row, run_macro
from repro.harness.results import ExperimentResult, value

MODES = ("nat", "brfusion", "nocont")
APPS = ("kafka", "nginx", "memcached")


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    config = config or ExperimentConfig()
    rows = []
    for app in APPS:
        for mode in MODES:
            result, _breakdowns, _tb, _scenario = run_macro(app, mode, config)
            rows.append(latency_row(app, result))

    def lat(app, mode):
        return value(rows, "latency_us", app=app, mode=mode)

    notes = (
        "Kafka BrFusion vs NAT latency: "
        f"{1 - lat('kafka', 'brfusion') / lat('kafka', 'nat'):+.1%}"
        " better (paper ≈ 11.8% better)",
        "Kafka BrFusion vs NoCont latency: "
        f"{lat('kafka', 'brfusion') / lat('kafka', 'nocont') - 1:+.1%}"
        " (paper ≈ +13.1%)",
        "NGINX BrFusion vs NAT latency: "
        f"{1 - lat('nginx', 'brfusion') / lat('nginx', 'nat'):+.1%}"
        " better (paper ≈ 30.1% better)",
        "NGINX BrFusion vs NoCont latency: "
        f"{lat('nginx', 'brfusion') / lat('nginx', 'nocont') - 1:+.1%}"
        " (paper ≈ +120.3%; the overhead is the container software "
        "stack, not networking)",
    )
    return ExperimentResult(
        experiment="fig05",
        title="Fig 5: BrFusion macro-benchmarks (table 1 parameters)",
        rows=tuple(rows),
        notes=notes,
    )
