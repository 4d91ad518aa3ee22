"""Figs 11–13 — Hostlo overhead on macro-benchmarks.

* Figs 11/12 (Memcached): Hostlo unexpectedly reaches SameNode's
  throughput/latency levels — SameNode's latency is wildly variable
  (client and server contend for the same vCPUs) while Hostlo's stays
  stable.
* Fig 13 (NGINX): Hostlo ≈ 49.4 % higher latency than SameNode but far
  better than NAT and Overlay; all four show very high variance.
"""

from __future__ import annotations

from repro.harness.config import ExperimentConfig
from repro.harness.macro import latency_row, run_macro
from repro.harness.results import ExperimentResult, value

MODES = ("samenode", "hostlo", "overlay", "nat_cross")


def _rows(app: str, config: ExperimentConfig):
    rows = []
    for mode in MODES:
        result, _bd, _tb, _sc = run_macro(app, mode, config)
        rows.append(latency_row(app, result))
    return rows


def _lat(rows, mode):
    return value(rows, "latency_us", mode=mode)


def run_fig11_12(config: ExperimentConfig | None = None) -> ExperimentResult:
    config = config or ExperimentConfig()
    rows = _rows("memcached", config)
    ratio = _lat(rows, "hostlo") / _lat(rows, "samenode")
    notes = (
        f"Hostlo/SameNode memcached latency: {ratio:.2f}x (paper: ≈1x — "
        "hostlo 'unexpectedly reaches the levels of SameNode')",
        "Hostlo latency variance vs NAT/Overlay: "
        f"{value(rows, 'latency_cv', mode='hostlo'):.2f}"
        " vs "
        f"{value(rows, 'latency_cv', mode='nat_cross'):.2f}"
        "/"
        f"{value(rows, 'latency_cv', mode='overlay'):.2f}"
        " (paper: hostlo reports stable latency)",
    )
    return ExperimentResult(
        experiment="fig11_12",
        title="Figs 11–12: Memcached over Hostlo (throughput & latency)",
        rows=tuple(rows),
        notes=notes,
    )


def run_fig13(config: ExperimentConfig | None = None) -> ExperimentResult:
    config = config or ExperimentConfig()
    rows = _rows("nginx", config)
    ratio = _lat(rows, "hostlo") / _lat(rows, "samenode") - 1.0
    notes = (
        f"Hostlo vs SameNode NGINX latency: {ratio:+.1%} "
        "(paper ≈ +49.4%)",
        "Hostlo beats NAT by "
        f"{1 - _lat(rows, 'hostlo') / _lat(rows, 'nat_cross'):.1%}"
        " and Overlay by "
        f"{1 - _lat(rows, 'hostlo') / _lat(rows, 'overlay'):.1%}",
    )
    return ExperimentResult(
        experiment="fig13",
        title="Fig 13: NGINX over Hostlo (latency)",
        rows=tuple(rows),
        notes=notes,
    )
