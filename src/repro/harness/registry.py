"""Experiment registry and runners (plain and traced)."""

from __future__ import annotations

import dataclasses
import pathlib
import sys
import typing as t

from repro import obs
from repro.errors import ConfigurationError
from repro.net import capture as net_capture
from repro.net import flows as net_flows
from repro.obs.export import (
    iter_records,
    summary,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.pcap import write_pcapng
from repro.obs.trace import DEFAULT_TRACE_SAMPLING
from repro.harness import (
    ablations,
    analytic,
    chaos,
    fabric,
    fig02,
    fig04,
    fig05,
    fig06_07,
    fig08,
    fig09,
    fig10,
    fig11_13,
    fig14_15,
    netstack,
    online,
    reliability,
    tables,
)
from repro.harness.config import ExperimentConfig
from repro.harness.results import ExperimentResult

Runner = t.Callable[[ExperimentConfig | None], ExperimentResult]


def _run_campaign(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Campaign self-check: parallel == serial, warm cache all hits."""
    # Imported on first run, not at module import: the campaign layer
    # itself imports this registry to resolve experiment ids.
    from repro.campaign.experiment import run

    return run(config)


def _run_service(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Service self-check: admission, mixed load, warm cache, recovery."""
    # Lazy for the same reason as the campaign: service workers import
    # this registry to resolve experiment jobs.
    from repro.service.experiment import run

    return run(config)


#: Every figure and table of the paper's evaluation, by experiment id.
EXPERIMENTS: dict[str, Runner] = {
    "fig02": fig02.run,
    "fig04": fig04.run,
    "fig05": fig05.run,
    "fig06": fig06_07.run_fig06,
    "fig07": fig06_07.run_fig07,
    "fig08": fig08.run,
    "fig09": fig09.run,
    "fig10": fig10.run,
    "fig11_12": fig11_13.run_fig11_12,
    "fig13": fig11_13.run_fig13,
    "fig14": fig14_15.run_fig14,
    "fig15": fig14_15.run_fig15,
    "table01": tables.run_table01,
    "table02": tables.run_table02,
    # Design-choice ablations (extensions beyond the paper's figures).
    "ablation_hostlo_thread": ablations.run_hostlo_thread,
    "ablation_netfilter_cost": ablations.run_netfilter_cost,
    "ablation_no_batching": ablations.run_no_batching,
    "ablation_rule_bloat": ablations.run_rule_bloat,
    "ablation_scheduler_policy": ablations.run_scheduler_policy,
    "online_cost": online.run,
    "analytic_check": analytic.run,
    # Fault injection & recovery (extension beyond the paper's figures).
    "chaos": chaos.run,
    # Datapath reliability: ARQ under loss + health watchdog.
    "reliability": reliability.run,
    # The fat-tree fabric subsystem end-to-end (see repro.fabric).
    "fabric": fabric.run,
    # The network-stack backend comparison matrix (see repro.netstack).
    "netstack": netstack.run,
    # The campaign layer checking itself (see repro.campaign).
    "campaign": _run_campaign,
    # The long-lived job service checking itself (see repro.service).
    "service": _run_service,
}


def describe(experiment: str) -> str:
    """The one-line description of a registered experiment.

    The first line of the runner function's docstring, falling back to
    the first line of its module's docstring (most figure runners
    document the figure at module level).
    """
    try:
        runner = EXPERIMENTS[experiment]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment!r} (have: {sorted(EXPERIMENTS)})"
        ) from None
    doc = runner.__doc__
    if not doc:
        module = sys.modules.get(getattr(runner, "__module__", ""), None)
        doc = getattr(module, "__doc__", None)
    if not doc:
        return ""
    return doc.strip().splitlines()[0].strip()


def run_experiment(
    experiment: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """Run one registered experiment by id."""
    try:
        runner = EXPERIMENTS[experiment]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment!r} (have: {sorted(EXPERIMENTS)})"
        ) from None
    return runner(config)


@dataclasses.dataclass(frozen=True)
class TraceArtifacts:
    """What one traced experiment run left on disk."""

    chrome_path: pathlib.Path
    spans_path: pathlib.Path
    metrics_path: pathlib.Path
    summary: str
    span_count: int
    event_count: int


def run_experiment_traced(
    experiment: str,
    config: ExperimentConfig | None = None,
    trace_dir: str | pathlib.Path = "out",
    sampling: t.Mapping[str, float] | None = None,
) -> tuple[ExperimentResult, TraceArtifacts]:
    """Run one experiment with tracing on and export the trace.

    Writes ``<trace_dir>/<experiment>.trace.json`` (Chrome
    ``trace_event`` format — open in Perfetto), ``.spans.jsonl`` (the
    raw span dump) and ``.metrics.txt`` (the metrics registry).
    """
    effective = dict(DEFAULT_TRACE_SAMPLING if sampling is None else sampling)
    with obs.capture(sampling=effective) as (tracer, metrics):
        result = run_experiment(experiment, config)
        artifacts = _trace_artifacts(tracer, metrics, trace_dir, experiment)
    return result, artifacts


def write_trace_files(
    trace_dir: str | pathlib.Path,
    stem: str,
    records: t.Sequence[t.Mapping[str, t.Any]],
    metrics_text: str,
    run_names: t.Mapping[int, str] | None = None,
) -> tuple[pathlib.Path, pathlib.Path, pathlib.Path]:
    """Write ``<stem>.trace.json``, ``.spans.jsonl`` and ``.metrics.txt``.

    The one writer of a traced run's files, for single experiments and
    merged campaigns alike; returns the three paths in that order.
    """
    trace_dir = pathlib.Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = trace_dir / f"{stem}.metrics.txt"
    metrics_path.write_text(metrics_text)
    return (
        write_chrome_trace(records, trace_dir / f"{stem}.trace.json",
                           run_names),
        write_spans_jsonl(records, trace_dir / f"{stem}.spans.jsonl"),
        metrics_path,
    )


def _trace_artifacts(tracer: "obs.Tracer", metrics: "obs.MetricsRegistry",
                     trace_dir: str | pathlib.Path,
                     experiment: str) -> TraceArtifacts:
    chrome, spans, metrics_path = write_trace_files(
        trace_dir, experiment, list(iter_records(tracer)),
        metrics.render_text(),
    )
    return TraceArtifacts(
        chrome_path=chrome,
        spans_path=spans,
        metrics_path=metrics_path,
        summary=summary(tracer, metrics=metrics),
        span_count=len(tracer.spans),
        event_count=len(tracer.events),
    )


@dataclasses.dataclass(frozen=True)
class CaptureArtifacts:
    """What one captured experiment run left on disk (and in memory)."""

    pcap_path: pathlib.Path | None
    flows_path: pathlib.Path | None
    top_flows: str
    packet_count: int
    point_count: int
    flow_count: int
    session: "net_capture.CaptureSession"
    flow_table: "net_flows.FlowTable"


def run_experiment_captured(
    experiment: str,
    config: ExperimentConfig | None = None,
    trace_dir: str | pathlib.Path = "out",
    pcap: bool = True,
    flows: bool = True,
    sampling: t.Mapping[str, float] | None = None,
    filter: str | None = None,
) -> tuple[ExperimentResult, TraceArtifacts, CaptureArtifacts]:
    """Run one experiment traced *and* packet-captured.

    On top of :func:`run_experiment_traced`'s artifacts this installs a
    promiscuous :class:`~repro.net.capture.CaptureSession` (every device
    a frame touches becomes a tap) and a
    :class:`~repro.net.flows.FlowTable` for the duration of the run,
    then writes ``<trace_dir>/<experiment>.pcapng`` (open it in
    Wireshark) and ``<experiment>.flows.txt`` (the top-flows table).
    Flow aggregates are folded into the metrics registry before it is
    exported, so ``.metrics.txt`` carries the per-flow counters too.
    """
    trace_dir = pathlib.Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    effective = dict(DEFAULT_TRACE_SAMPLING if sampling is None else sampling)
    session = net_capture.CaptureSession(promiscuous=True, filter=filter)
    table = net_flows.FlowTable()
    with obs.capture(sampling=effective) as (tracer, metrics):
        with net_capture.use(session), net_flows.use(table):
            result = run_experiment(experiment, config)
        table.export_metrics(metrics)
        top_flows = table.top_flows()
        pcap_path = None
        if pcap:
            pcap_path = write_pcapng(
                session, trace_dir / f"{experiment}.pcapng"
            )
        flows_path = None
        if flows:
            flows_path = trace_dir / f"{experiment}.flows.txt"
            flows_path.write_text(top_flows + "\n")
        trace_artifacts = _trace_artifacts(
            tracer, metrics, trace_dir, experiment)
    capture_artifacts = CaptureArtifacts(
        pcap_path=pcap_path,
        flows_path=flows_path,
        top_flows=top_flows,
        packet_count=session.packet_count,
        point_count=len(session.points()),
        flow_count=len(table),
        session=session,
        flow_table=table,
    )
    return result, trace_artifacts, capture_artifacts
