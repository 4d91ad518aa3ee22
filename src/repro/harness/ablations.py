"""Ablation studies: the design choices behind the paper's shapes.

These are not paper figures — they answer "which mechanism produces
which effect" questions a reviewer (or a porter of the design) would
ask, by switching one mechanism off at a time:

* ``ablation_hostlo_thread`` — give the hostlo reflect work a
  multi-core pool instead of its single kernel thread: the fig 10
  throughput cap moves accordingly, showing the serialization (not the
  copy cost) is what bounds hostlo streaming.
* ``ablation_netfilter_cost`` — scale the conntrack/NAT hook cost:
  NAT-mode throughput tracks it almost linearly while BrFusion is
  untouched, isolating the duplicated layer's contribution.
* ``ablation_no_batching`` — disable batch amortisation (NAPI/GRO/
  coalescing) everywhere: streaming throughput collapses toward
  request/response costs; the overlay (highest batch factors) loses
  the most.
"""

from __future__ import annotations

import dataclasses

from repro.core import build_scenario
from repro.core.testbed import Testbed
from repro.harness.config import ExperimentConfig
from repro.harness.results import ExperimentResult, value
from repro.net.costs import CostModel
from repro.sim import CpuResource
from repro.workloads import NetperfTcpStream

MESSAGE_SIZE = 1024


def _fresh_testbed(config: ExperimentConfig,
                   cost_model: CostModel | None = None) -> Testbed:
    tb = Testbed(seed=config.seed, cost_model=cost_model)
    for i in range(2):
        tb.add_vm(f"vm{i}")
    return tb


def run_hostlo_thread(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Hostlo throughput with 1..N cores serving the reflect work."""
    config = config or ExperimentConfig()
    rows = []
    for cores in (1, 2, 4, 8):
        tb = _fresh_testbed(config)
        scenario = build_scenario(tb, "hostlo")
        handle = tb.orchestrator.deployments[scenario.name].plugin_state["hostlo"]
        if cores > 1:
            # Pre-register a wider pool under the kthread's domain name;
            # the lazy single-core creation then never happens.
            tb.engine.register_domain(
                f"kthread:host:{handle.tap.name}",
                CpuResource(tb.env, cores=cores,
                            freq_hz=tb.engine.cost_model.freq_hz),
            )
        result = NetperfTcpStream(window=config.stream_window).run(
            scenario, MESSAGE_SIZE, duration_s=config.stream_duration_s
        )
        rows.append({
            "reflect_cores": cores,
            "throughput_mbps": result.throughput_mbps,
        })
    single = rows[0]["throughput_mbps"]
    widest = rows[-1]["throughput_mbps"]
    return ExperimentResult(
        experiment="ablation_hostlo_thread",
        title="Ablation: hostlo reflect serialization (cores serving the "
              "reflect work)",
        rows=tuple(rows),
        notes=(
            f"widest/single throughput: {widest / single:.2f}x — the single "
            "kernel thread of §4.2 is what caps hostlo streaming",
        ),
    )


def run_netfilter_cost(config: ExperimentConfig | None = None) -> ExperimentResult:
    """NAT vs BrFusion throughput as conntrack/hook cost scales."""
    config = config or ExperimentConfig()
    rows = []
    for factor in (0.5, 1.0, 2.0, 4.0):
        model = CostModel.default().scale("netfilter_nat", factor)
        for mode in ("nat", "brfusion"):
            tb = _fresh_testbed(config, cost_model=model)
            scenario = build_scenario(tb, mode)
            result = NetperfTcpStream(window=config.stream_window).run(
                scenario, MESSAGE_SIZE, duration_s=config.stream_duration_s
            )
            rows.append({
                "netfilter_scale": factor,
                "mode": mode,
                "throughput_mbps": result.throughput_mbps,
            })

    def thr(mode, factor):
        return value(rows, "throughput_mbps", mode=mode,
                     netfilter_scale=factor)

    return ExperimentResult(
        experiment="ablation_netfilter_cost",
        title="Ablation: conntrack/NAT hook cost scaling",
        rows=tuple(rows),
        notes=(
            "NAT throughput 4x-cost/half-cost: "
            f"{thr('nat', 4.0) / thr('nat', 0.5):.2f}x",
            "BrFusion throughput 4x-cost/half-cost: "
            f"{thr('brfusion', 4.0) / thr('brfusion', 0.5):.2f}x "
            "(BrFusion has no guest NAT hooks to scale)",
        ),
    )


def run_rule_bloat(config: ExperimentConfig | None = None) -> ExperimentResult:
    """NAT vs BrFusion as the guest accumulates published containers.

    Every published port adds DNAT rules to the guest's netfilter
    chains, and every packet walks those chains — so a busy Docker host
    slowly taxes *all* of its containers.  BrFusion pods have no guest
    chains to walk: co-located pods cost them nothing.
    """
    config = config or ExperimentConfig()
    rows = []
    from repro.orchestrator.pod import ContainerSpec, PodSpec

    for neighbors in (0, 4, 9, 19):
        for mode in ("nat", "brfusion"):
            tb = _fresh_testbed(config)
            scenario = build_scenario(tb, mode)
            # Co-locate more (tiny) published pods on the same VM.
            home = tb.orchestrator.deployments[
                scenario.name
            ].placement.node_names[0]
            for i in range(neighbors):
                spec = PodSpec(
                    f"neighbor-{i}",
                    containers=(ContainerSpec(
                        "svc", "alpine", cpu=0.1, memory_gb=0.1,
                        publish=(("tcp", 13000 + i, 80),),
                    ),),
                )
                tb.deploy(spec, network=mode, node=home)
            stream = NetperfTcpStream(window=config.stream_window).run(
                scenario, MESSAGE_SIZE, duration_s=config.stream_duration_s
            )
            rows.append({
                "neighbor_pods": neighbors,
                "mode": mode,
                "throughput_mbps": stream.throughput_mbps,
            })

    def thr(mode, neighbors):
        return value(rows, "throughput_mbps", mode=mode,
                     neighbor_pods=neighbors)

    return ExperimentResult(
        experiment="ablation_rule_bloat",
        title="Ablation: co-located published pods (netfilter rule bloat)",
        rows=tuple(rows),
        notes=(
            "NAT throughput, 19 neighbors vs none: "
            f"{thr('nat', 19) / thr('nat', 0) - 1:+.1%} "
            "(every packet walks the longer chains)",
            "BrFusion throughput, 19 neighbors vs none: "
            f"{thr('brfusion', 19) / thr('brfusion', 0) - 1:+.1%} "
            "(no guest chains to walk)",
        ),
    )


def run_scheduler_policy(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Grouping vs spreading baselines in the §5.3.1 cost simulation.

    The paper's baseline uses Kubernetes' "most requested" (grouping)
    policy.  This ablation reruns the whole fig 9 pipeline with the
    "least requested" (spreading) alternative: spreading inflates the
    Kubernetes bill, and Hostlo's improvement pass recovers part of the
    difference — evidence the grouping choice matters to the baseline.
    """
    from repro.costsim.hostlo import improve_assignment
    from repro.costsim.kubernetes import schedule_user
    from repro.costsim.packing import total_cost
    from repro.traces import TraceConfig, generate_trace

    config = config or ExperimentConfig()
    users = generate_trace(TraceConfig(users=min(config.trace_users, 150),
                                       seed=config.seed))
    rows = []
    for policy in ("most-requested", "least-requested"):
        base_total = 0.0
        improved_total = 0.0
        for user in users:
            baseline = schedule_user(user.pods, policy=policy)
            base_total += total_cost(baseline)
            improved_total += total_cost(improve_assignment(baseline))
        rows.append({
            "policy": policy,
            "kubernetes_cost_per_h": base_total,
            "hostlo_cost_per_h": improved_total,
            "hostlo_saving_pct": 100 * (1 - improved_total / base_total),
        })

    grouping = rows[0]["kubernetes_cost_per_h"]
    spreading = rows[1]["kubernetes_cost_per_h"]
    return ExperimentResult(
        experiment="ablation_scheduler_policy",
        title="Ablation: grouping (most-requested) vs spreading "
              "(least-requested) baselines",
        rows=tuple(rows),
        notes=(
            f"spreading changes the Kubernetes bill by "
            f"{spreading / grouping - 1:+.2%} on this trace — offline,"
            " biggest-first scheduling with per-pod cheapest-fitting"
            " purchases leaves the scoring rule little room; the policy"
            " choice matters more under online arrival churn",
        ),
    )


def run_no_batching(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Streaming throughput with batch amortisation switched off."""
    config = config or ExperimentConfig()
    base = CostModel.default()
    overrides = {}
    for name in base.names():
        stage = base[name]
        if stage.batch_factor > 1.0:
            overrides[name] = dataclasses.replace(stage, batch_factor=1.0)
    unbatched = base.replace(**overrides)

    rows = []
    for label, model in (("batched", base), ("unbatched", unbatched)):
        for mode in ("nocont", "overlay", "hostlo"):
            tb = _fresh_testbed(config, cost_model=model)
            scenario = build_scenario(tb, mode)
            result = NetperfTcpStream(window=config.stream_window).run(
                scenario, MESSAGE_SIZE, duration_s=config.stream_duration_s
            )
            rows.append({
                "variant": label,
                "mode": mode,
                "throughput_mbps": result.throughput_mbps,
            })

    def thr(variant, mode):
        return value(rows, "throughput_mbps", variant=variant, mode=mode)

    notes = tuple(
        f"{mode}: unbatched/batched = "
        f"{thr('unbatched', mode) / thr('batched', mode):.2f}"
        for mode in ("nocont", "overlay", "hostlo")
    ) + (
        "hostlo is least affected: its reflect stage never batched "
        "(the §4.2 driver copies synchronously)",
    )
    return ExperimentResult(
        experiment="ablation_no_batching",
        title="Ablation: NAPI/GRO/coalescing batch amortisation off",
        rows=tuple(rows),
        notes=notes,
    )
