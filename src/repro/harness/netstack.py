"""Netstack — the network-stack backend comparison matrix.

Not a paper figure: the paper fixes one stack per deployment mode.
This experiment runs the *same* workload through every registered
:mod:`repro.netstack` backend — the four paper modes plus the
NetKernel-style ``offloaded_nsm`` (host-owned stack behind a bounded
shared-queue boundary) — and emits the comparison matrix.

Four lanes per backend, each on a fresh testbed (the rig-per-lane
idiom, so lane order cannot perturb determinism):

``cost``
    One traced message: per-stage cycles under the backend's own cost
    model (its :meth:`~repro.netstack.module.NetworkStackModule.refine`
    and ``cost_model`` hooks applied), the analytic frames/sec bound
    (the busiest CPU domain's capacity on all of its cores) and the
    uncontended one-way latency.

``clean``
    ``netstack_frames`` frame-fidelity sends; every backend must
    deliver every frame — the identical-delivered-bytes criterion —
    with the conservation ledger balanced and zero drops.

``faulted``
    The same frames under the backend's *own* fault plan
    (``netstack_loss`` at its characteristic crossing: bridge, hostlo
    tap, or NSM boundary); every loss must appear in the ledger as a
    labelled drop.

``arq``
    An ARQ-protected transfer under the same loss: exactly-once
    delivery must hold, and the retransmission count is the recovery-
    behavior column.

The ``stage-cycles`` rows pivot the cost lane into a per-stage matrix
with one column per backend (``offloaded_nsm`` shows its ``nsm_*``
stages where the others burn guest ``stack_tx``/``stack_rx``).  Every
lane ends with a :func:`repro.health.run_checks` audit; the
``violations`` column must be zero everywhere.
"""

from __future__ import annotations

import typing as t

from repro import faults
from repro.core.testbed import default_testbed
from repro.faults import FaultInjector
from repro.harness.config import ExperimentConfig
from repro.harness.results import ExperimentResult
from repro.health import HealthScope, run_checks
from repro.net.arq import ArqConfig
from repro.net.forwarding import ForwardingEngine
from repro.netstack import NetworkStackModule, backend, backend_names

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.net.arq import ArqReport
    from repro.health.invariants import Violation

#: Payload of every frame and ARQ message (one MTU-ish message).
MESSAGE_BYTES = 1024


class NetstackRig:
    """One backend attached to a fresh two-VM testbed."""

    def __init__(self, config: ExperimentConfig,
                 module: NetworkStackModule) -> None:
        self.config = config
        self.module = module
        self.tb = default_testbed(seed=config.seed, vms=2)
        self.ep = module.attach(self.tb)
        self.fwd = ForwardingEngine()

    def injector(self, loss: float) -> FaultInjector:
        plan = self.module.fault_plan(loss)
        return FaultInjector(
            plan, self.tb.rng.stream(f"netstack:{self.module.name}"),
            now_fn=lambda: self.tb.env.now,
        )

    def conserved(self) -> bool:
        return self.fwd.frames_sent == (
            self.fwd.frames_delivered + sum(self.fwd.drops.values())
        )

    def audit(self, reports: t.Iterable["ArqReport"] = ()
              ) -> list["Violation"]:
        scope = HealthScope.of(
            orchestrators=(self.tb.orchestrator,),
            forwarding=self.fwd, arq_reports=reports,
        )
        return run_checks(scope)

    def close(self) -> None:
        self.module.detach(self.tb, self.ep)


def run_backend(
    config: ExperimentConfig, module: NetworkStackModule,
) -> tuple[dict, dict[str, float], list[str]]:
    """All four lanes for one backend: (summary row, stage cycles, notes)."""
    # -- cost lane: trace one message on a pristine rig ------------------
    rig = NetstackRig(config, module)
    model = module.cost_model(rig.tb.engine.cost_model)
    path = module.resolve(rig.ep)
    timings = rig.tb.engine.trace(path, MESSAGE_BYTES, cost_model=model)
    stage_cycles: dict[str, float] = {}
    for timing in timings:
        stage_cycles[timing.stage] = (
            stage_cycles.get(timing.stage, 0.0) + timing.cycles
        )
    frames_per_s = rig.tb.engine.bottleneck_rate(
        path, MESSAGE_BYTES, cost_model=model
    )
    latency_s = rig.tb.engine.latency_estimate(
        path, MESSAGE_BYTES, cost_model=model
    )

    # -- clean lane: same rig, no faults ---------------------------------
    for _ in range(config.netstack_frames):
        module.send(rig.fwd, rig.ep, payload_bytes=MESSAGE_BYTES)
    delivered = rig.fwd.frames_delivered
    delivered_bytes = delivered * MESSAGE_BYTES
    clean_ok = rig.conserved() and not rig.fwd.drops
    violations = list(rig.audit())
    rig.close()

    # -- faulted lane: fresh rig, the backend's own fault plan -----------
    frig = NetstackRig(config, module)
    with faults.use(frig.injector(config.netstack_loss)):
        for _ in range(config.netstack_frames):
            module.send(frig.fwd, frig.ep, payload_bytes=MESSAGE_BYTES)
    drops = dict(frig.fwd.drops)
    faulted_ok = frig.conserved()
    violations.extend(frig.audit())
    frig.close()

    # -- ARQ lane: exactly-once recovery under the same loss -------------
    arig = NetstackRig(config, module)
    transfer = module.reliable(
        arig.tb.engine, arig.ep,
        nbytes=MESSAGE_BYTES, messages=config.arq_messages,
        config=ArqConfig(window=config.arq_window),
        rng=arig.tb.rng.stream("arq"),
    )
    with faults.use(arig.injector(config.netstack_loss)):
        report = transfer.run()
    violations.extend(arig.audit(reports=(report,)))
    arig.close()

    drop_reasons = " ".join(
        f"{reason}={count}" for reason, count in sorted(drops.items())
    ) or "-"
    row = {
        "scenario": "summary",
        "backend": module.name,
        "stages": len(path.stages),
        "frames": config.netstack_frames,
        "delivered": delivered,
        "delivered_bytes": delivered_bytes,
        "frames_per_s": round(frames_per_s),
        "latency_us": round(latency_s * 1e6, 2),
        "clean_conserved": clean_ok,
        "loss_drops": sum(drops.values()),
        "drop_reasons": drop_reasons,
        "faulted_conserved": faulted_ok,
        "arq_delivered": report.delivered,
        "arq_retransmissions": report.retransmissions,
        "arq_exactly_once": report.exactly_once,
        "violations": len(violations),
    }
    notes = [
        f"{module.name}: {len(path.stages)} stages, "
        f"{delivered}/{config.netstack_frames} clean frames, "
        f"{sum(drops.values())} labelled drops at "
        f"{config.netstack_loss:.0%} {module.fault_kind}, ARQ recovered "
        f"{report.delivered}/{config.arq_messages} with "
        f"{report.retransmissions} retransmissions",
    ]
    return row, stage_cycles, notes


def stage_matrix(per_backend: dict[str, dict[str, float]]) -> list[dict]:
    """Pivot per-backend stage cycles into stage-keyed matrix rows.

    One row per stage in first-seen order, one column per backend —
    ``offloaded_nsm`` is a distinct column whose ``nsm_*`` rows the
    in-VM backends leave at zero (and vice versa for the guest
    ``stack_tx``/``stack_rx`` rows it never runs).
    """
    stages: dict[str, None] = {}
    for cycles in per_backend.values():
        for stage in cycles:
            stages.setdefault(stage, None)
    rows = []
    for stage in stages:
        row: dict[str, t.Any] = {"scenario": "stage-cycles", "stage": stage}
        for name, cycles in per_backend.items():
            row[name] = round(cycles.get(stage, 0.0))
        rows.append(row)
    return rows


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Backend comparison matrix: every network-stack module, one workload."""
    config = config or ExperimentConfig()
    if config.netstack_backend == "all":
        names = backend_names()
    else:
        names = (config.netstack_backend,)
    rows: list[dict] = []
    notes: list[str] = []
    per_backend: dict[str, dict[str, float]] = {}
    delivered_bytes: dict[str, int] = {}
    for name in names:
        row, stage_cycles, backend_notes = run_backend(config, backend(name))
        rows.append(row)
        notes.extend(backend_notes)
        per_backend[name] = stage_cycles
        delivered_bytes[name] = row["delivered_bytes"]
    rows.extend(stage_matrix(per_backend))
    identical = len(set(delivered_bytes.values())) == 1
    notes.append(
        f"identical delivered bytes across {len(names)} backend(s): "
        f"{identical} ({min(delivered_bytes.values())} bytes each)"
    )
    total_violations = sum(
        r.get("violations", 0) for r in rows if r["scenario"] == "summary"
    )
    notes.append(
        f"invariant violations across all lanes: {total_violations} "
        "(must be zero)"
    )
    return ExperimentResult(
        experiment="netstack",
        title="Netstack: backend comparison matrix "
              "(paper modes + offloaded NSM)",
        rows=tuple(rows),
        notes=tuple(notes),
    )
