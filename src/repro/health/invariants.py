"""Topology and accounting invariants, as pure check functions.

Each check takes a :class:`HealthScope` — the collection of namespaces,
forwarding engines and ARQ reports under audit — and returns zero or
more :class:`Violation` records.  Checks never mutate anything; acting
on what they find (evicting a wedged hostlo queue, re-scheduling a pod)
belongs to :class:`repro.health.monitor.HealthMonitor` and the
orchestrator.

A deliberately *stalled* hostlo queue is not a violation: it is a
fault the watchdog is expected to handle, surfaced separately through
:func:`stalled_hostlo_queues`.
"""

from __future__ import annotations

import typing as t

from repro.health.violation import Violation
from repro.net.bridge import Bridge
from repro.net.devices import HostloEndpoint, HostloTap, TapDevice
from repro.net.namespace import NetworkNamespace

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.net.arq import ArqReport
    from repro.net.capture import CaptureSession
    from repro.net.forwarding import ForwardingEngine
    from repro.orchestrator.cluster import Orchestrator
    from repro.virt.host import PhysicalHost
    from repro.virt.vmm import Vmm


class HealthScope:
    """What one health pass audits.

    Build it directly from namespaces, or with :meth:`of` from the
    higher-level owners (hosts, VMMs, orchestrators) — the usual way,
    since those know every namespace they created.
    """

    def __init__(
        self,
        namespaces: t.Iterable[NetworkNamespace] = (),
        forwarding: "ForwardingEngine | None" = None,
        arq_reports: t.Iterable["ArqReport"] = (),
        capture: "CaptureSession | None" = None,
        fabrics: t.Iterable[t.Any] = (),
    ) -> None:
        deduped: dict[int, NetworkNamespace] = {}
        for ns in namespaces:
            deduped.setdefault(id(ns), ns)
        self.namespaces: tuple[NetworkNamespace, ...] = tuple(deduped.values())
        self.forwarding = forwarding
        self.arq_reports = tuple(arq_reports)
        self.capture = capture
        self.fabrics = tuple(fabrics)

    @classmethod
    def of(
        cls,
        *,
        hosts: t.Iterable["PhysicalHost"] = (),
        vmms: t.Iterable["Vmm"] = (),
        orchestrators: t.Iterable["Orchestrator"] = (),
        namespaces: t.Iterable[NetworkNamespace] = (),
        forwarding: "ForwardingEngine | None" = None,
        arq_reports: t.Iterable["ArqReport"] = (),
        capture: "CaptureSession | None" = None,
        fabrics: t.Iterable[t.Any] = (),
    ) -> "HealthScope":
        """Gather every namespace the given owners are responsible for."""
        gathered: list[NetworkNamespace] = list(namespaces)
        vmm_list = list(vmms)
        for orch in orchestrators:
            vmm_list.append(orch.vmm)
            for deployment in orch.deployments.values():
                gathered.extend(deployment.fragments.values())
        host_list = list(hosts)
        fabric_list = list(fabrics)
        for tree in fabric_list:
            # A fat-tree owns its switch namespaces *and* its racked
            # hosts: auditing the tree audits both.
            gathered.extend(tree.namespaces())
            host_list.extend(tree.hosts.values())
        for vmm in vmm_list:
            host_list.append(vmm.host)
            for vm in vmm.vms.values():
                gathered.extend(vm.namespaces)
        for host in host_list:
            gathered.append(host.ns)
        return cls(gathered, forwarding=forwarding,
                   arq_reports=arq_reports, capture=capture,
                   fabrics=fabric_list)

    # -- derived views ----------------------------------------------------
    def devices(self) -> t.Iterator[tuple[NetworkNamespace, str, t.Any]]:
        for ns in self.namespaces:
            for name, dev in ns.devices.items():
                yield ns, name, dev

    def bridges(self) -> tuple[Bridge, ...]:
        return tuple(dev for _, _, dev in self.devices()
                     if isinstance(dev, Bridge))

    def hostlo_taps(self) -> tuple[HostloTap, ...]:
        return tuple(dev for _, _, dev in self.devices()
                     if isinstance(dev, HostloTap))


# -- the checks -----------------------------------------------------------
def check_device_wiring(scope: HealthScope) -> list[Violation]:
    """Every attached device points back at its namespace, under the
    name it is registered as; a TAP and the vNIC it backs agree."""
    out: list[Violation] = []
    for ns, name, dev in scope.devices():
        if dev.namespace is not ns:
            where = dev.namespace.name if dev.namespace else "nowhere"
            out.append(Violation(
                "device-wiring", f"{ns.name}/{name}",
                f"device thinks it lives in {where}",
            ))
        if dev.name != name:
            out.append(Violation(
                "device-wiring", f"{ns.name}/{name}",
                f"registered as {name!r} but named {dev.name!r}",
            ))
        if isinstance(dev, TapDevice) and dev.backs is not None \
                and dev.backs.backend is not dev:
            out.append(Violation(
                "device-wiring", f"{ns.name}/{name}",
                f"backs {dev.backs.name!r} which does not point back",
            ))
    return out


def check_leaked_devices(scope: HealthScope) -> list[Violation]:
    """Nothing survives its owner: no orphaned host-side taps, no
    bridge ports belonging to no namespace."""
    out: list[Violation] = []
    for ns, name, dev in scope.devices():
        if isinstance(dev, TapDevice) and dev.backs is None:
            out.append(Violation(
                "leaked-device", f"{ns.name}/{name}",
                "host tap backs no vNIC but is still attached",
            ))
    for bridge in scope.bridges():
        for port in bridge.ports:
            if port.namespace is None:
                out.append(Violation(
                    "leaked-device", f"{bridge.name}/{port.name}",
                    "bridge port belongs to no namespace",
                ))
    return out


def check_bridge_consistency(scope: HealthScope) -> list[Violation]:
    """Ports point back at their bridge and the FDB only references
    current ports (``remove_port`` must flush stale entries)."""
    out: list[Violation] = []
    for bridge in scope.bridges():
        for port in bridge.ports:
            if port.bridge is not bridge:
                out.append(Violation(
                    "bridge-consistency", f"{bridge.name}/{port.name}",
                    "port does not point back at its bridge",
                ))
        ports = set(map(id, bridge.ports))
        for mac, port in bridge._fdb.items():
            if id(port) not in ports:
                out.append(Violation(
                    "bridge-consistency", f"{bridge.name}",
                    f"FDB entry {mac} -> {port.name} references a "
                    "removed port",
                ))
    return out


def check_hostlo_liveness(scope: HealthScope) -> list[Violation]:
    """Every queue on a hostlo tap serves a live, attached endpoint."""
    out: list[Violation] = []
    for tap in scope.hostlo_taps():
        for endpoint in tap.endpoints:
            if endpoint.backend is not tap:
                out.append(Violation(
                    "hostlo-liveness", f"{tap.name}/{endpoint.name}",
                    "queued endpoint does not point back at the tap",
                ))
            if endpoint.namespace is None:
                out.append(Violation(
                    "hostlo-liveness", f"{tap.name}/{endpoint.name}",
                    "queue serves a detached endpoint "
                    "(evict it via remove_queue)",
                ))
    return out


def check_frame_conservation(scope: HealthScope) -> list[Violation]:
    """injected == delivered + sum of labelled drops, everywhere."""
    out: list[Violation] = []
    engine = scope.forwarding
    if engine is not None:
        accounted = engine.frames_delivered + sum(engine.drops.values())
        if engine.frames_sent != accounted:
            out.append(Violation(
                "frame-conservation", "forwarding",
                f"sent {engine.frames_sent} != delivered "
                f"{engine.frames_delivered} + drops "
                f"{sum(engine.drops.values())}",
            ))
    for index, report in enumerate(scope.arq_reports):
        if not report.conserved():
            out.append(Violation(
                "frame-conservation", f"arq[{index}]",
                f"transmissions {report.transmissions} != delivered "
                f"{report.delivered} + duplicates {report.duplicates} "
                f"+ lost {report.lost}",
            ))
        if not report.exactly_once:
            out.append(Violation(
                "frame-conservation", f"arq[{index}]",
                f"delivered {report.delivered} messages over "
                f"{len(report.delivered_ids)} distinct ids "
                "(exactly-once broken)",
            ))
    return out


def check_capture_conservation(scope: HealthScope) -> list[Violation]:
    """The capture session's per-frame ledger agrees with the
    forwarding engine's: every counted frame the engine sent appears in
    the capture with the same terminal verdict.  Only meaningful when
    the scope carries both (a session active for the engine's whole
    accounting period)."""
    out: list[Violation] = []
    session = scope.capture
    engine = scope.forwarding
    if session is None or engine is None:
        return out
    for problem in session.reconcile(engine):
        out.append(Violation("capture-conservation", "capture", problem))
    return out


def check_fabric_consistency(scope: HealthScope) -> list[Violation]:
    """Fat-tree wiring is coherent: every switch port points back at
    its switch and lives in the switch namespace, is an end of the link
    it claims, and down-routes/uplinks only reference own ports."""
    out: list[Violation] = []
    for tree in scope.fabrics:
        for switch in tree.switches.values():
            ports = set(map(id, switch.ports))
            for port in switch.ports:
                if port.fabric_switch is not switch:
                    out.append(Violation(
                        "fabric-consistency", f"{switch.name}/{port.name}",
                        "port does not point back at its switch",
                    ))
                if port.namespace is not switch.ns:
                    where = (port.namespace.name if port.namespace
                             else "nowhere")
                    out.append(Violation(
                        "fabric-consistency", f"{switch.name}/{port.name}",
                        f"port lives in {where}, not the switch namespace",
                    ))
                link = port.link
                if link is not None and port is not link.nic_a \
                        and port is not link.nic_b:
                    out.append(Violation(
                        "fabric-consistency", f"{switch.name}/{port.name}",
                        f"port claims link {link.name!r} but is not "
                        "an end of it",
                    ))
            for network, port in switch.down_routes:
                if id(port) not in ports:
                    out.append(Violation(
                        "fabric-consistency", switch.name,
                        f"down-route {network} via foreign port "
                        f"{port.name!r}",
                    ))
            for port in switch.uplinks:
                if id(port) not in ports:
                    out.append(Violation(
                        "fabric-consistency", switch.name,
                        f"uplink {port.name!r} is not an attached port",
                    ))
    return out


#: Every invariant check, in the order a health pass runs them.
ALL_CHECKS: tuple[t.Callable[[HealthScope], list[Violation]], ...] = (
    check_device_wiring,
    check_leaked_devices,
    check_bridge_consistency,
    check_hostlo_liveness,
    check_fabric_consistency,
    check_frame_conservation,
    check_capture_conservation,
)


def run_checks(scope: HealthScope) -> list[Violation]:
    """Run every invariant check over *scope*."""
    out: list[Violation] = []
    for check in ALL_CHECKS:
        out.extend(check(scope))
    return out


def stalled_hostlo_queues(
    scope: HealthScope,
) -> list[tuple[HostloTap, HostloEndpoint]]:
    """Wedged queues the watchdog should evict (not violations)."""
    return [
        (tap, endpoint)
        for tap in scope.hostlo_taps()
        for endpoint in tap.stalled_endpoints()
    ]
