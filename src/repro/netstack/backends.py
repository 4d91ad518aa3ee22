"""The built-in network-stack backends.

Four wrap the paper's deployment modes (the in-VM stack stays where the
guest put it; only the crossing differs) and one — ``offloaded_nsm`` —
moves the whole stack host-side behind a bounded shared-queue boundary,
NetKernel-style.  All five satisfy the same
:class:`~repro.netstack.module.NetworkStackModule` contract, so the
conservation ledger, ARQ, capture and fault injection run unchanged
against each.

Import discipline: ``repro.core`` (scenario builders, testbed) is
imported lazily inside ``attach`` so importing ``repro.netstack`` from
the orchestrator cannot cycle back through ``repro.core``.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.netstack.module import NetworkStackModule, StackEndpoints
from repro.netstack.offload import NSM_BRIDGE, provision_offload
from repro.netstack.registry import register

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.testbed import Testbed
    from repro.net.path import Datapath


def _ensure_vms(tb: "Testbed", count: int = 2) -> None:
    """Grow *tb* to *count* VMs so every backend sees the same rig."""
    while len(tb.vmm.vms) < count:
        tb.add_vm(tb.unique_name("vm"))


class _ScenarioBackend(NetworkStackModule):
    """A backend whose stacks are wired by a paper deployment mode.

    The guest kernels own their stacks; ``attach`` deploys the mode's
    pod topology and exposes the resulting flow.  Subclasses pin
    ``mode`` to a key of :data:`~repro.core.scenario.MODES`, which is
    also the CNI network the mode deploys on.
    """

    mode: str = ""

    @property
    def cni_network(self) -> str:
        return self.mode

    def attach(self, tb: "Testbed") -> StackEndpoints:
        from repro.core.scenario import build_scenario

        _ensure_vms(tb, 2)
        sc = build_scenario(tb, self.mode)
        taps = (
            *sc.src_ns.devices.values(),
            *sc.dst_ns.devices.values(),
        )
        return StackEndpoints(
            backend=self.name,
            src_ns=sc.src_ns, src_addr=sc.src_addr,
            dst_ns=sc.dst_ns, dst_addr=sc.dst_addr,
            dst_port=sc.dst_port, src_port=sc.src_port,
            taps=taps,
        )


class InVmNat(_ScenarioBackend):
    """The nested default: Docker bridge + NAT inside the VM."""

    name = "in_vm_nat"
    title = "in-VM bridge+NAT"
    fault_kind = "frame.drop"
    mode = "nat"


class BrFusion(_ScenarioBackend):
    """§3: the pod NIC hot-plugged onto the host bridge (degrades to
    the in-VM NAT stack when hot-plug is unavailable)."""

    name = "brfusion"
    title = "BrFusion"
    fallback = "in_vm_nat"
    fault_kind = "frame.drop"
    mode = "brfusion"


class Hostlo(_ScenarioBackend):
    """§4: split-pod localhost reflected through the host."""

    name = "hostlo"
    title = "Hostlo"
    fault_kind = "hostlo.drop"
    mode = "hostlo"


class VxlanOverlay(_ScenarioBackend):
    """Docker Overlay: VXLAN encap between split pod halves."""

    name = "vxlan_overlay"
    title = "VXLAN overlay"
    fault_kind = "frame.drop"
    mode = "overlay"


class OffloadedNsm(NetworkStackModule):
    """Host-owned guest stack behind a bounded shared-queue boundary.

    The guest runs *no* TCP/IP: its :class:`~repro.net.devices.NsmPort`
    rings a doorbell, frames cross one bounded queue
    (:class:`~repro.net.devices.DeviceQueue`, mempipe copy semantics)
    and the host-side :class:`~repro.net.devices.NsmHostStack` does all
    protocol work in a ``kthread:`` domain.  No CNI network — the
    boundary bypasses pod wiring entirely, so there is no orchestrator
    fallback either; the stack *survives a guest crash* (it is host
    infrastructure) and merely stalls its boundary.
    """

    name = "offloaded_nsm"
    title = "offloaded NSM"
    cni_network = None
    fault_kind = "nsm.drop"

    def attach(self, tb: "Testbed") -> StackEndpoints:
        _ensure_vms(tb, 2)
        vms = list(tb.vmm.vms.values())[:2]
        src, dst = provision_offload(tb, vms)
        return StackEndpoints(
            backend=self.name,
            src_ns=vms[0].ns, src_addr=src.port.primary_ip,
            dst_ns=vms[1].ns, dst_addr=dst.port.primary_ip,
            dst_port=12865,
            tx_queue=src.stack.boundary,
            taps=(src.port, src.stack, dst.stack, dst.port),
            detail={"handles": (src, dst), "bridge": NSM_BRIDGE},
        )

    def detach(self, tb: "Testbed", endpoints: StackEndpoints) -> None:
        for handle in endpoints.detail.get("handles", ()):
            if tb.vmm.has_nsm(handle.vm):
                tb.vmm.remove_nsm(handle.vm)

    def refine(self, path: "Datapath") -> "Datapath":
        # The resolver walks the wired topology, which still charges the
        # guest's stack_tx/stack_rx; under offload the guest runs no
        # stack, so those stages (and their softirq reroutes) vanish —
        # the host-side nsm_host_stack stages already carry that work.
        stages = tuple(
            s for s in path.stages
            if not (
                s.stage in ("stack_tx", "stack_rx")
                and s.domain.startswith(("vm:", "softirq:vm:"))
            )
        )
        return dataclasses.replace(path, stages=stages)


#: Module-level singletons, registered in comparison-matrix row order.
IN_VM_NAT = register(InVmNat())
BRFUSION = register(BrFusion())
HOSTLO = register(Hostlo())
VXLAN_OVERLAY = register(VxlanOverlay())
OFFLOADED_NSM = register(OffloadedNsm())
