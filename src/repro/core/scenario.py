"""Scenario builders for the paper's deployment configurations.

Two experiment families exist in §5:

* **client→server** (BrFusion evaluation, figs 2/4/5/6/7): the
  benchmark client on the host talks to a server either nested behind
  Docker NAT, behind a BrFusion pod NIC, or running natively in the VM
  (NoCont).
* **intra-pod** (Hostlo evaluation, figs 10–15): two containers of one
  pod talk over the pod's localhost — on the same node (SameNode),
  split across VMs over hostlo, over Docker Overlay, or over plain NAT
  between published ports (the paper's cross-VM "NAT" baseline).

:data:`MODES` maps each configuration's ``mode`` string to its builder
and the number of VMs it needs; :func:`build_scenario` looks it up.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as t

from repro.core.testbed import Testbed
from repro.errors import ConfigurationError, SchedulingError
from repro.net.addresses import Ipv4Address
from repro.net.namespace import NetworkNamespace
from repro.net.path import Datapath, resolve_path
from repro.orchestrator.pod import ContainerSpec, PodSpec

#: A scenario's default source port; the source pod of a cross-VM NAT
#: scenario publishes it.
_SRC_PORT = 40000


@dataclasses.dataclass
class Scenario:
    """A built scenario: who talks to whom, and over which addresses."""

    name: str
    mode: str
    testbed: Testbed
    src_ns: NetworkNamespace
    src_addr: Ipv4Address
    dst_ns: NetworkNamespace
    dst_addr: Ipv4Address
    dst_port: int
    src_port: int = _SRC_PORT

    def paths(self, proto: str = "tcp") -> tuple[Datapath, Datapath]:
        """(forward request path, reverse response path)."""
        forward = resolve_path(self.src_ns, self.dst_addr, self.dst_port, proto)
        reverse = resolve_path(self.dst_ns, self.src_addr, self.src_port, proto)
        return forward, reverse

    def ack_path(self, proto: str = "tcp") -> Datapath:
        """The kernel-level reverse path (TCP ACKs never touch the app)."""
        return resolve_path(
            self.dst_ns, self.src_addr, self.src_port, proto,
            include_endpoints=False,
        )

    @property
    def server_domain(self) -> str:
        return self.dst_ns.domain

    @property
    def client_domain(self) -> str:
        return self.src_ns.domain


class ModeSpec(t.NamedTuple):
    """One row of :data:`MODES`: how to deploy a mode, and on how many VMs."""

    build: t.Callable[[Testbed, str, str, int], Scenario]
    vms: int


def build_scenario(
    tb: Testbed,
    mode: str,
    image: str = "netperf",
    port: int = 12865,
) -> Scenario:
    """Deploy *mode*'s topology on *tb* and return the live scenario."""
    spec = MODES.get(mode)
    if spec is None:
        raise ConfigurationError(
            f"unknown mode {mode!r}; known modes: {', '.join(MODES)}"
        )
    enrolled = len(tb.orchestrator.nodes)
    if enrolled < spec.vms:
        raise ConfigurationError(
            f"{mode} scenarios need {spec.vms} enrolled VM(s), "
            f"the testbed has {enrolled}"
        )
    return spec.build(tb, mode, image, port)


# -- client→server scenarios ------------------------------------------------

def _first_node(tb: Testbed):
    return next(iter(tb.orchestrator.nodes.values()))


def _nocont(tb: Testbed, mode: str, image: str, port: int) -> Scenario:
    node = _first_node(tb)
    vm_ip = node.vm.primary_nic.primary_ip
    assert vm_ip is not None
    return Scenario(
        name=tb.unique_name(mode), mode=mode, testbed=tb,
        src_ns=tb.client_ns, src_addr=tb.client_address,
        dst_ns=node.vm.ns, dst_addr=vm_ip, dst_port=port,
    )


def _server_pod(name: str, image: str, port: int) -> PodSpec:
    return PodSpec(
        name=name,
        containers=(
            ContainerSpec(
                "server", image, cpu=1, memory_gb=1,
                publish=(("tcp", port, port), ("udp", port, port)),
            ),
        ),
    )


def _served(tb: Testbed, mode: str, image: str, port: int,
            prefix: str) -> Scenario:
    """A published server pod on the first VM, on CNI network *mode*."""
    dep = tb.deploy(_server_pod(tb.unique_name(prefix), image, port),
                    network=mode, node=_first_node(tb).name)
    addr, ext_port = dep.external_endpoints["server"]
    return Scenario(
        name=dep.name, mode=mode, testbed=tb,
        src_ns=tb.client_ns, src_addr=tb.client_address,
        dst_ns=dep.namespace_of("server"), dst_addr=addr, dst_port=ext_port,
    )


# -- intra-pod scenarios ----------------------------------------------------

def _pair_pod(name: str, image: str, cpu: float) -> PodSpec:
    return PodSpec(
        name=name,
        containers=(
            ContainerSpec("peer-a", image, cpu=cpu, memory_gb=1),
            ContainerSpec("peer-b", image, cpu=cpu, memory_gb=1),
        ),
    )


def _samenode(tb: Testbed, mode: str, image: str, port: int) -> Scenario:
    dep = tb.deploy(_pair_pod(tb.unique_name("same"), image, cpu=1),
                    network="nat", node=_first_node(tb).name)
    return Scenario(
        name=dep.name, mode=mode, testbed=tb,
        src_ns=dep.namespace_of("peer-a"), src_addr=dep.intra_address("peer-a"),
        dst_ns=dep.namespace_of("peer-b"), dst_addr=dep.intra_address("peer-b"),
        dst_port=port,
    )


def _split(tb: Testbed, mode: str, image: str, port: int) -> Scenario:
    """One pod split across two VMs, joined by CNI network *mode*."""
    # Size containers so no single standard VM can host both: the
    # scheduler must split the pod (the capability §4 introduces).
    vcpus = min(n.cpu_capacity for n in tb.orchestrator.nodes.values())
    cpu = (vcpus // 2) + 1
    dep = tb.deploy(_pair_pod(tb.unique_name(mode), image, cpu=cpu),
                    network=mode, allow_split=True)
    if not dep.is_split:
        raise SchedulingError(
            f"{dep.name}: expected a cross-VM split (got {dep.placement})"
        )
    return Scenario(
        name=dep.name, mode=mode, testbed=tb,
        src_ns=dep.namespace_of("peer-a"), src_addr=dep.intra_address("peer-a"),
        dst_ns=dep.namespace_of("peer-b"), dst_addr=dep.intra_address("peer-b"),
        dst_port=port,
    )


def _nat_cross(tb: Testbed, mode: str, image: str, port: int) -> Scenario:
    """Two single-container pods on different VMs, published ports.

    This is the only way the *default* stack serves a "pod" spanning
    VMs: talk to the other VM's published port through two NAT layers.
    """
    node_a, node_b = list(tb.orchestrator.nodes.values())[:2]
    dep_a = tb.deploy(_server_pod(tb.unique_name("natx-a"), image, _SRC_PORT),
                      network="nat", node=node_a.name)
    dep_b = tb.deploy(_server_pod(tb.unique_name("natx-b"), image, port),
                      network="nat", node=node_b.name)
    addr_b, port_b = dep_b.external_endpoints["server"]
    addr_a, port_a = dep_a.external_endpoints["server"]
    return Scenario(
        name=f"{dep_a.name}->{dep_b.name}", mode=mode, testbed=tb,
        src_ns=dep_a.namespace_of("server"), src_addr=addr_a,
        dst_ns=dep_b.namespace_of("server"), dst_addr=addr_b,
        dst_port=port_b, src_port=port_a,
    )


#: The configurations compared across §5, keyed by the ``mode`` string
#: every result row carries (:mod:`repro.core` tabulates their meaning).
MODES: dict[str, ModeSpec] = {
    "nat": ModeSpec(functools.partial(_served, prefix="nat"), vms=1),
    "brfusion": ModeSpec(functools.partial(_served, prefix="brf"), vms=1),
    "nocont": ModeSpec(_nocont, vms=1),
    "samenode": ModeSpec(_samenode, vms=1),
    "hostlo": ModeSpec(_split, vms=2),
    "overlay": ModeSpec(_split, vms=2),
    "nat_cross": ModeSpec(_nat_cross, vms=2),
}
