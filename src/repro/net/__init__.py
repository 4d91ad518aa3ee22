"""Simulated Linux networking substrate.

This package models the pieces of the Linux network stack that the
paper's datapaths traverse: Ethernet/IP addressing, network devices
(NICs, veth pairs, TAP devices, loopbacks, the hostlo multiplexed
loopback endpoints), learning bridges, netfilter NAT with connection
tracking, routing tables, network namespaces, and VXLAN overlays.

Two higher-level services tie it together:

* :mod:`repro.net.path` resolves, from the actual topology objects, the
  ordered list of processing stages a packet traverses between two
  sockets — the resolver is where BrFusion's "shorter path" physically
  comes from.
* :mod:`repro.net.transfer` executes such a path on the discrete-event
  engine, charging each stage's cycles to the right CPU and account.

All stage costs live in :mod:`repro.net.costs`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".addresses": [
        "Ipv4Address", "Ipv4Network", "MacAddress", "MacAllocator",
        "SubnetAllocator",
    ],
    ".arq": ["ArqConfig", "ArqReport", "PathFaultModel", "ReliableTransfer"],
    ".bridge": ["Bridge"],
    ".capture": ["CaptureFilter", "CapturePoint", "CaptureSession", "Hop"],
    ".costs": ["CostModel", "StageCost"],
    ".devices": [
        "DeviceQueue", "HostloEndpoint", "HostloTap", "Loopback", "NetDevice",
        "NsmHostStack", "NsmPort", "PhysicalNic", "TapDevice", "VethPair",
        "VirtioNic", "VxlanTunnel",
    ],
    ".flows": ["FlowKey", "FlowStats", "FlowTable"],
    ".forwarding": ["Delivery", "ForwardingEngine", "Frame"],
    ".links": ["PhysicalLink", "connect_hosts"],
    ".namespace": ["NetworkNamespace"],
    ".netfilter": [
        "DnatRule", "ForwardDropRule", "MasqueradeRule", "Netfilter",
    ],
    ".path": ["Datapath", "PathStage", "resolve_path"],
    ".routing": ["Route", "RoutingTable"],
    ".transfer": ["StageTiming", "TransferEngine"],
})
