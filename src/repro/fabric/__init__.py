"""The datacenter fabric subsystem: fat-trees, ECMP, rack awareness.

What the single-host paper testbed lacks: real topology distance.  This
package builds k-ary fat-trees of :class:`FabricSwitch` nodes cabled
with the existing :class:`~repro.net.links.PhysicalLink` wires, racks
of :class:`~repro.virt.host.PhysicalHost`s under the edges, and layers
on top of them deterministic per-flow ECMP (:mod:`repro.fabric.ecmp`),
traffic-aware elephant re-pinning (:mod:`repro.fabric.flowsched`),
rack-aware pod placement (:mod:`repro.fabric.scheduler`) and a
topology-priced hostlo reflection cost (:mod:`repro.fabric.costs`).

The forwarding engine walks fabric hops natively (frames land on switch
ports and follow down-routes/ECMP decisions), so conservation ledgers,
capture provenance, flow accounting and fault injection all apply to
fabric traffic unchanged.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".costs": ["TopologyCostModel"],
    ".ecmp": ["ecmp_index", "flow_signature"],
    ".flowsched": ["Repin", "TrafficAwareFlowScheduler"],
    ".scheduler": ["TopologyAwareScheduler"],
    ".topology": [
        "DISTANCE_CROSS_POD", "DISTANCE_SAME_HOST", "DISTANCE_SAME_POD",
        "DISTANCE_SAME_RACK", "FabricSwitch", "FatTree",
    ],
})
