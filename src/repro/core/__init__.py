"""The public API of the reproduction.

:class:`Testbed` assembles the whole simulated server — physical host,
VMM, orchestrator, benchmark client, transfer engine — in the shape of
the paper's §5.1 environment.  :func:`build_scenario` then deploys one
of the seven configurations the evaluation compares, named by a key of
the :data:`~repro.core.scenario.MODES` table:

===========  ==================================================
mode         meaning (paper terminology)
===========  ==================================================
nat          nested default: Docker bridge+NAT inside the VM
brfusion     §3: per-pod NIC on the host bridge
nocont       no nested virtualization (app native in the VM)
samenode     whole pod in one VM, localhost communication
hostlo       §4: pod split across VMs over the hostlo device
overlay      pod split across VMs over Docker Overlay (VXLAN)
nat_cross    two pods on two VMs over published ports (two NATs)
===========  ==================================================
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".scenario": ["MODES", "Scenario", "build_scenario"],
    ".testbed": ["Testbed"],
})
