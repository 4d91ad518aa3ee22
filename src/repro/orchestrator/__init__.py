"""The pod orchestrator (Kubernetes-like).

The paper's thesis is that the orchestrator should become the main
actor of the datacenter and drive the VMM.  This package implements
the pieces that thesis needs:

* :class:`PodSpec` / :class:`ContainerSpec` — what users deploy.
* :class:`Node` — a VM enrolled as a scheduling target.
* :class:`MostRequestedScheduler` — Kubernetes' "most requested"
  placement policy (§5.3.1), plus the cross-VM split placement that
  Hostlo makes legal.
* The CNI plugin interface and the four plugins the evaluation
  compares: ``nat`` (default bridge+NAT), ``brfusion``, ``hostlo``
  and ``overlay``.
* :class:`VmAgent` — the in-guest agent that receives a device
  identifier (MAC) from the VMM via the orchestrator and configures
  the device inside the pod (§3.1/§4.1 step 4).
* :class:`Orchestrator` — ties it all together: ``deploy_pod``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".agent": ["VmAgent"],
    ".cluster": ["Deployment", "Orchestrator"],
    ".cni": ["CniPlugin"],
    ".node": ["Node"],
    ".pod": ["ContainerSpec", "PodSpec"],
    ".scheduler": ["MostRequestedScheduler", "Placement"],
})
