"""The virtualization substrate: host, VMM, VMs, hot-plug, hostlo.

Mirrors the paper's QEMU/KVM testbed:

* :class:`PhysicalHost` — the physical server: host kernel CPU pool,
  host network namespace, the default bridge all VMs hang off.
* :class:`VirtualMachine` — a guest: vCPU pool (its busy time is the
  host's ``guest`` CPU category), guest network namespace, virtio NICs.
* :class:`Vmm` — the virtual machine manager.  It exposes exactly the
  management operations the paper's designs need: VM creation, NIC
  hot-plug through the QMP side channel (§3.2, for BrFusion) and
  multiplexed-loopback provisioning (§4.2, for Hostlo).
* :class:`QmpChannel` — the QEMU management protocol side channel, with
  realistic command latencies (exercised by the fig 8 boot-time
  experiment).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".host": ["PhysicalHost"],
    ".qmp": ["QmpChannel", "QmpCommand"],
    ".vm": ["VirtualMachine"],
    ".vmm": ["HostloHandle", "Vmm"],
})
