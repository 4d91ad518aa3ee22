"""Container substrate: a Docker-like engine running inside each VM.

* :class:`ContainerImage` / the :data:`IMAGES` registry — the images
  the paper's benchmarks run (netperf, memcached, nginx, kafka).
* :class:`Container` — one container: its network namespace lives
  inside the VM and is billed to the VM's vCPUs.
* :class:`ContainerEngine` — per-VM engine implementing the network
  modes the experiments compare: Docker's default ``bridge`` (NAT), an
  adopted hot-plugged NIC (BrFusion), joining a pod namespace
  (SameNode), adopting a hostlo endpoint, and Docker ``overlay``.
* :class:`OverlayNetwork` — VXLAN overlay spanning several VMs.
* :mod:`repro.containers.boot` — the timed container start-up pipeline
  measured by the fig 8 experiment.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".container": ["Container"],
    ".engine": ["ContainerEngine"],
    ".image": ["IMAGES", "ContainerImage"],
    ".overlay": ["OverlayNetwork"],
})
