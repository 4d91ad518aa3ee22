"""The Hostlo cost-savings simulation (§5.3.1, fig 9).

Replays a per-user pod population against the AWS m5 catalog twice:

1. **Kubernetes baseline** — whole pods, placed biggest-first on the
   already-bought VM that is "most requested", else on a newly bought
   cheapest-fitting VM (:mod:`repro.costsim.kubernetes`);
2. **Hostlo improvement** — containers of splittable pods are moved,
   smallest first, into the VMs with the most wasted resources; emptied
   VMs are returned and every remaining VM is shrunk to the cheapest
   model that still fits its load (:mod:`repro.costsim.hostlo`).

The per-user cost difference is the money Hostlo saves
(:mod:`repro.costsim.simulation`, :mod:`repro.costsim.report`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".hostlo": ["improve_assignment"],
    ".kubernetes": ["schedule_user"],
    ".packing": ["BoughtVm"],
    ".report": ["SavingsReport"],
    ".simulation": ["UserOutcome", "simulate_costs"],
})
