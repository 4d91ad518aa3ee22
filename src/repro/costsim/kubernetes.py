"""The Kubernetes whole-pod baseline scheduling (§5.3.1 steps 1–3).

1. each user starts with no VM and no pod;
2. the user's pods are scheduled offline, biggest first;
3. each pod goes (a) whole onto the already-bought VM that best fits
   under the "most requested" policy, otherwise (b) onto a newly bought
   VM of the cheapest model that can host the whole pod.
"""

from __future__ import annotations

import typing as t

from repro.costsim.packing import BoughtVm, PlacedContainer
from repro.errors import CapacityError
from repro.traces.aws import BY_PRICE, VmModel
from repro.traces.google import TracePod


def schedule_user(pods: t.Sequence[TracePod],
                  policy: str = "most-requested") -> list[BoughtVm]:
    """Schedule one user's pods; returns the bought VMs.

    ``policy`` selects the node-scoring rule: ``"most-requested"``
    (the paper's grouping policy) or ``"least-requested"`` (Kubernetes'
    spreading alternative, exposed for the scheduler ablation).
    VMs are named ``vm-0``, ``vm-1``, ... in the order they are bought.
    """
    direction = {"most-requested": 1.0, "least-requested": -1.0}[policy]
    vms: list[BoughtVm] = []
    for pod in sorted(pods, key=lambda p: p.size_key, reverse=True):
        target = pick_node(vms, pod, direction)
        if target is None:
            target = BoughtVm(new_node_model(pod), name=f"vm-{len(vms)}")
            vms.append(target)
        for container in pod.containers:
            target.place(
                PlacedContainer(
                    pod_name=pod.name,
                    container=container,
                    splittable=pod.splittable,
                )
            )
    return vms


def pick_node(vms: t.Sequence[BoughtVm], pod: TracePod,
              direction: float = 1.0) -> BoughtVm | None:
    """Among VMs that can take the whole *pod*, the best-scoring one
    (the first of equals)."""
    cpu = pod.cpu
    memory = pod.memory
    best: BoughtVm | None = None
    best_score = -float("inf")
    for vm in vms:
        if not vm.fits(cpu, memory):
            continue
        score = direction * vm.requested_score()
        if score > best_score and vm.takes(pod.containers, cpu, memory):
            best, best_score = vm, score
    return best


def new_node_model(pod: TracePod) -> VmModel:
    """The cheapest model whose new VM takes the whole *pod*."""
    cpu = pod.cpu
    memory = pod.memory
    for model in BY_PRICE:
        if model.fits(cpu, memory) and BoughtVm(model).takes(
                pod.containers, cpu, memory):
            return model
    raise CapacityError(
        f"demand cpu={cpu:.4f} mem={memory:.4f} exceeds the largest model")
