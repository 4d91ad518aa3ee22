"""The Hostlo improvement pass (§5.3.1 step 4).

"For Hostlo, we improve this scheduling by moving containers to the VMs
that have the most wasted resources, smallest containers first, in the
hope of eliminating the waste and reducing the number of needed VMs or
shrinking the sizes of VMs — thus reducing costs."

Concretely: containers of splittable pods are considered smallest
first; each is moved into the most-wasted *other* VM that can take it,
provided the destination is strictly more wasted than the source (so
moves consolidate instead of shuffling).  Passes repeat until no move
applies.  Emptied VMs are returned; every remaining VM is replaced by
the cheapest model that still holds its load.  The pod fragments that
end up on different VMs are exactly the deployments Hostlo's datapath
makes possible.
"""

from __future__ import annotations

import typing as t

from repro.costsim.packing import BoughtVm, PlacedContainer, total_cost
from repro.traces.aws import cheapest_fitting

_MAX_PASSES = 8

#: A reshuffle below this relative gain is not worth the operational
#: churn (hot-plugging hostlo devices, migrating containers); the
#: orchestrator keeps the original placement.  This threshold also
#: reproduces fig 9's shape: only a minority of users (≈11 %) see a
#: worthwhile saving.
MIN_WORTHWHILE_SAVING = 0.025


def improve_assignment(
    vms: t.Sequence[BoughtVm],
    cost_fn: t.Callable[[t.Sequence[BoughtVm]], float] | None = None,
) -> list[BoughtVm]:
    """Return an improved (never worse) copy of the assignment.

    *cost_fn* is the objective used to compare candidate placements
    and to apply the worthwhile-saving threshold; it defaults to the
    pure dollar cost :func:`~repro.costsim.packing.total_cost`.  Pass
    e.g. :meth:`repro.fabric.costs.TopologyCostModel.cost` to also
    price the hostlo reflection penalty of splitting a pod across
    topologically distant hosts.  The inner repacking heuristics keep
    optimising raw VM spend regardless — the objective only decides
    which resulting placement wins.
    """
    if cost_fn is None:
        cost_fn = total_cost
    baseline_cost = cost_fn(vms)
    working = [vm.clone() for vm in vms]

    # Strategy 1: consolidating moves, then drop/shrink/split VMs.
    for _ in range(_MAX_PASSES):
        if not _one_pass(working):
            break
    working = [vm for vm in working if not vm.is_empty]
    for vm in working:
        vm.model = vm.shrunk_model()
    working = _resplit_all(working)

    # Strategy 2: no moves, just right-size what Kubernetes bought.
    # Moving smallest-first can *fill* wasted VMs and defeat the
    # resplit, so the orchestrator evaluates both and keeps the better.
    resplit_only = _resplit_all([vm.clone() for vm in vms])

    best = min((working, resplit_only), key=cost_fn)
    if cost_fn(best) >= baseline_cost * (1.0 - MIN_WORTHWHILE_SAVING):
        # The crude greedy can fail to help (or helps marginally):
        # keep the original placement.
        return [vm.clone() for vm in vms]
    return best


def _resplit_all(vms: t.Sequence[BoughtVm]) -> list[BoughtVm]:
    """Apply :func:`_resplit` to every VM.

    "...or shrinking the sizes of VMs": a wasteful VM may also be
    replaced by *several smaller* ones, as in the paper's motivating
    example (one m5.2xlarge → m5.large + m5.xlarge).  Hostlo makes
    this legal even when the VM hosts one big pod.
    """
    result: list[BoughtVm] = []
    for vm in vms:
        result.extend(_resplit(vm))
    return result


def _one_pass(vms: list[BoughtVm]) -> bool:
    """One smallest-first sweep of container moves; True if any moved."""
    moved = False
    items: list[tuple[PlacedContainer, BoughtVm]] = [
        (item, vm) for vm in vms for item in vm.placed if item.splittable
    ]
    items.sort(key=lambda pair: pair[0].size_key)
    for item, source in items:
        if item not in source.placed:  # already moved in this pass
            continue
        destination = _most_wasted_destination(vms, source, item)
        if destination is None:
            continue
        source.remove(item)
        destination.place(item)
        moved = True
    return moved


def _most_wasted_destination(
    vms: t.Sequence[BoughtVm], source: BoughtVm, item: PlacedContainer
) -> BoughtVm | None:
    """The most-wasted other VM that takes *item* and consolidates.

    A destination must be strictly more wasted than the source would be
    attractive to fill — otherwise containers would oscillate between
    equally-loaded VMs forever.

    This is the pass's hot loop, so it inlines :meth:`BoughtVm.fits`
    and :attr:`BoughtVm.waste`.  Their exact comparisons, including the
    first-wins strict tie-break, decide which VM takes each container.
    """
    cpu = item.cpu
    memory = item.memory
    best: BoughtVm | None = None
    best_waste = source.waste
    for vm in vms:
        free_cpu = vm.free_cpu
        free_memory = vm.free_memory
        if (vm is source or not cpu <= free_cpu + 1e-12
                or not memory <= free_memory + 1e-12):
            continue
        waste = free_cpu + free_memory
        if waste > best_waste + 1e-12:
            best, best_waste = vm, waste
    return best


def _resplit(vm: BoughtVm) -> list[BoughtVm]:
    """Try to repack one VM's load into a cheaper set of smaller VMs.

    Containers of unsplittable pods move as one atom; splittable pods'
    containers move independently (their localhost becomes a hostlo).
    Best-fit decreasing; the original VM is kept when not beaten.  The
    new VMs are named after the original (``vm-3`` -> ``vm-3.0``, ...).
    """
    atoms: dict[str, list[PlacedContainer]] = {}
    singles: list[list[PlacedContainer]] = []
    for item in vm.placed:
        if item.splittable:
            singles.append([item])
        else:
            atoms.setdefault(item.pod_name, []).append(item)
    groups = list(atoms.values()) + singles
    if len(groups) <= 1:
        # One atom: still worth trying a straight shrink (already done
        # by the caller), but nothing to split.
        return [vm]

    def group_size(group: list[PlacedContainer]) -> tuple[float, float]:
        return (sum(i.cpu for i in group), sum(i.memory for i in group))

    groups.sort(key=lambda g: max(*group_size(g)), reverse=True)
    new_vms: list[BoughtVm] = []
    for group in groups:
        cpu, memory = group_size(group)
        best: BoughtVm | None = None
        best_waste = float("inf")
        for candidate in new_vms:
            if candidate.fits(cpu, memory) and candidate.waste < best_waste:
                best, best_waste = candidate, candidate.waste
        if best is None:
            best = BoughtVm(cheapest_fitting(cpu, memory),
                            name=f"{vm.name}.{len(new_vms)}")
            new_vms.append(best)
        for item in group:
            best.place(item)
    # Right-size every new VM, then compare.
    for candidate in new_vms:
        candidate.model = candidate.shrunk_model()
    if total_cost(new_vms) < vm.model.price_per_h - 1e-12:
        return new_vms
    return [vm]


def split_pod_names(vms: t.Sequence[BoughtVm]) -> set[str]:
    """Pods whose containers ended up on more than one VM (need hostlo)."""
    locations: dict[str, set[str]] = {}
    for vm in vms:
        for item in vm.placed:
            locations.setdefault(item.pod_name, set()).add(vm.name)
    return {pod for pod, where in locations.items() if len(where) > 1}
