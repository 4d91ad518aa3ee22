"""The Hostlo improvement pass (§5.3.1 step 4).

"For Hostlo, we improve this scheduling by moving containers to the VMs
that have the most wasted resources, smallest containers first, in the
hope of eliminating the waste and reducing the number of needed VMs or
shrinking the sizes of VMs — thus reducing costs."

Concretely: containers of splittable pods are considered smallest
first; each is moved into the most-wasted *other* VM that can take it,
provided the destination is strictly more wasted than the source (so
moves consolidate instead of shuffling).  Each pass keeps its VMs in an
index sorted by waste (:class:`_WasteIndex`), which picks exactly the
VM that a scan of every VM in list order would, without visiting every
VM for every container.  Passes repeat until no move applies.  Emptied
VMs are returned; every remaining VM is replaced by the cheapest model
that still holds its load.  The pod fragments that end up on different
VMs are exactly the deployments Hostlo's datapath makes possible.
"""

from __future__ import annotations

import bisect
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
    index = _WasteIndex(vms)
    for item, source in items:
        if item not in source.placed:  # already moved in this pass
            continue
        destination = index.destination(source, item)
        if destination is None:
            continue
        index.move(item, source, destination)
        moved = True
    return moved


class _WasteIndex:
    """The pass's VMs, most wasted first, for picking move destinations.

    Entries are ``(-waste, position, vm)`` kept sorted with :mod:`bisect`,
    where *position* is the VM's index in the pass's list.  Moves go
    through :meth:`move`, which keeps the order.

    :meth:`destination` picks exactly the VM that a sequential scan of
    the list would pick: every VM in list order, skipping the source
    and each VM the item does not fit, accepting a VM when
    ``waste > best_waste + 1e-12``, with ``best_waste`` starting at the
    source's waste.  It walks the index from the top and collects the
    fitting VMs of the gap-connected top cluster.  The walk stops at the
    first fitting VM whose waste ``w`` has
    ``lowest_collected > w + 1e-12``, and at the first VM the scan could
    never accept, ``w <= source_waste + 1e-12``.  It then runs the
    sequential scan over the cluster only, in list order.

    Why this is exact.  ``best_waste`` only grows and float addition is
    monotonic, so a VM with ``w <= source_waste + 1e-12`` is never
    accepted, and every fitting VM below the cluster has ``w + 1e-12``
    below the waste of every cluster member.  Such a VM can become
    ``best`` only before the scan accepts a cluster member, and every
    cluster member still beats it, so the first cluster member in list
    order is accepted either way.  Both scans then go on from the same
    ``best``, and no VM below the cluster can beat a cluster member
    afterwards.
    """

    __slots__ = ("_entries", "_position")

    def __init__(self, vms: t.Sequence[BoughtVm]) -> None:
        self._position = {vm: position for position, vm in enumerate(vms)}
        self._entries = sorted(
            (-vm.waste, position, vm) for position, vm in enumerate(vms))

    def move(self, item: PlacedContainer, source: BoughtVm,
             destination: BoughtVm) -> None:
        """Move *item*; only its two VMs change waste, so only they are
        taken out of the index and put back."""
        entries = self._entries
        position = self._position
        for vm in (source, destination):
            del entries[bisect.bisect_left(entries,
                                           (-vm.waste, position[vm]))]
        source.remove(item)
        destination.place(item)
        for vm in (source, destination):
            bisect.insort(entries, (-vm.waste, position[vm], vm))

    def destination(self, source: BoughtVm,
                    item: PlacedContainer) -> BoughtVm | None:
        """The most-wasted other VM that takes *item* and consolidates.

        A destination must be strictly more wasted than the source would
        be attractive to fill — otherwise containers would oscillate
        between equally-loaded VMs forever.  The walk inlines
        :meth:`BoughtVm.fits`; its exact comparisons, and the scan's
        first-wins strict tie-break, decide which VM takes each
        container.
        """
        cpu = item.cpu
        memory = item.memory
        source_waste = source.waste
        floor = source_waste + 1e-12
        cluster: list[tuple[int, float, BoughtVm]] = []
        lowest = 0.0
        for neg_waste, position, vm in self._entries:
            waste = -neg_waste
            if waste <= floor:
                break
            if (vm is source or not cpu <= vm.free_cpu + 1e-12
                    or not memory <= vm.free_memory + 1e-12):
                continue
            if cluster and lowest > waste + 1e-12:
                break
            cluster.append((position, waste, vm))
            lowest = waste
        if len(cluster) < 2:
            return cluster[0][2] if cluster else None
        cluster.sort()
        best: BoughtVm | None = None
        best_waste = source_waste
        for _, waste, vm in cluster:
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

    sized = [(sum(i.cpu for i in group), sum(i.memory for i in group), group)
             for group in groups]
    sized.sort(key=lambda s: max(s[0], s[1]), reverse=True)
    new_vms: list[BoughtVm] = []
    for cpu, memory, group in sized:
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
