"""Online cost simulation: pods arrive and depart over time.

The paper's §5.3.1 study is offline (all pods known upfront, biggest
first).  Real clusters see churn, and that is where cross-VM placement
pays twice: a pod that fits nowhere whole can still *start now* on the
waste of existing VMs instead of forcing a new purchase, and departures
leave holes that consolidation can empty and return.

This module replays a timed arrival/departure stream twice:

* **Kubernetes baseline** — whole pods only; buy on no-fit; release a
  VM the moment it empties (no resizing of running VMs — this is
  online).
* **Hostlo** — same, but a pod that fits nowhere whole is split across
  existing waste (smallest containers into most-wasted VMs) before
  anything is bought, and each departure triggers a consolidation pass
  that migrates containers of splittable pods out of nearly-empty VMs
  so those VMs can be returned.

Cost is the integral of VM prices over time ($·h), so keeping a VM an
hour longer is exactly as expensive as buying it an hour earlier.
"""

from __future__ import annotations

import dataclasses
import heapq
import typing as t

from repro.costsim.kubernetes import new_node_model, pick_node
from repro.costsim.packing import BoughtVm, PlacedContainer
from repro.errors import ConfigurationError
from repro.sim.rng import RngRegistry
from repro.traces.aws import VmModel
from repro.traces.google import TraceConfig, TracePod, generate_trace


@dataclasses.dataclass(frozen=True)
class PodEvent:
    """One pod's lifetime in the stream."""

    pod: TracePod
    arrival_h: float
    duration_h: float

    @property
    def departure_h(self) -> float:
        return self.arrival_h + self.duration_h


@dataclasses.dataclass(frozen=True)
class OnlineConfig:
    """Arrival/duration shaping on top of the fig 9 population."""

    trace: TraceConfig = dataclasses.field(default_factory=TraceConfig)
    horizon_h: float = 24.0
    mean_duration_h: float = 6.0
    seed: int = 77

    def __post_init__(self) -> None:
        if self.horizon_h <= 0 or self.mean_duration_h <= 0:
            raise ConfigurationError("horizon/duration must be positive")


def generate_events(config: OnlineConfig | None = None) -> list[PodEvent]:
    """A timed stream: every fig 9 pod gets an arrival and a duration."""
    config = config or OnlineConfig()
    rng = RngRegistry(config.seed).stream("online-arrivals")
    events: list[PodEvent] = []
    for user in generate_trace(config.trace):
        for pod in user.pods:
            arrival = float(rng.uniform(0.0, config.horizon_h))
            duration = float(rng.lognormal(
                mean=0.0, sigma=0.8
            )) * config.mean_duration_h
            events.append(PodEvent(pod=pod, arrival_h=arrival,
                                   duration_h=max(duration, 0.1)))
    events.sort(key=lambda e: e.arrival_h)
    return events


class _Fleet:
    """The running VMs plus the accumulated bill."""

    def __init__(self) -> None:
        self.vms: list[BoughtVm] = []
        self._bought_at: dict[str, float] = {}
        self.cost_dollar_h = 0.0
        self.peak_vms = 0
        self.buys = 0

    def buy(self, model: VmModel, now_h: float) -> BoughtVm:
        """Buy a VM, named by this fleet's purchase count."""
        vm = BoughtVm(model, name=f"vm-{self.buys}")
        self.vms.append(vm)
        self._bought_at[vm.name] = now_h
        self.buys += 1
        self.peak_vms = max(self.peak_vms, len(self.vms))
        return vm

    def release(self, vm: BoughtVm, now_h: float) -> None:
        uptime = now_h - self._bought_at.pop(vm.name)
        self.cost_dollar_h += uptime * vm.model.price_per_h
        self.vms.remove(vm)

    def release_empty(self, now_h: float) -> int:
        releasable = [vm for vm in self.vms if vm.is_empty]
        for vm in releasable:
            self.release(vm, now_h)
        return len(releasable)

    def finalize(self, now_h: float) -> None:
        for vm in list(self.vms):
            self.release(vm, now_h)


@dataclasses.dataclass(frozen=True)
class OnlineOutcome:
    """Costs of the whole stream under both schedulers."""

    kubernetes_cost: float  # $·h over the horizon
    hostlo_cost: float
    kubernetes_buys: int
    hostlo_buys: int
    kubernetes_peak_vms: int
    hostlo_peak_vms: int
    split_placements: int

    @property
    def relative_saving(self) -> float:
        if self.kubernetes_cost <= 0:
            return 0.0
        return 1.0 - self.hostlo_cost / self.kubernetes_cost


def simulate_online(events: t.Sequence[PodEvent]) -> OnlineOutcome:
    """Replay the stream under both schedulers."""
    k8s_cost, k8s_buys, k8s_peak, _ = _replay(events, split=False)
    hlo_cost, hlo_buys, hlo_peak, splits = _replay(events, split=True)
    return OnlineOutcome(
        kubernetes_cost=k8s_cost,
        hostlo_cost=hlo_cost,
        kubernetes_buys=k8s_buys,
        hostlo_buys=hlo_buys,
        kubernetes_peak_vms=k8s_peak,
        hostlo_peak_vms=hlo_peak,
        split_placements=splits,
    )


def _replay(events: t.Sequence[PodEvent],
            split: bool) -> tuple[float, int, int, int]:
    fleet = _Fleet()
    location: dict[PlacedContainer, BoughtVm] = {}
    placements: dict[int, list[PlacedContainer]] = {}
    departures: list[tuple[float, int]] = []  # (time, event index)
    split_count = 0
    end_h = 0.0

    for index, event in enumerate(sorted(events, key=lambda e: e.arrival_h)):
        now = event.arrival_h
        end_h = max(end_h, event.departure_h)
        # Process departures that happened before this arrival.
        while departures and departures[0][0] <= now:
            dep_time, dep_index = heapq.heappop(departures)
            _depart(fleet, location, placements.pop(dep_index), dep_time,
                    split)

        placed, did_split = _arrive(fleet, location, event.pod, now, split)
        placements[index] = placed
        split_count += did_split
        heapq.heappush(departures, (event.departure_h, index))

    while departures:
        dep_time, dep_index = heapq.heappop(departures)
        _depart(fleet, location, placements.pop(dep_index), dep_time, split)
    fleet.finalize(end_h)
    return fleet.cost_dollar_h, fleet.buys, fleet.peak_vms, split_count


def _arrive(fleet: _Fleet, location: dict[PlacedContainer, BoughtVm],
            pod: TracePod, now: float,
            split: bool) -> tuple[list[PlacedContainer], int]:
    # Whole-pod first (most requested), as in §5.3.1 step 3a.
    target = pick_node(fleet.vms, pod)
    placed: list[PlacedContainer] = []
    if target is not None:
        for container in pod.containers:
            item = PlacedContainer(pod.name, container, pod.splittable)
            target.place(item)
            location[item] = target
            placed.append(item)
        return placed, 0

    if split and pod.splittable and len(pod.containers) > 1:
        # Fill existing waste, smallest containers into most-wasted VMs.
        items = sorted(
            (PlacedContainer(pod.name, c, True) for c in pod.containers),
            key=lambda i: i.size_key,
        )
        used_vms: set[str] = set()
        tentative: list[PlacedContainer] = []
        feasible = True
        for item in items:
            candidates = sorted(fleet.vms, key=lambda v: v.waste,
                                reverse=True)
            home = next(
                (vm for vm in candidates if vm.fits(item.cpu, item.memory)),
                None,
            )
            if home is None:
                feasible = False
                break
            home.place(item)
            location[item] = home
            used_vms.add(home.name)
            tentative.append(item)
        if feasible and len(used_vms) > 1:
            return tentative, 1
        # Roll back (either infeasible, or it fit one VM after all —
        # then the whole-pod path above would have found it; buy).
        for item in tentative:
            location.pop(item).remove(item)

    # Buy the cheapest VM that hosts the whole pod (step 3b).
    vm = fleet.buy(new_node_model(pod), now)
    for container in pod.containers:
        item = PlacedContainer(pod.name, container, pod.splittable)
        vm.place(item)
        location[item] = vm
        placed.append(item)
    return placed, 0


def _depart(fleet: _Fleet, location: dict[PlacedContainer, BoughtVm],
            placed: list[PlacedContainer],
            now: float, split: bool) -> None:
    for item in placed:
        location.pop(item).remove(item)
    fleet.release_empty(now)
    if split:
        _consolidate(fleet, location, now)


#: Consolidation passes per departure; bounds the O(V^2) cascade.
_MAX_CONSOLIDATION_PASSES = 2


def _consolidate(fleet: _Fleet,
                 location: dict[PlacedContainer, BoughtVm],
                 now: float) -> None:
    """Departure-triggered pass: empty the most-wasted VM if its
    (splittable) containers fit elsewhere, then return it."""
    changed = True
    passes = 0
    while changed and passes < _MAX_CONSOLIDATION_PASSES:
        passes += 1
        changed = False
        donors = sorted(fleet.vms, key=lambda v: v.waste, reverse=True)
        for donor in donors:
            if donor.is_empty or not all(i.splittable for i in donor.placed):
                continue
            items = sorted(donor.placed, key=lambda i: i.size_key)
            moved: list[tuple[BoughtVm, PlacedContainer]] = []
            ok = True
            for item in items:
                home = next(
                    (vm for vm in fleet.vms
                     if vm is not donor and vm.fits(item.cpu, item.memory)),
                    None,
                )
                if home is None:
                    ok = False
                    break
                donor.remove(item)
                home.place(item)
                location[item] = home
                moved.append((home, item))
            if not ok:
                for home, item in moved:
                    home.remove(item)
                    donor.place(item)
                    location[item] = donor
                continue
            fleet.release(donor, now)
            changed = True
            break
