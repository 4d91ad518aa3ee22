"""Bought-VM state for the cost simulation."""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import CapacityError
from repro.traces.aws import VmModel, cheapest_fitting
from repro.traces.google import TraceContainer


@dataclasses.dataclass(eq=False, slots=True)
class PlacedContainer:
    """A container placed on a VM, remembering its pod.

    Identity semantics (``eq=False``): two containers of one pod may
    request identical resources yet remain distinct placements; the
    online simulation tracks them individually across migrations.
    """

    pod_name: str
    container: TraceContainer
    splittable: bool
    #: The container's requests and the larger of the two, set once
    #: from the container: the improvement pass reads them for every item.
    cpu: float = dataclasses.field(init=False, repr=False, compare=False)
    memory: float = dataclasses.field(init=False, repr=False, compare=False)
    size_key: float = dataclasses.field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        self.cpu = self.container.cpu
        self.memory = self.container.memory
        self.size_key = max(self.cpu, self.memory)


class BoughtVm:
    """One VM a user bought, with its placed containers.

    ``free_cpu``, ``free_memory`` and ``waste`` (their sum: the unused
    capacity the improvement pass targets) are plain attributes, read by
    every fit check and waste ordering.  Invariant: they always equal
    ``model.cpu_rel - used_cpu``, ``model.memory_rel - used_memory`` and
    ``free_cpu + free_memory`` exactly.  :meth:`_refresh` recomputes
    them with those expressions after every :meth:`place`,
    :meth:`remove`, :meth:`clone` and ``model`` assignment, reading the
    model's relative capacities from ``_cpu_rel`` and ``_memory_rel``,
    which are cached whenever ``model`` is assigned.  They are never
    decremented in place: ``(a - x) - y`` can differ from
    ``a - (x + y)`` in the last bit, and the improvement pass's 1e-12
    tie-breaks would then pick another VM.

    ``name`` tells the VM apart within its assignment, and the fabric
    cost model hashes it to place the VM.  Callers derive it from the
    assignment, never from process-wide state, so results do not
    depend on what the process ran before.
    """

    __slots__ = ("_model", "_cpu_rel", "_memory_rel", "name", "placed",
                 "_used_cpu", "_used_memory", "free_cpu", "free_memory",
                 "waste")

    def __init__(self, model: VmModel, name: str = "vm") -> None:
        self.name = name
        self.placed: list[PlacedContainer] = []
        self._used_cpu = 0.0
        self._used_memory = 0.0
        self.model = model

    def _refresh(self) -> None:
        self.free_cpu = self._cpu_rel - self._used_cpu
        self.free_memory = self._memory_rel - self._used_memory
        self.waste = self.free_cpu + self.free_memory

    @property
    def model(self) -> VmModel:
        return self._model

    @model.setter
    def model(self, model: VmModel) -> None:
        self._model = model
        self._cpu_rel = model.cpu_rel
        self._memory_rel = model.memory_rel
        self._refresh()

    # -- capacity ------------------------------------------------------------
    @property
    def used_cpu(self) -> float:
        return self._used_cpu

    @property
    def used_memory(self) -> float:
        return self._used_memory

    @property
    def is_empty(self) -> bool:
        return not self.placed

    def fits(self, cpu: float, memory: float) -> bool:
        return cpu <= self.free_cpu + 1e-12 and memory <= self.free_memory + 1e-12

    def takes(self, containers: t.Iterable[TraceContainer],
              cpu: float, memory: float) -> bool:
        """Whether :meth:`place` takes *containers* one by one, given
        that :meth:`fits` takes their ``sum()`` totals *cpu*, *memory*:
        the running totals it checks round differently from ``sum()``."""
        if cpu + 1e-9 <= self.free_cpu and memory + 1e-9 <= self.free_memory:
            return True
        used_cpu = self._used_cpu
        used_memory = self._used_memory
        for container in containers:
            if not (container.cpu <= self._cpu_rel - used_cpu + 1e-12
                    and container.memory
                    <= self._memory_rel - used_memory + 1e-12):
                return False
            used_cpu += container.cpu
            used_memory += container.memory
        return True

    def requested_score(self) -> float:
        """Kubernetes "most requested": mean requested fraction."""
        return 0.5 * (
            self._used_cpu / self._cpu_rel
            + self._used_memory / self._memory_rel
        )

    # -- mutation ------------------------------------------------------------
    def place(self, item: PlacedContainer) -> None:
        cpu = item.cpu
        memory = item.memory
        if not (cpu <= self.free_cpu + 1e-12
                and memory <= self.free_memory + 1e-12):
            raise CapacityError(
                f"{self.name} ({self.model.name}): container does not fit"
            )
        self.placed.append(item)
        self._used_cpu += cpu
        self._used_memory += memory
        self._refresh()

    def remove(self, item: PlacedContainer) -> None:
        self.placed.remove(item)
        self._used_cpu -= item.cpu
        self._used_memory -= item.memory
        self._refresh()

    def shrunk_model(self) -> VmModel:
        """The cheapest catalog model that still holds this VM's load."""
        if self.is_empty:
            raise CapacityError(f"{self.name} is empty; return it instead")
        return cheapest_fitting(self.used_cpu, self.used_memory)

    def clone(self) -> "BoughtVm":
        copy = BoughtVm(self.model, name=self.name)
        copy.placed = list(self.placed)
        copy._used_cpu = self._used_cpu
        copy._used_memory = self._used_memory
        copy._refresh()
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<BoughtVm {self.name} {self.model.name} "
            f"cpu {self.used_cpu:.3f}/{self.model.cpu_rel:.3f} "
            f"containers={len(self.placed)}>"
        )


def total_cost(vms: t.Iterable[BoughtVm]) -> float:
    """Hourly cost of a set of bought VMs."""
    return sum(vm.model.price_per_h for vm in vms)
