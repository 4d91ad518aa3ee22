"""Deterministic discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: an
:class:`~repro.sim.engine.Environment` owns a simulated clock and an
event heap; *processes* are Python generators that ``yield`` events
(timeouts, store gets, CPU work items) and are resumed when those events
trigger.

The kernel is deliberately minimal but complete for this project:

* :class:`Environment` — clock, event heap, ``run``/``step``.
* :class:`Event`, :class:`Timeout`, :class:`Process`, :class:`AnyOf`,
  :class:`AllOf` — waitables.
* :class:`Store` — FIFO message queue between processes.
* :class:`CpuResource` — a multi-core CPU with cycle-accurate FIFO
  service and per-account busy-time bookkeeping (``usr``/``sys``/
  ``soft``/``guest`` breakdowns in the experiments are produced here).
* :class:`RngRegistry` — named, reproducible ``numpy`` random streams.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ["Environment"],
    ".events": ["AllOf", "AnyOf", "Event", "Interrupt", "Process", "Timeout"],
    ".resources": ["CpuResource", "Store"],
    ".rng": ["RngRegistry"],
})
