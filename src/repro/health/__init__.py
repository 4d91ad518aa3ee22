"""Runtime health: topology invariants and the watchdog process.

The simulator's layers each maintain wiring invariants (a device lives
in exactly one namespace, a bridge's FDB only references its ports, a
hostlo queue always has a live consumer) and accounting invariants
(every injected frame is delivered or sits in exactly one labelled
drop bucket).  Under chaos — crashes, partitions, stalls, evictions —
a bug in any teardown path silently violates them.

* :mod:`repro.health.invariants` — pure check functions over a
  :class:`HealthScope` (the set of namespaces/engines/reports to
  audit), each returning :class:`Violation` records.
* :mod:`repro.health.violation` — the :class:`Violation` record alone,
  importable without the network stack the checks audit.
* :mod:`repro.health.monitor` — :class:`HealthMonitor`, a simulation
  process that runs the checks periodically, reports through
  ``repro.obs`` and evicts wedged hostlo queues through the
  orchestrator's recovery machinery.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".invariants": [
        "ALL_CHECKS", "HealthScope", "check_bridge_consistency",
        "check_capture_conservation", "check_device_wiring",
        "check_fabric_consistency", "check_frame_conservation",
        "check_hostlo_liveness", "check_leaked_devices", "run_checks",
        "stalled_hostlo_queues",
    ],
    ".monitor": ["HealthMonitor"],
    ".violation": ["Violation"],
})
