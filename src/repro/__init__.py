"""Reproduction of *Nested Virtualization Without the Nest* (ICPP 2019).

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.core` — the :class:`Testbed` facade and deployment scenarios.
* :mod:`repro.harness` — one runnable experiment per paper figure/table.
* :mod:`repro.workloads` — netperf, Memcached, NGINX, Kafka drivers.
* :mod:`repro.costsim` / :mod:`repro.traces` — the fig 9 cost study.
* :mod:`repro.net`, :mod:`repro.virt`, :mod:`repro.containers`,
  :mod:`repro.orchestrator` — the simulated substrate.
* :mod:`repro.sim` — the discrete-event kernel everything runs on.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ["Scenario", "Testbed", "build_scenario"],
    ".core.testbed": ["default_testbed"],
    ".errors": ["ReproError"],
    ".harness": ["ExperimentConfig", "ExperimentResult", "run_experiment"],
})
__all__.append("__version__")
