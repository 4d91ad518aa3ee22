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

from repro.core import Scenario, Testbed, build_scenario
from repro.core.testbed import default_testbed
from repro.errors import ReproError
from repro.harness import ExperimentConfig, ExperimentResult, run_experiment

__version__ = "1.0.0"

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ReproError",
    "Scenario",
    "Testbed",
    "build_scenario",
    "default_testbed",
    "run_experiment",
    "__version__",
]
