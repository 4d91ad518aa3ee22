"""Campaign specs: experiments × presets × seeds → independent jobs.

A :class:`CampaignSpec` is the declarative description of an
evaluation sweep; :meth:`CampaignSpec.expand` turns it into a flat
tuple of :class:`JobSpec` — one fully resolved, deterministic unit of
work each.  Jobs carry everything a worker process needs (experiment
id + a resolved :class:`~repro.harness.config.ExperimentConfig`), so
they are independent of one another and of expansion order: the pool
may run them in any interleaving and the runner still collects results
in spec order.

Every job has a **stable key** (``fig04@quick#s2019``) that names it
across processes and sessions — progress lines, the result cache, the
benchmark report and the merged trace all speak in job keys.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import ConfigurationError
from repro.harness.config import ExperimentConfig


def experiment_key(experiment: str, preset: str, seed: int) -> str:
    """The stable job name: ``<experiment>@<preset>#s<seed>``."""
    return f"{experiment}@{preset}#s{seed}"


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One unit of campaign work: run *experiment* under *config*."""

    experiment: str
    preset: str
    seed: int
    config: ExperimentConfig

    @property
    def key(self) -> str:
        return experiment_key(self.experiment, self.preset, self.seed)


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """What to sweep: the cross product of the three axes.

    ``seeds=()`` (the default) means "the preset's own seed" — one job
    per experiment × preset.  ``fault_plan`` is threaded into every
    job's config (it only affects the ``chaos`` experiment, matching
    the serial CLI).
    """

    experiments: tuple[str, ...]
    presets: tuple[str, ...] = ("default",)
    seeds: tuple[int, ...] = ()
    fault_plan: str | None = None

    def __post_init__(self) -> None:
        if not self.experiments:
            raise ConfigurationError("campaign needs at least one experiment")
        if not self.presets:
            raise ConfigurationError("campaign needs at least one preset")
        for axis_name, axis in (("experiments", self.experiments),
                                ("presets", self.presets),
                                ("seeds", self.seeds)):
            if len(set(axis)) != len(axis):
                raise ConfigurationError(
                    f"campaign {axis_name} contain duplicates: {axis}"
                )

    def expand(self) -> tuple[JobSpec, ...]:
        """The jobs, in (preset, seed, experiment) order.

        Unknown experiment ids and presets fail here, before any
        worker is spawned.
        """
        # Local import: the registry's `campaign` experiment reaches
        # back into this package, so the dependency must not be at
        # module import time.
        from repro.harness.registry import EXPERIMENTS

        unknown = [e for e in self.experiments if e not in EXPERIMENTS]
        if unknown:
            raise ConfigurationError(
                f"unknown experiments {unknown} (have: {sorted(EXPERIMENTS)})"
            )
        jobs: list[JobSpec] = []
        for preset in self.presets:
            base = ExperimentConfig.preset(preset)
            if self.fault_plan is not None:
                base = dataclasses.replace(base, fault_plan=self.fault_plan)
            for seed in self.seeds or (base.seed,):
                config = dataclasses.replace(base, seed=seed)
                for experiment in self.experiments:
                    jobs.append(JobSpec(experiment, preset, seed, config))
        return tuple(jobs)


def job_index(jobs: t.Sequence[JobSpec]) -> dict[str, JobSpec]:
    """Jobs by key, rejecting collisions (a spec bug if it happens)."""
    by_key: dict[str, JobSpec] = {}
    for job in jobs:
        if job.key in by_key:
            raise ConfigurationError(f"duplicate job key {job.key!r}")
        by_key[job.key] = job
    return by_key
