"""Experiment scaling knobs.

The paper ran 20-second netperf streams and 100 boot repetitions on
real hardware; the simulator reproduces the same shapes at configurable
scale.  ``quick`` keeps CI and the test suite fast; ``default``
is used to produce EXPERIMENTS.md; ``full`` approaches the paper's
sample counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.errors import ConfigurationError

#: Message sizes swept by the paper's netperf figures.
FULL_MESSAGE_SIZES = (64, 256, 512, 1024, 1280, 2048, 4096, 8192, 16384)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Scale parameters shared by all experiments."""

    seed: int = 2019
    stream_duration_s: float = 0.02
    stream_window: int = 128
    rr_transactions: int = 200
    message_sizes: tuple[int, ...] = (64, 1024, 1280, 4096, 16384)
    macro_duration_s: float = 0.03
    memtier_threads: int = 4
    memtier_connections_per_thread: int = 50
    wrk2_rate_per_s: float = 10_000.0
    wrk2_connections: int = 100
    boot_runs: int = 100
    trace_users: int = 492
    #: Path to a JSON fault plan for the ``chaos`` and ``reliability``
    #: experiments (``--faults PLAN.json``); ``None`` runs the
    #: built-in scenarios.
    fault_plan: str | None = None
    #: ``link.loss`` probabilities swept by the ``reliability``
    #: experiment's goodput-vs-loss curve.
    loss_rates: tuple[float, ...] = (0.0, 0.02, 0.05, 0.10)
    #: Messages per reliability lane and the ARQ window size.
    arq_messages: int = 120
    arq_window: int = 16
    #: ``--reliable``: restrict the reliability experiment to its
    #: ARQ lane (skip the raw, fail-silent baseline lane).
    reliable: bool = False
    #: ``--health``: run the invariant checks inside supporting
    #: experiments and report violation counts.
    health: bool = False
    #: Health watchdog period (simulated seconds).
    health_interval_s: float = 2.0e-3
    #: Fat-tree arity for the ``fabric`` experiment (even, >= 4).
    fabric_k: int = 4
    #: Hosts cabled under each edge switch (1 .. k/2).
    fabric_hosts_per_edge: int = 2
    #: Distinct flows driven per fabric lane.
    fabric_flows: int = 24
    #: Frames sent per flow.
    fabric_frames: int = 30
    #: Switch uplink tx-queue capacity for the incast lane.
    fabric_queue_capacity: int = 24
    #: ``--backend``: which network-stack backend the ``netstack``
    #: experiment sweeps — a ``repro.netstack`` registry name, or
    #: ``"all"`` for the full comparison matrix.
    netstack_backend: str = "all"
    #: Frames driven per netstack frame-fidelity lane.
    netstack_frames: int = 40
    #: Loss probability for the netstack faulted and ARQ lanes.
    netstack_loss: float = 0.08
    #: Worker shards for the ``service`` experiment's live instance.
    service_shards: int = 2
    #: Concurrent HTTP clients driven against the live service.
    service_clients: int = 8
    #: Jobs each client submits during the mixed-load lane.
    service_jobs_per_client: int = 3
    #: Users per streaming-trace job the service lanes submit.
    service_trace_users: int = 50_000
    #: Executor for the mixed-load lane (``thread`` or ``spawn``; the
    #: crash-recovery lane always exercises ``spawn`` regardless).
    service_executor: str = "thread"

    def __post_init__(self) -> None:
        if self.stream_duration_s <= 0 or self.macro_duration_s <= 0:
            raise ConfigurationError("durations must be positive")
        if self.rr_transactions < 2 or self.boot_runs < 2:
            raise ConfigurationError("need at least two samples")
        if not self.message_sizes:
            raise ConfigurationError("need at least one message size")
        if len(set(self.message_sizes)) != len(self.message_sizes):
            # Figures read rows back by (mode, size), one row per pair.
            raise ConfigurationError("message sizes must be distinct")
        if not self.loss_rates or any(
                not 0.0 <= p <= 1.0 for p in self.loss_rates):
            raise ConfigurationError(
                "loss_rates must be non-empty probabilities in [0, 1]"
            )
        if self.arq_messages < 1 or self.arq_window < 1:
            raise ConfigurationError(
                "arq_messages and arq_window must be >= 1"
            )
        if self.health_interval_s <= 0:
            raise ConfigurationError("health_interval_s must be positive")
        if self.fabric_k < 4 or self.fabric_k % 2:
            raise ConfigurationError("fabric_k must be even and >= 4")
        if not 1 <= self.fabric_hosts_per_edge <= self.fabric_k // 2:
            raise ConfigurationError(
                "fabric_hosts_per_edge must be in [1, fabric_k/2]"
            )
        if self.fabric_flows < 1 or self.fabric_frames < 1:
            raise ConfigurationError(
                "fabric_flows and fabric_frames must be >= 1"
            )
        if self.fabric_queue_capacity < 1:
            raise ConfigurationError("fabric_queue_capacity must be >= 1")
        if self.netstack_frames < 1:
            raise ConfigurationError("netstack_frames must be >= 1")
        if not 0.0 <= self.netstack_loss <= 1.0:
            raise ConfigurationError(
                "netstack_loss must be a probability in [0, 1]"
            )
        if (self.service_shards < 1 or self.service_clients < 1
                or self.service_jobs_per_client < 1
                or self.service_trace_users < 1):
            raise ConfigurationError(
                "service_shards, service_clients, service_jobs_per_client "
                "and service_trace_users must be >= 1"
            )
        if self.service_executor not in ("thread", "spawn"):
            raise ConfigurationError(
                f"service_executor must be 'thread' or 'spawn': "
                f"{self.service_executor!r}"
            )
        if self.netstack_backend != "all":
            # Imported lazily so building a config never pays for the
            # backend registry; unknown names raise the registry's
            # ConfigurationError listing every registered backend.
            from repro.netstack import backend

            backend(self.netstack_backend)

    def fingerprint(self) -> str:
        """A short stable hash of the resolved configuration.

        Two configs fingerprint equal iff every field is equal, so the
        value keys the campaign result cache and lets a serial run and
        a campaign run be matched in reports.
        """
        payload = json.dumps(
            dataclasses.asdict(self), sort_keys=True, default=str
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    @classmethod
    def preset(cls, name: str) -> "ExperimentConfig":
        """``quick`` | ``default`` | ``full``."""
        if name == "quick":
            return cls(
                stream_duration_s=0.008,
                rr_transactions=60,
                message_sizes=(1024, 1280),
                macro_duration_s=0.01,
                memtier_threads=2,
                memtier_connections_per_thread=10,
                wrk2_rate_per_s=4_000.0,
                wrk2_connections=40,
                boot_runs=30,
                trace_users=120,
                loss_rates=(0.0, 0.05),
                arq_messages=40,
                fabric_flows=12,
                fabric_frames=12,
                netstack_frames=16,
                service_jobs_per_client=3,
                service_trace_users=10_000,
            )
        if name == "default":
            return cls()
        if name == "full":
            return cls(
                stream_duration_s=0.05,
                rr_transactions=600,
                message_sizes=FULL_MESSAGE_SIZES,
                macro_duration_s=0.06,
                boot_runs=100,
                trace_users=492,
                loss_rates=(0.0, 0.01, 0.02, 0.05, 0.10, 0.20),
                arq_messages=400,
                fabric_flows=64,
                fabric_frames=60,
                netstack_frames=120,
                service_clients=12,
                service_jobs_per_client=4,
                service_trace_users=1_000_000,
            )
        raise ConfigurationError(f"unknown preset {name!r}")
