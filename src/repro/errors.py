"""Exception hierarchy for the :mod:`repro` package.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch one type at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly (e.g. running a
    finished environment, or a process yielded a non-event)."""


class ConfigurationError(ReproError):
    """An experiment, workload or cost-model configuration is invalid."""


class TopologyError(ReproError):
    """The network topology is inconsistent (unknown device, duplicate
    attachment, no route between endpoints, ...)."""


class AddressExhaustedError(TopologyError):
    """An address allocator ran out of MAC/IP addresses."""


class SchedulingError(ReproError):
    """The orchestrator or the cost simulation could not place a pod."""


class CapacityError(SchedulingError):
    """A pod or container does not fit on any available machine."""


class HotplugError(ReproError):
    """The VMM could not hot-plug or hot-unplug a device.

    Carries the failing VM and device identifier when known so recovery
    code (and humans reading traces) can tell *which* hot-plug failed.
    ``retryable=False`` marks deterministic failures — e.g. an exhausted
    vNIC budget — that retrying cannot fix; recovery should fall back
    immediately instead of burning its retry budget.
    """

    def __init__(self, message: str, *, vm: str | None = None,
                 device: str | None = None, retryable: bool = True) -> None:
        super().__init__(message)
        self.vm = vm
        self.device = device
        self.retryable = retryable

    def __str__(self) -> str:
        base = super().__str__()
        context = ", ".join(
            f"{key}={value}" for key, value in
            (("vm", self.vm), ("device", self.device)) if value is not None
        )
        return f"{base} [{context}]" if context else base


class ContainerError(ReproError):
    """Container engine failure (unknown image, duplicate name, ...)."""


class FaultInjectionError(ReproError):
    """A fault plan or injector was misconfigured (unknown fault kind,
    bad probability/window, malformed plan file)."""


class RecoveryExhaustedError(ReproError):
    """Every recovery avenue for an operation failed: retries ran out
    and no fallback applied (or the fallback itself failed)."""


class CampaignError(ReproError):
    """The campaign layer (parallel experiment runner) failed."""


class JobFailedError(CampaignError):
    """A job failed in a worker: ``reason`` is ``"crash"``,
    ``"timeout"``, ``"exception"`` (deterministic, in the job) or
    ``"aborted"`` (killed from outside).

    The campaign pool and the service's executors raise it; it carries
    the job label so the campaign report — and CI logs — can say
    *which* job died and why.
    """

    def __init__(self, message: str, *, job: str | None = None,
                 reason: str | None = None) -> None:
        super().__init__(message)
        self.job = job
        self.reason = reason


class PerfRegressionError(CampaignError):
    """A benchmark report regressed past the allowed threshold against
    the committed baseline (see :func:`repro.campaign.bench.compare`)."""


class ServiceError(ReproError):
    """The long-lived trace service was used incorrectly (unknown job,
    bad submission payload, operation on a closed service)."""


class AdmissionError(ServiceError):
    """The service refused a submission: the queue is at capacity, the
    client is over quota, or load shedding kicked in.

    Maps to HTTP 429; ``retry_after_s`` is the server's backoff hint
    (the ``Retry-After`` header) and ``reason`` says which limit hit —
    ``"capacity"`` (global backlog bound), ``"quota"`` (per-client),
    ``"deadline"`` (the client's deadline cannot be met at current
    queue depth) or ``"breaker"`` (the target shard's circuit breaker
    is open).
    """

    def __init__(self, message: str, *, reason: str = "capacity",
                 retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s


class ServiceUnavailableError(ServiceError):
    """The service is draining (graceful shutdown): no new work is
    admitted, in-flight jobs are finishing.

    Maps to HTTP 503 + ``Retry-After``; unlike :class:`AdmissionError`
    this is not load-dependent — the instance is going away and the
    client should retry against whatever replaces it.
    """

    def __init__(self, message: str, *, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
