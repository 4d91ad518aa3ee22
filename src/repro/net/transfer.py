"""Execute resolved datapaths on the discrete-event engine.

The :class:`TransferEngine` owns the mapping from CPU *domains*
(``"host"``, ``"vm:xyz"``, ``"client"``) to
:class:`~repro.sim.CpuResource` pools and plays a message through a
:class:`~repro.net.path.Datapath`: every stage charges its cycles to
the right CPU under the right account, and deferral points add their
wakeup latency.

Contention is emergent: when several in-flight messages (a TCP stream
window, or concurrent clients) hit the same CPU, they queue, and the
busiest stage becomes the throughput bottleneck — exactly the mechanism
behind the paper's fig 4/fig 10 curves.
"""

from __future__ import annotations

import dataclasses
import typing as t
from heapq import heappush

from repro.errors import ConfigurationError
from repro.net.costs import CostModel
from repro.net.path import Datapath
from repro.obs import metrics as _active_metrics
from repro.sim import CpuResource, Environment, Event
from repro.sim.events import NORMAL

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.net.arq import ReliableTransfer

#: Stage plans an engine memoises before it starts over (ARQ builds a
#: new truncated path for every lost ACK).
_PLAN_MEMO_SIZE = 256


def stage_plan(path: Datapath, nbytes: int, batched: bool,
               model: CostModel) -> tuple[tuple, ...]:
    """``(stage, domain, label, account, cycles, wakeup_s)`` per stage.

    Domains stay names, so planning creates no lazy kernel-thread CPU.
    """
    segments = path.segments_for(nbytes)
    plan = []
    for st in path.stages:
        cost = model[st.stage]
        packets = 1 if cost.per_message else segments
        cycles = cost.cycles(packets, nbytes, batched=batched) * st.multiplier
        wakeup = cost.wakeup_s
        if batched and cost.batch_factor > 1.0:
            # Under back-to-back traffic, interrupt coalescing and NAPI
            # polling amortise the deferral as they amortise the cycles.
            wakeup = wakeup / cost.batch_factor
        plan.append(
            (st.stage, st.domain, st.label, cost.account, cycles, wakeup))
    return tuple(plan)


@dataclasses.dataclass(frozen=True)
class StageTiming:
    """One stage's slice of a traced message timeline."""

    stage: str
    domain: str
    label: str
    started_at: float
    cpu_done_at: float
    finished_at: float
    cycles: float

    @property
    def service_s(self) -> float:
        return self.cpu_done_at - self.started_at

    @property
    def deferral_s(self) -> float:
        return self.finished_at - self.cpu_done_at


class _StageWalker:
    """Carries one message along its stage plan on callbacks.

    The walker is its own CPU job for each stage (see
    :meth:`CpuResource.execute`): it carries the job's fields, waits in
    the CPU's queue and is the heap entry while in service, so a stage
    allocates nothing.  It is also its own heap entry for each wakeup,
    so a stage costs no process resume, generator step or event.  When
    the last stage completes it runs its waiter's callbacks inline: the
    sending process resumes at the same point of the ``(time, priority,
    seq)`` order as it would have stepping through the stages itself.
    It has the attributes :meth:`Environment.step` reads from an event;
    traced runs name it ``Timeout``, as the service timeouts and wakeup
    timeouts it stands in for, except for a pushed CPU completion
    (:meth:`push_cpu_done`), named ``Event``.
    """

    __slots__ = ("callbacks", "step_name", "engine", "env", "plan", "pos",
                 "waiter", "timings", "recording", "started", "cpu_done_at",
                 "tracer", "parent", "span", "queue_depth",
                 "cycles", "account", "enqueued_at", "started_at")

    _ok = True

    def __init__(self, engine: "TransferEngine", path: Datapath, nbytes: int,
                 stream: bool, plan: tuple[tuple, ...],
                 timings: list[StageTiming] | None) -> None:
        self.engine = engine
        self.env = env = engine.env
        self.plan = plan
        self.pos = 0
        self.waiter: Event | None = None
        self.timings = timings
        self.span = None
        self.step_name = "Timeout"
        tracer = env.tracer
        if timings is not None or not tracer.enabled:
            self.tracer = None
            self.recording = timings is not None
            return
        self.tracer = tracer
        self.recording = True
        self.parent = tracer.begin(
            "datapath.transfer", f"{path.src}->{path.dst}",
            nbytes=nbytes, stream=stream, stages=len(path.stages),
            jitter=path.jitter_class,
        )
        self.queue_depth = _active_metrics().gauge(
            "cpu.queue_depth",
            help="jobs waiting per CPU domain, sampled at stage entry",
        )

    def run(self) -> bool:
        """Start stages from ``pos`` until one has to wait.

        Returns False once the message is through.
        """
        plan = self.plan
        env = self.env
        tracer = self.tracer
        while self.pos < len(plan):
            stage, domain, label, account, cycles, wakeup = plan[self.pos]
            if tracer is not None:
                self.span = tracer.begin(
                    "datapath.stage", stage, parent=self.parent,
                    domain=domain, account=account, cycles=cycles,
                    label=label,
                )
                self.queue_depth.set(self.engine.cpu(domain).queue_depth,
                                     domain=domain)
            self.started = env._now
            if cycles > 0.0:
                self.engine.cpu(domain).execute(cycles, account, self)
                return True
            self.cpu_done_at = env._now
            if wakeup > 0.0:
                self._sleep(wakeup)
                return True
            if self.recording:
                self._record()
            self.pos += 1
        if tracer is not None:
            tracer.end(self.parent)
        return False

    def push_cpu_done(self) -> None:
        """Push the CPU completion through the heap, as ``_finish`` does
        when something else is due now or a tracer is on; traced runs
        name the step ``Event`` like the event it stands in for."""
        env = self.env
        self.callbacks = _AFTER_PUSHED_CPU
        self.step_name = "Event"
        heappush(env._heap, (env._now, NORMAL, next(env._seq), self))

    def _after_pushed_cpu(self) -> None:
        self.step_name = "Timeout"
        self.cpu_done()

    def cpu_done(self) -> None:
        """The current stage's CPU job is through: sleep its wakeup or
        go on (``_finish`` calls this inline when nothing else is due)."""
        if self.waiter is None:
            return
        self.cpu_done_at = self.env._now
        wakeup = self.plan[self.pos][5]
        if wakeup > 0.0:
            self._sleep(wakeup)
        else:
            self._next_stage()

    def _sleep(self, wakeup: float) -> None:
        """Push the walker as the stage's wakeup."""
        env = self.env
        self.callbacks = _AFTER_WAKEUP
        heappush(env._heap, (env._now + wakeup, NORMAL, next(env._seq), self))

    def _after_wakeup(self) -> None:
        if self.waiter is not None:
            self._next_stage()

    def abandon(self) -> None:
        """The sender stopped waiting: start no further stage, and end
        the current stage's span and the transfer's span."""
        self.waiter = None
        if self.tracer is not None:
            self.tracer.end(self.span)
            self.tracer.end(self.parent)

    def _record(self) -> None:
        """Close the current stage's timeline entry and span."""
        if self.timings is not None:
            stage, domain, label, _, cycles, _ = self.plan[self.pos]
            self.timings.append(StageTiming(
                stage, domain, label, self.started, self.cpu_done_at,
                self.env._now, cycles))
        if self.span is not None:
            self.tracer.end(self.span)

    def _next_stage(self) -> None:
        """Close the current stage and run the next ones; after the last,
        resume the waiter inline (or throw the error a stage raised)."""
        if self.recording:
            self._record()
        self.pos += 1
        waiter = self.waiter
        try:
            if self.run():
                return
            waiter._value = None
        except Exception as exc:
            waiter._ok = False
            waiter._value = exc
        callbacks = waiter.callbacks
        waiter.callbacks = None
        for callback in callbacks:
            callback(waiter)


_AFTER_PUSHED_CPU = (_StageWalker._after_pushed_cpu,)
_AFTER_WAKEUP = (_StageWalker._after_wakeup,)


class TransferEngine:
    """Plays datapaths on CPUs.

    Parameters
    ----------
    env: the simulation environment.
    cost_model: stage costs (defaults to the calibrated model).
    """

    def __init__(self, env: Environment, cost_model: CostModel | None = None) -> None:
        self.env = env
        self.cost_model = cost_model or CostModel.default()
        self._domains: dict[str, CpuResource] = {}
        # Plans keyed on identity (hashing a frozen Datapath walks its
        # stages); each entry holds its path and model so ids stay unique.
        self._plans: dict[tuple, tuple] = {}

    # -- domain management ---------------------------------------------------
    def register_domain(self, name: str, cpu: CpuResource) -> None:
        """Bind CPU *domain* ``name`` to a CPU pool."""
        if name in self._domains:
            raise ConfigurationError(f"domain {name!r} already registered")
        self._domains[name] = cpu

    def cpu(self, domain: str) -> CpuResource:
        cpu = self._domains.get(domain)
        if cpu is None:
            cores, freq_hz = self.cpu_spec(domain)
            cpu = self._domains[domain] = CpuResource(
                self.env, cores=cores, freq_hz=freq_hz, name=domain)
        return cpu

    def cpu_spec(self, domain: str) -> tuple[int, float]:
        """``(cores, freq_hz)`` of *domain*'s CPU, without creating it.

        Kernel threads (vhost workers, the hostlo handler) and per-guest
        RX softirq contexts are single-core serialization points at the
        cost model's clock; :meth:`cpu` creates them on first use.
        """
        cpu = self._domains.get(domain)
        if cpu is not None:
            return cpu.cores, cpu.freq_hz
        if domain.startswith(("kthread:", "softirq:")):
            return 1, self.cost_model.freq_hz
        raise ConfigurationError(
            f"no CPU registered for domain {domain!r} "
            f"(have: {sorted(self._domains)})"
        )

    def domains(self) -> dict[str, CpuResource]:
        return dict(self._domains)

    def kernel_threads(self) -> dict[str, CpuResource]:
        """The lazily-created host kernel-thread pools (vhost, hostlo).

        Their busy time belongs to the host kernel's ``sys`` share in
        CPU breakdowns — the attribution §5.3.4 discusses.
        """
        return {
            name: cpu
            for name, cpu in self._domains.items()
            if name.startswith("kthread:")
        }

    def softirq_contexts(self) -> dict[str, CpuResource]:
        """Per-guest RX softirq pools; busy time belongs to the guest's
        ``soft`` share (one NAPI context per guest NIC queue)."""
        return {
            name: cpu
            for name, cpu in self._domains.items()
            if name.startswith("softirq:")
        }

    # -- execution -----------------------------------------------------------
    def transfer(
        self, path: Datapath, nbytes: int, stream: bool = False,
        cost_model: CostModel | None = None,
    ) -> t.Generator:
        """Process generator: carry one *nbytes* message along *path*.

        ``stream=True`` enables the batch amortisation of batchable
        stages (back-to-back frames, NAPI polling/GRO); request/response
        traffic must leave it off.  *cost_model* overrides the engine's
        model for this one message — the hook network-stack backends
        use to reprice their stages without a private engine.
        """
        return self._walk(path, nbytes, stream, cost_model, None)

    def _walk(self, path: Datapath, nbytes: int, stream: bool,
              cost_model: CostModel | None,
              timings: list[StageTiming] | None) -> t.Generator:
        """Start a :class:`_StageWalker`; wait once if it cannot finish now.

        With *timings* the walker records a timeline instead of tracer
        spans (:meth:`trace`).
        """
        model = cost_model or self.cost_model
        key = (id(path), id(model), nbytes, stream)
        memo = self._plans.get(key)
        if memo is None:
            if len(self._plans) >= _PLAN_MEMO_SIZE:
                self._plans.clear()
            memo = self._plans[key] = (
                path, model, stage_plan(path, nbytes, stream, model))
        walker = _StageWalker(self, path, nbytes, stream, memo[2], timings)
        try:
            if walker.run():
                walker.waiter = waiter = Event(self.env)
                yield waiter
        except BaseException:
            # A stage's error, or thrown into or closed while waiting
            # (an interrupt): the stages not yet started are abandoned,
            # and a traced walker's open spans end now.
            walker.abandon()
            raise

    def reliable_transfer(
        self, path: Datapath, nbytes: int, messages: int = 1, **kwargs: t.Any
    ) -> "ReliableTransfer":
        """Build an ARQ-protected transfer of *messages* over *path*.

        Convenience constructor for :class:`repro.net.arq.
        ReliableTransfer`; see that class for the keyword knobs
        (``config``, ``rng``, ``ack_path``, ``links``, ``tx_queue``).
        Call ``.start()`` to spawn it alongside other traffic or
        ``.run()`` to drive the simulation until it completes.
        """
        from repro.net.arq import ReliableTransfer

        return ReliableTransfer(
            self, path, nbytes=nbytes, messages=messages, **kwargs
        )

    def round_trip(
        self,
        forward: Datapath,
        reverse: Datapath,
        request_bytes: int,
        response_bytes: int,
    ) -> t.Generator:
        """One synchronous request/response transaction."""
        yield from self.transfer(forward, request_bytes, stream=False)
        yield from self.transfer(reverse, response_bytes, stream=False)

    # -- tracing ----------------------------------------------------------------
    def trace(self, path: Datapath, nbytes: int,
              stream: bool = False,
              cost_model: CostModel | None = None) -> list["StageTiming"]:
        """Run one message *now* and return its per-stage timeline.

        Advances the simulation until the message completes; queueing
        against concurrent traffic shows up as per-stage wait time.
        *cost_model* overrides the engine's model for this trace.
        """
        timings: list[StageTiming] = []
        self.env.run(until=self.env.process(
            self._walk(path, nbytes, stream, cost_model, timings)))
        return timings

    # -- analytics -------------------------------------------------------------
    def stage_seconds(
        self, path: Datapath, nbytes: int, stream: bool = False,
        cost_model: CostModel | None = None,
    ) -> list[tuple[str, float, float]]:
        """``(domain, service_s, wakeup_s)`` per stage of one message.

        The closed form of what :meth:`transfer` plays: each stage's
        cycles over its own domain's clock (:meth:`cpu_spec`, so no
        lazy CPU is created), and its wakeup.
        """
        model = cost_model or self.cost_model
        return [(domain, cycles / self.cpu_spec(domain)[1], wakeup)
                for _, domain, _, _, cycles, wakeup
                in stage_plan(path, nbytes, stream, model)]

    def latency_estimate(
        self, path: Datapath, nbytes: int, stream: bool = False,
        cost_model: CostModel | None = None,
    ) -> float:
        """Uncontended one-way latency (seconds): pure service + wakeups.

        Equals the DES time of one message on idle CPUs; the DES adds
        queueing on top of this.
        """
        total = 0.0
        for _, service, wakeup in self.stage_seconds(
                path, nbytes, stream, cost_model):
            # Two adds, in the order the DES advances its clock.
            total += service
            total += wakeup
        return total

    def bottleneck_rate(self, path: Datapath, nbytes: int,
                        cost_model: CostModel | None = None) -> float:
        """Streaming capacity (messages/s) of the busiest CPU domain.

        Each domain clears ``cores / busy_seconds`` messages per second
        with batchable stages amortised as under streaming; the smallest
        is an upper bound on the rate the DES streams at, however many
        messages are in flight.
        """
        busy: dict[str, float] = {}
        for domain, service, _ in self.stage_seconds(
                path, nbytes, True, cost_model):
            busy[domain] = busy.get(domain, 0.0) + service
        return min((self.cpu_spec(domain)[0] / seconds
                    for domain, seconds in busy.items() if seconds > 0.0),
                   default=float("inf"))
