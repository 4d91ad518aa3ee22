"""netperf-grid: the fig 4 / fig 10 path, one cell per op.

A cell builds a fresh ``default_testbed``, attaches one registered
network-stack backend, resolves its forward, reverse and ACK paths,
streams ``STREAM_MSGS`` messages from ``WINDOW`` in-flight processes
(``stream=True``, contended ``CpuResource`` queues), then runs
``RR_TXNS`` uncontended request/response transactions (the idle-core
path).  Every transfer goes through ``TransferEngine.transfer`` with the
backend's ``cost_model``.  Cells cover every backend x message size and
cycle in a seeded order; one pass over all cells is a round.

Output checks, per cell:

* the first transaction's simulated round trip equals
  ``latency_estimate(forward) + latency_estimate(reverse)``;
* the streamed rate does not exceed the capacity of the busiest CPU
  domain, counting all of that domain's cores (see NOTES.md for why
  this is not ``bottleneck_rate``);
* the simulated results equal the warm-up round's, and the round digest
  equals the one recorded for this seed, when there is one.
"""

from __future__ import annotations

import hashlib
import time
import typing as t

from repro.core.testbed import default_testbed
from repro.netstack import registry
from repro.sim import AllOf
from repro.workloads.netperf import ACK_BYTES, ACK_EVERY

from plans import cell_order
from stats import BaseWorkload, Layers, OpLedger, timer

SIZES = (64, 1280, 16384)
WINDOW = 8
STREAM_MSGS = 192
RR_TXNS = 40
#: Relative tolerance of the closed-form round-trip check.
RTT_TOLERANCE = 1e-9


def _drive(env: t.Any, until: t.Any, layers: Layers | None) -> None:
    """Run *env* until *until* is processed; traced runs count steps."""
    if layers is None:
        env.run(until=until)
        return
    steps = 0
    started = time.perf_counter()
    while not until.processed:
        env.step()
        steps += 1
    layers.add("sim.step_s", time.perf_counter() - started, steps)


def _count_cpu_jobs(engine: t.Any) -> dict[str, list]:
    """Count ``CpuResource.execute`` calls per domain of *engine*.

    Wraps ``execute`` on each CPU the engine hands out, including the
    kernel-thread and softirq CPUs it creates on first use.
    """
    seen: dict[str, list] = {}
    lookup = engine.cpu

    def cpu(domain: str) -> t.Any:
        res = lookup(domain)
        if domain not in seen:
            calls = [res, 0]
            execute = res.execute

            def counted(*args: t.Any, **kwargs: t.Any) -> t.Any:
                calls[1] += 1
                return execute(*args, **kwargs)

            res.execute = counted
            seen[domain] = calls
        return res

    engine.cpu = cpu
    return seen


def _capacity_rate(engine: t.Any, path: t.Any, nbytes: int,
                   model: t.Any) -> float:
    """Messages/s the busiest domain can serve with all of its cores."""
    segments = path.segments_for(nbytes)
    cycles: dict[str, float] = {}
    for st in path.stages:
        cost = model[st.stage]
        packets = 1 if cost.per_message else segments
        cycles[st.domain] = cycles.get(st.domain, 0.0) + cost.cycles(
            packets, nbytes, batched=True) * st.multiplier
    return min(
        engine.cpu(d).cores * engine.cpu(d).freq_hz / c
        for d, c in cycles.items() if c > 0.0
    )


def run_cell(backend: str, size: int, seed: int,
             layers: Layers | None = None) -> dict[str, t.Any]:
    """One cell; returns its simulated results and check inputs."""
    module = registry.backend(backend)
    timed = timer(layers)
    tb = timed("core.testbed_build_s", default_testbed, seed=seed, vms=2)
    ep = timed("netstack.attach_s", module.attach, tb)
    started = time.perf_counter()
    fwd = module.resolve(ep)
    rev = module.resolve(ep, reverse=True)
    ack = module.ack_path(ep)
    if layers is not None:
        layers.add("netstack.resolve_s", time.perf_counter() - started)
        layers.add("net.transfer.stages", len(fwd.stages))
    env, engine = tb.env, tb.engine
    jobs = _count_cpu_jobs(engine) if layers is not None else None
    model = module.cost_model(engine.cost_model)

    def streamer(index: int, count: int) -> t.Generator:
        sent = index
        for _ in range(count):
            yield from engine.transfer(fwd, size, stream=True,
                                       cost_model=model)
            sent += 1
            if sent % ACK_EVERY == 0:
                yield from engine.transfer(ack, ACK_BYTES, stream=True,
                                           cost_model=model)

    def requester(out: list[float]) -> t.Generator:
        for _ in range(RR_TXNS):
            begun = env.now
            yield from engine.transfer(fwd, size, cost_model=model)
            yield from engine.transfer(rev, size, cost_model=model)
            out.append(env.now - begun)

    began, started = env.now, time.perf_counter()
    procs = [env.process(streamer(i, STREAM_MSGS // WINDOW))
             for i in range(WINDOW)]
    _drive(env, AllOf(env, procs), layers)
    stream_s = env.now - began
    if layers is not None:
        layers.add("net.transfer.stream_s", time.perf_counter() - started,
                   STREAM_MSGS)
    rtts: list[float] = []
    started = time.perf_counter()
    _drive(env, env.process(requester(rtts)), layers)
    if layers is not None:
        layers.add("net.transfer.rr_s", time.perf_counter() - started,
                   RR_TXNS)
        n_jobs = sum(calls for _cpu, calls in jobs.values())
        wait = sum(cpu.mean_wait() * calls for cpu, calls in jobs.values())
        layers.add("sim.cpu_jobs", n_jobs)
        layers.add("sim.cpu_wait_s", wait, n_jobs)
    return {
        "stream_s": stream_s,
        "rtts": tuple(rtts),
        "estimate_s": (engine.latency_estimate(fwd, size, cost_model=model)
                       + engine.latency_estimate(rev, size, cost_model=model)),
        "capacity": _capacity_rate(engine, fwd, size, model),
        "bottleneck": engine.bottleneck_rate(fwd, size, cost_model=model),
    }


def check_cell(cell: dict[str, t.Any]) -> str | None:
    """The closed-form checks; returns a failure reason or ``None``."""
    rtt, estimate = cell["rtts"][0], cell["estimate_s"]
    if abs(rtt - estimate) > RTT_TOLERANCE * estimate:
        return f"check:rtt {rtt!r} != estimate {estimate!r}"
    rate = STREAM_MSGS / cell["stream_s"]
    if rate > cell["capacity"] * (1 + RTT_TOLERANCE):
        return f"check:stream rate {rate!r} > capacity {cell['capacity']!r}"
    return None


def _result_key(cell: dict[str, t.Any]) -> tuple:
    return (cell["stream_s"], cell["rtts"])


class Workload(BaseWorkload):
    def __init__(self, seed: int, expected: dict[str, t.Any]) -> None:
        self.seed = seed
        self.expected = expected.get("digests", {}).get(str(seed))
        self.cells = cell_order(seed, registry.backend_names(), SIZES)
        self.reference: dict[tuple[str, int], tuple] = {}
        self.ledgers: list[OpLedger] = []
        self.rate_over_bottleneck = 0.0

    def _round_digest(self) -> str:
        h = hashlib.sha256()
        for cell in self.cells:
            h.update(repr((cell, self.reference[cell])).encode())
        return h.hexdigest()[:16]

    def prepare(self) -> None:
        """Warm up with one full round; its results are the reference."""
        self.reference = {}
        for backend, size in self.cells:
            cell = run_cell(backend, size, self.seed)
            self.reference[(backend, size)] = _result_key(cell)
            self.rate_over_bottleneck = max(
                self.rate_over_bottleneck,
                STREAM_MSGS / cell["stream_s"] / cell["bottleneck"])

    def window(self, seconds: float, ledger: OpLedger,
               layers: Layers | None) -> None:
        self.ledgers.append(ledger)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            started = time.perf_counter()
            for backend, size in self.cells:
                def check(cell: dict, key=(backend, size)) -> str | None:
                    if _result_key(cell) != self.reference[key]:
                        return f"check:cell {key} differs from warm-up"
                    return check_cell(cell)

                ledger.run_op(
                    lambda b=backend, s=size: run_cell(b, s, self.seed,
                                                       layers),
                    check)
            ledger.add_round(time.perf_counter() - started)

    def finish(self) -> None:
        if self.expected is not None and self._round_digest() != self.expected:
            self.ledgers[0].fail("check:round digest differs from the "
                                 "recorded one for this seed")

    def describe(self) -> list[str]:
        recorded = ("checked against the recorded digest" if self.expected
                    else "no recorded digest for this seed")
        return [
            f"{len(self.cells)} cells/round, {STREAM_MSGS} streamed msgs "
            f"(window {WINDOW}) + {RR_TXNS} rr txns per cell",
            f"round digest {self._round_digest()} ({recorded})",
            f"max streamed rate / bottleneck_rate: "
            f"{self.rate_over_bottleneck:.4f}",
        ]

    def layer_metrics(self, layers: Layers) -> dict[str, tuple[float, int]]:
        cells = layers.count("core.testbed_build_s")
        steps = layers.count("sim.step_s")
        jobs = layers.total("sim.cpu_jobs")
        return {
            "sim.events_per_op": (steps / cells, cells),
            "sim.host_us_per_event": (layers.mean("sim.step_s") * 1e6, steps),
            "sim.cpu_jobs_per_op": (jobs / cells, cells),
            "sim.cpu_mean_wait_us": (layers.mean("sim.cpu_wait_s") * 1e6,
                                     int(jobs)),
            "net.transfer.stream_us_per_msg": (
                layers.mean("net.transfer.stream_s") * 1e6,
                layers.count("net.transfer.stream_s")),
            "net.transfer.rr_us_per_txn": (
                layers.mean("net.transfer.rr_s") * 1e6,
                layers.count("net.transfer.rr_s")),
            "net.transfer.stages_per_msg": (
                layers.mean("net.transfer.stages"), cells),
            "net.transfer.rate_over_bottleneck": (
                self.rate_over_bottleneck, len(self.cells)),
            "core.testbed_build_ms": (
                layers.mean("core.testbed_build_s") * 1e3, cells),
            "netstack.attach_ms": (
                layers.mean("netstack.attach_s") * 1e3, cells),
            "netstack.resolve_ms": (
                layers.mean("netstack.resolve_s") * 1e3, cells),
        }
