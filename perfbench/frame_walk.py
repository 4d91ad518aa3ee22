"""frame-walk: concrete frames through bridges, netfilter and devices.

One op is one ``backend.send(ForwardingEngine, ...)`` of a 64 B or
1400 B frame, in either direction, for each registered backend.  Warm
frames go through a testbed that has already carried traffic both ways;
cold frames are the first frame on a freshly attached testbed, so they
pay ARP and flooding.  Fresh testbeds are built before each round,
outside the timed ops.

Output check: every frame is delivered along the hop list recorded for
its ``backend/direction/cold|warm`` in ``expected.json``.
"""

from __future__ import annotations

import json
import time
import typing as t

from repro.core.testbed import default_testbed
from repro.net.forwarding import ForwardingEngine
from repro.netstack import registry

from plans import FrameOp, frame_ops
from stats import BaseWorkload, Layers, OpLedger

SIZES = (64, 1400)
#: Warm sends per cold send of each (backend, size, direction).
WARM_PER_COLD = 9


def _hop_key(op: FrameOp) -> str:
    direction = "rev" if op.reverse else "fwd"
    state = "cold" if op.cold else "warm"
    return f"{op.backend}/{direction}/{state}"


def _attached(backend: str) -> tuple[t.Any, t.Any, ForwardingEngine]:
    module = registry.backend(backend)
    tb = default_testbed(seed=0, vms=2)
    return module, module.attach(tb), ForwardingEngine()


class Workload(BaseWorkload):
    def __init__(self, seed: int, expected: dict[str, t.Any]) -> None:
        self.seed = seed
        self.expected: dict[str, list[str]] = expected.get("hops", {})
        self.backends = registry.backend_names()
        self.ops = frame_ops(seed, self.backends, SIZES, WARM_PER_COLD)
        self.warm: dict[str, tuple] = {}
        self.seen: dict[str, list[str]] = {}

    def prepare(self) -> None:
        """Attach every backend and send both ways until it is warm."""
        self.warm = {}
        for backend in self.backends:
            module, ep, engine = _attached(backend)
            for reverse in (False, True, False, True):
                module.send(engine, ep, payload_bytes=64, reverse=reverse)
            self.warm[backend] = (module, ep, engine)

    def _check(self, op: FrameOp, delivery: t.Any) -> str | None:
        key = _hop_key(op)
        hops = list(delivery.hops)
        self.seen.setdefault(key, hops)
        if not delivery.delivered:
            return f"check:{key} frame not delivered"
        if key in self.expected and hops != self.expected[key]:
            return f"check:{key} hops {hops} != expected"
        if key not in self.expected and hops != self.seen[key]:
            return f"check:{key} hops changed within the run"
        return None

    def window(self, seconds: float, ledger: OpLedger,
               layers: Layers | None) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            cold = [_attached(op.backend) if op.cold else None
                    for op in self.ops]
            started = time.perf_counter()
            for op, fresh in zip(self.ops, cold):
                module, ep, engine = fresh or self.warm[op.backend]
                send = (lambda m=module, e=engine, p=ep, o=op: m.send(
                    e, p, payload_bytes=o.payload_bytes, reverse=o.reverse))
                if layers is not None:
                    name = ("net.forwarding.cold_frame_s" if op.cold else
                            f"net.forwarding.{op.backend}.frame_s")
                    send = (lambda f=send, n=name: layers.timed(n, f))
                delivery = ledger.run_op(
                    send, lambda d, o=op: self._check(o, d))
                if layers is not None and delivery is not None:
                    layers.add("net.forwarding.hops", len(delivery.hops))
                    layers.add("net.forwarding.flooded",
                               float(delivery.flooded_ports > 0))
            ledger.add_round(time.perf_counter() - started)

    def describe(self) -> list[str]:
        cold = sum(op.cold for op in self.ops)
        return [
            f"{len(self.ops)} frames/round, {cold} cold "
            f"({cold / len(self.ops):.0%}), sizes {SIZES}",
            f"hop lists checked against {len(self.expected)} recorded "
            f"backend/direction/state entries",
        ] + [f"unrecorded hop list {key}: {json.dumps(hops)}"
             for key, hops in sorted(self.seen.items())
             if key not in self.expected]

    def layer_metrics(self, layers: Layers) -> dict[str, tuple[float, int]]:
        values = {
            f"net.forwarding.{b}.frame_us": (
                layers.mean(f"net.forwarding.{b}.frame_s") * 1e6,
                layers.count(f"net.forwarding.{b}.frame_s"))
            for b in self.backends
        }
        values["net.forwarding.cold_frame_us"] = (
            layers.mean("net.forwarding.cold_frame_s") * 1e6,
            layers.count("net.forwarding.cold_frame_s"))
        values["net.forwarding.hops_per_frame"] = (
            layers.mean("net.forwarding.hops"),
            layers.count("net.forwarding.hops"))
        values["net.forwarding.flood_ratio"] = (
            layers.mean("net.forwarding.flooded"),
            layers.count("net.forwarding.flooded"))
        return values
