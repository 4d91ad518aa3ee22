"""cost-consolidation: the fig 9 cost simulation, one user per op.

The population is the fig 9 default (``TraceConfig()``: 492 users,
seed 2019).  An op schedules one user with the Kubernetes baseline
(``schedule_user``), consolidates it (``improve_assignment``) and prices
both (``total_cost``) — the calls ``simulate_user`` makes.  A round is
the same user set for every seed, in a seeded order: the median-size
whale, every third large user and every medium and small user.  The whale
sets throughput; small users set the median latency.

Output checks: ``hostlo_cost <= kubernetes_cost`` for every user; every
round reproduces the first round exactly; the first round's digest of
costs, VM counts and split pods equals the one recorded for this seed,
when there is one.
"""

from __future__ import annotations

import hashlib
import time
import typing as t

from repro.costsim.hostlo import improve_assignment, split_pod_names
from repro.costsim.kubernetes import schedule_user
from repro.costsim.packing import total_cost
from repro.traces import TraceConfig, generate_trace

from plans import user_order
from stats import BaseWorkload, Layers, OpLedger

#: Size classes by pod count (the generator's classes are not exposed;
#: these bounds separate its whales, large, medium and small users).
CLASSES = (("whale", 150), ("large", 25), ("medium", 6), ("small", 1))
#: Every how-many-th user of each class (in pod-count order) a round
#: holds.  The whale is the median one (see _round_users).
EVERY = {"large": 3, "medium": 1, "small": 1}
WARMUP_USERS = 10
COST_TOLERANCE = 1e-9


def _class_of(pods: int) -> str:
    return next(name for name, least in CLASSES if pods >= least)


def _round_users(users: t.Sequence[t.Any]) -> dict[str, list[int]]:
    """User indices of one round, per class.

    The set is the same for every seed, so the spread across seeds
    measures the program rather than the draw: the 12 whales cost
    2.7-4.0 s each and the large users 10-100 ms, so a seeded draw of
    either would move throughput and p90 by itself.
    """
    classes: dict[str, list[int]] = {name: [] for name, _ in CLASSES}
    for index in sorted(range(len(users)),
                        key=lambda i: (len(users[i].pods), i)):
        classes[_class_of(len(users[index].pods))].append(index)
    picked = {name: classes[name][::every] for name, every in EVERY.items()}
    picked["whale"] = [classes["whale"][len(classes["whale"]) // 2]]
    return picked


def _op(user: t.Any, layers: Layers | None, whale: bool) -> tuple:
    if layers is None:
        baseline = schedule_user(user.pods)
        improved = improve_assignment(baseline)
    else:
        baseline = layers.timed("costsim.schedule_s", schedule_user,
                                user.pods)
        improved = layers.timed(
            "costsim.improve_whale_s" if whale else "costsim.improve_s",
            improve_assignment, baseline)
    return baseline, improved, total_cost(baseline), total_cost(improved)


def _outcome(user: t.Any, result: tuple) -> tuple:
    baseline, improved, k8s_cost, hostlo_cost = result
    return (user.name, k8s_cost, hostlo_cost, len(baseline), len(improved),
            len(split_pod_names(improved)))


class Workload(BaseWorkload):
    def __init__(self, seed: int, expected: dict[str, t.Any]) -> None:
        self.seed = seed
        self.expected = expected.get("digests", {}).get(str(seed))
        self.users: list[t.Any] = []
        self.order: list[int] = []
        self.whale = -1
        self.generate_s: list[float] = []
        self.reference: dict[int, tuple] = {}
        self.ledgers: list[OpLedger] = []

    def prepare(self) -> None:
        """Generate the population, draw the round, warm up on small users."""
        started = time.perf_counter()
        self.users = generate_trace(TraceConfig())
        self.generate_s.append(time.perf_counter() - started)
        picked = _round_users(self.users)
        self.whale = picked["whale"][0]
        self.order = user_order(self.seed, sorted(sum(picked.values(), [])))
        for index in picked["small"][:WARMUP_USERS]:
            _op(self.users[index], None, False)

    def _check(self, index: int, result: tuple) -> str | None:
        outcome = _outcome(self.users[index], result)
        name, k8s_cost, hostlo_cost = outcome[:3]
        if hostlo_cost > k8s_cost * (1 + COST_TOLERANCE):
            return f"check:{name} hostlo {hostlo_cost} > k8s {k8s_cost}"
        if self.reference.setdefault(index, outcome) != outcome:
            return f"check:{name} differs from the first round"
        return None

    def _digest(self) -> str:
        h = hashlib.sha256()
        for index in self.order:
            h.update(repr(self.reference.get(index)).encode())
        return h.hexdigest()[:16]

    def window(self, seconds: float, ledger: OpLedger,
               layers: Layers | None) -> None:
        self.ledgers.append(ledger)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            started = time.perf_counter()
            for index in self.order:
                result = ledger.run_op(
                    lambda i=index: _op(self.users[i], layers,
                                        i == self.whale),
                    lambda r, i=index: self._check(i, r))
                if layers is not None and result is not None:
                    outcome = _outcome(self.users[index], result)
                    layers.add("costsim.saved",
                               float(outcome[2] < outcome[1] - 1e-9))
                    layers.add("costsim.vms_removed", outcome[3] - outcome[4])
            ledger.add_round(time.perf_counter() - started)
            if layers is not None:
                layers.add("costsim.rounds", 1)

    def finish(self) -> None:
        if self.expected is not None and self._digest() != self.expected:
            self.ledgers[0].fail("check:first-round digest differs from "
                                 "the recorded one for this seed")

    def describe(self) -> list[str]:
        whale = self.users[self.whale]
        recorded = ("checked against the recorded digest" if self.expected
                    else "no recorded digest for this seed")
        return [
            f"{len(self.order)} users/round; whale "
            f"{whale.name} ({len(whale.pods)} pods)",
            f"first-round digest {self._digest()} ({recorded})",
        ]

    def layer_metrics(self, layers: Layers) -> dict[str, tuple[float, int]]:
        rounds = layers.count("costsim.rounds")
        return {
            "costsim.schedule_ms_per_user": (
                layers.mean("costsim.schedule_s") * 1e3,
                layers.count("costsim.schedule_s")),
            "costsim.improve_ms_per_user": (
                layers.mean("costsim.improve_s") * 1e3,
                layers.count("costsim.improve_s")),
            "costsim.improve_ms_whale": (
                layers.mean("costsim.improve_whale_s") * 1e3,
                layers.count("costsim.improve_whale_s")),
            "costsim.saved_user_share": (
                layers.mean("costsim.saved"), layers.count("costsim.saved")),
            "costsim.vms_removed": (
                layers.total("costsim.vms_removed") / max(rounds, 1), rounds),
            "traces.generate_ms": (
                sum(self.generate_s) / len(self.generate_s) * 1e3,
                len(self.generate_s)),
        }
