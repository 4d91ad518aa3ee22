"""Seeded workload inputs.

Every plan is a pure function of ``--seed``: the same seed gives the
same inputs, another seed another order or sample with the same
composition, so run-to-run spread across seeds measures the program
rather than the draw.  ``random.Random`` is seeded with a string, which
CPython hashes with SHA-512, so plans do not depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
import random
import typing as t


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def cell_order(seed: int, backends: t.Sequence[str],
               sizes: t.Sequence[int]) -> list[tuple[str, int]]:
    """Every ``(backend, message size)`` cell once, in a seeded order."""
    cells = [(b, s) for b in backends for s in sizes]
    _rng("netperf-grid", seed).shuffle(cells)
    return cells


@dataclasses.dataclass(frozen=True)
class FrameOp:
    backend: str
    payload_bytes: int
    reverse: bool
    #: Sent as the first frame of a freshly attached testbed (empty
    #: ARP caches and FDBs: ARP plus flooding).
    cold: bool


def frame_ops(seed: int, backends: t.Sequence[str],
              sizes: t.Sequence[int], warm_per_cold: int) -> list[FrameOp]:
    """One round of frame sends in a seeded order.

    Each ``(backend, size, direction)`` appears ``warm_per_cold`` times
    warm and once cold, so the cold share is ``1 / (warm_per_cold + 1)``
    for every seed.
    """
    ops = [
        FrameOp(b, size, reverse, cold)
        for b in backends for size in sizes for reverse in (False, True)
        for cold in (True,) + (False,) * warm_per_cold
    ]
    _rng("frame-walk", seed).shuffle(ops)
    return ops


def user_order(seed: int, users: t.Sequence[int]) -> list[int]:
    """The cost-consolidation round's *users* in a seeded order."""
    out = list(users)
    _rng("cost-consolidation", seed).shuffle(out)
    return out


def job_list(seed: int, n: int, window: int, hit_every: int,
             users: tuple[int, int]) -> list[dict[str, int]]:
    """*n* ``trace`` job payloads: new keys plus resubmits of old ones.

    One job in every block of *hit_every* (at a seeded position) repeats
    the key of a job at least ``window + 1`` places earlier.  In a
    closed loop that keeps *window* jobs outstanding, that job has
    finished, so the repeat is a dedupe hit.  Blocks too early to have
    such a job hold only new keys.
    """
    rng = _rng("service-jobs", seed)
    jobs: list[dict[str, int]] = []
    used: set[int] = set()
    hit_at = rng.randrange(hit_every)
    for i in range(n):
        if i % hit_every == 0:
            hit_at = rng.randrange(hit_every)
        if i % hit_every == hit_at and i > window:
            jobs.append(dict(jobs[rng.randrange(i - window)]))
            continue
        trace_seed = rng.randrange(1, 2**31)
        while trace_seed in used:
            trace_seed = rng.randrange(1, 2**31)
        used.add(trace_seed)
        jobs.append({"seed": trace_seed, "users": rng.randint(*users)})
    return jobs
