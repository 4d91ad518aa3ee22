"""Measurement helpers shared by every workload: percentiles, the op
ledger behind ``attempted``/``failed``/``error_rate``, and the per-layer
accumulator of the traced run.

Nothing here imports ``repro``, so the helpers are tested on their own
(``python -m pytest perfbench``).
"""

from __future__ import annotations

import array
import collections
import math
import resource
import time
import typing as t

#: A tail percentile is reported only when at least this many samples
#: lie beyond it (p90 therefore needs >= 100 samples).
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than its rule allows."""


def percentile(values: t.Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``0 < q <= 1``) of *values*.

    Raises :class:`TooFewSamples` unless ``MIN_TAIL_SAMPLES`` samples lie
    strictly above the returned rank, so a p90 never rests on a handful
    of slow ops.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile q must be in (0, 1]: {q!r}")
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {n - rank} beyond it; "
            f"need >= {MIN_TAIL_SAMPLES}"
        )
    return sorted(values)[rank - 1]


class OpLedger:
    """Counts every attempted op and every failure, and times the rest.

    An op that raises (a 429/503 refusal arrives as an exception from
    the service client) or fails its output check is a failed op.  The
    ledger never retries: each call of :meth:`run_op` calls the op once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: collections.Counter[str] = collections.Counter()
        #: Packed doubles: a list of float objects would grow the peak
        #: RSS with the op rate (4x the bytes per op), so a faster host
        #: would read as more memory.
        self.latencies_s = array.array("d")
        #: ``(successful ops, seconds)`` per timed round.
        self.rounds: list[tuple[int, float]] = []
        self._round_start = 0

    def begin(self) -> float:
        """Count one attempt; returns its start time."""
        self.attempted += 1
        return time.perf_counter()

    def succeed(self, started: float) -> float:
        latency = time.perf_counter() - started
        self.latencies_s.append(latency)
        return latency

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures[reason] += 1

    def run_op(self, fn: t.Callable[[], t.Any],
               check: t.Callable[[t.Any], str | None] | None = None
               ) -> t.Any:
        """Run *fn* once; *check* returns a failure reason or ``None``.

        Returns the op's result, or ``None`` when it raised.
        """
        started = self.begin()
        try:
            result = fn()
        except Exception as exc:  # any raised op is a failed op
            self.fail(type(exc).__name__)
            return None
        elapsed = time.perf_counter() - started
        problem = check(result) if check is not None else None
        if problem is not None:
            self.fail(problem)
        else:
            self.latencies_s.append(elapsed)
        return result

    def add_round(self, seconds: float) -> None:
        """Close a timed round of *seconds*; it holds the ops that
        succeeded since the previous round (failed ops are not counted)."""
        done = len(self.latencies_s)
        self.rounds.append((done - self._round_start, seconds))
        self._round_start = done

    @classmethod
    def pooled(cls, ledgers: t.Iterable["OpLedger"]) -> "OpLedger":
        """One ledger holding every op and round of *ledgers*."""
        pool = cls()
        for ledger in ledgers:
            pool.attempted += ledger.attempted
            pool.failed += ledger.failed
            pool.failures.update(ledger.failures)
            pool.latencies_s.extend(ledger.latencies_s)
            pool.rounds.extend(ledger.rounds)
        return pool

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def throughput(self) -> float:
        """Successful ops per second over all timed rounds."""
        seconds = sum(sec for _ops, sec in self.rounds)
        if seconds <= 0:
            raise TooFewSamples("no completed round to rate")
        return sum(ops for ops, _sec in self.rounds) / seconds

    def end_to_end(self) -> dict[str, float]:
        """The per-op metrics every workload reports (rss/setup aside)."""
        return {
            "throughput_ops_s": self.throughput(),
            "latency_p50_ms": percentile(self.latencies_s, 0.5) * 1e3,
            "latency_p90_ms": percentile(self.latencies_s, 0.9) * 1e3,
        }


class Layers:
    """Sums and sample counts per per-layer metric (traced run only).

    ``add(name, value)`` accumulates one sample; :meth:`mean` and
    :meth:`total` read them back.  Values are whatever unit the caller
    records (seconds, counts); conversion happens at report time.
    """

    def __init__(self) -> None:
        self._sum: dict[str, float] = collections.defaultdict(float)
        self._n: dict[str, int] = collections.defaultdict(int)

    def add(self, name: str, value: float, samples: int = 1) -> None:
        self._sum[name] += value
        self._n[name] += samples

    def timed(self, name: str, fn: t.Callable[..., t.Any],
              *args: t.Any, **kwargs: t.Any) -> t.Any:
        """Call *fn* and record its host seconds under *name*."""
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        self.add(name, time.perf_counter() - started)
        return result

    def total(self, name: str) -> float:
        return self._sum.get(name, 0.0)

    def count(self, name: str) -> int:
        return self._n.get(name, 0)

    def mean(self, name: str) -> float:
        n = self._n.get(name, 0)
        return self._sum[name] / n if n else 0.0


def timer(layers: Layers | None) -> t.Callable[..., t.Any]:
    """``layers.timed`` in a traced run; a plain call otherwise."""
    if layers is not None:
        return layers.timed
    return lambda _name, fn, *args, **kwargs: fn(*args, **kwargs)


class BaseWorkload:
    """Defaults shared by the workloads.

    A workload provides ``prepare()`` (one set-up repetition),
    ``window(seconds, ledger, layers)``, ``describe()`` and
    ``layer_metrics(layers)``; these are the rest of its interface.
    """

    #: Whether the untimed-run window may run in several forked copies
    #: of the process at once (in-process workloads only).
    forkable = True

    def finish(self) -> None:
        """Checks that need the whole run (recorded digests)."""

    def close(self) -> None:
        """Stop anything the workload started (also called, untimed,
        between set-up repetitions)."""

    def peak_rss_mb(self) -> float:
        """Peak resident set of the benchmark process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
