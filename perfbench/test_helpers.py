"""Tests of the benchmark's own helpers: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import plans  # noqa: E402
from stats import (  # noqa: E402
    MIN_TAIL_SAMPLES,
    Layers,
    OpLedger,
    TooFewSamples,
    percentile,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


# -- the percentile rule ----------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]  # 100 samples
    assert percentile(values, 0.9) == 90.0  # 10 samples lie beyond
    with pytest.raises(TooFewSamples):
        percentile(values[:99], 0.9)  # only 9 beyond


def test_median_also_obeys_the_rule():
    assert percentile([3.0, 1.0, 2.0] * 7, 0.5) == 2.0
    with pytest.raises(TooFewSamples):
        percentile([1.0] * (MIN_TAIL_SAMPLES + 1), 0.5)


def test_percentile_is_nearest_rank_of_unsorted_input():
    values = list(reversed([float(v) for v in range(200)]))
    assert percentile(values, 0.5) == 99.0
    assert percentile(values, 0.9) == 179.0


# -- error_rate ---------------------------------------------------------

class AdmissionError(Exception):
    """Stands in for the client's 429 exception."""


class ServiceUnavailableError(Exception):
    """Stands in for the client's 503 exception."""


@pytest.mark.parametrize("refusal", [AdmissionError, ServiceUnavailableError])
def test_refusal_is_a_failed_op_and_never_retried(refusal):
    ledger = OpLedger()
    calls = []

    def op():
        calls.append(1)
        raise refusal("refused")

    assert ledger.run_op(op) is None
    assert calls == [1]
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert ledger.failures == {refusal.__name__: 1}
    assert len(ledger.latencies_s) == 0


def test_failed_check_is_a_failed_op():
    ledger = OpLedger()
    ledger.run_op(lambda: 41, lambda r: None if r == 42 else "check:wrong")
    ledger.run_op(lambda: 42, lambda r: None if r == 42 else "check:wrong")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.error_rate == 0.5
    assert len(ledger.latencies_s) == 1


def test_deferred_failure_counts_against_attempts():
    ledger = OpLedger()
    started = ledger.begin()
    ledger.succeed(started)
    ledger.fail("check:result differs")
    assert ledger.error_rate == 1.0


def test_throughput_is_ops_over_timed_seconds():
    ledger = OpLedger()
    for seconds in (1.0, 2.0, 1.0):
        for _ in range(10):
            ledger.run_op(lambda: None)
        ledger.add_round(seconds)
    assert ledger.throughput() == 7.5
    with pytest.raises(TooFewSamples):
        OpLedger().throughput()


def test_throughput_leaves_out_failed_ops():
    ledger = OpLedger()
    for result in (1, 2, 3, 4):
        ledger.run_op(lambda r=result: r,
                      lambda r: None if r % 2 else "check:even")
    ledger.run_op(lambda: 1 / 0)
    ledger.add_round(1.0)
    assert ledger.rounds == [(2, 1.0)]
    assert ledger.throughput() == 2.0


def test_pooled_ledger_keeps_every_op_and_round():
    one, two = OpLedger(), OpLedger()
    for ledger, n in ((one, 3), (two, 5)):
        for _ in range(n):
            ledger.run_op(lambda: None)
        ledger.add_round(1.0)
    two.run_op(lambda: None, lambda _r: "check:bad")
    pool = OpLedger.pooled([one, two])
    assert (pool.attempted, pool.failed, len(pool.latencies_s)) == (9, 1, 8)
    assert pool.failures == {"check:bad": 1}
    assert pool.throughput() == 4.0  # ops per second of one worker


def test_layers_sum_and_count():
    layers = Layers()
    layers.add("a", 2.0)
    layers.add("a", 4.0, samples=3)
    assert (layers.total("a"), layers.count("a"), layers.mean("a")) == (
        6.0, 4, 1.5)
    assert layers.mean("missing") == 0.0
    assert layers.timed("t", lambda x: x * 2, 21) == 42
    assert layers.count("t") == 1


# -- seeded inputs --------------------------------------------------------

BACKENDS = ("a", "b", "c")


def test_cell_order_is_fixed_by_seed():
    one = plans.cell_order(1, BACKENDS, (64, 1280))
    assert one == plans.cell_order(1, BACKENDS, (64, 1280))
    assert one != plans.cell_order(2, BACKENDS, (64, 1280))
    assert sorted(one) == sorted(plans.cell_order(2, BACKENDS, (64, 1280)))


def test_frame_ops_keep_their_composition_across_seeds():
    one = plans.frame_ops(1, BACKENDS, (64, 1400), warm_per_cold=9)
    two = plans.frame_ops(2, BACKENDS, (64, 1400), warm_per_cold=9)
    assert one == plans.frame_ops(1, BACKENDS, (64, 1400), warm_per_cold=9)
    assert one != two
    assert sorted(one, key=repr) == sorted(two, key=repr)
    assert sum(op.cold for op in one) * 10 == len(one)


def test_user_order_is_fixed_by_seed():
    users = list(range(100))
    one = plans.user_order(1, users)
    assert one == plans.user_order(1, users)
    assert one != plans.user_order(2, users)
    assert sorted(one) == users


def test_job_list_is_fixed_by_seed():
    one = plans.job_list(1, 300, window=4, hit_every=3, users=(20, 60))
    assert one == plans.job_list(1, 300, window=4, hit_every=3,
                                 users=(20, 60))
    assert one != plans.job_list(2, 300, window=4, hit_every=3,
                                 users=(20, 60))


def test_job_list_repeats_only_finished_keys():
    window = 4
    jobs = plans.job_list(7, 600, window=window, hit_every=3, users=(20, 60))
    first_seen: dict[int, int] = {}
    repeats = 0
    for i, job in enumerate(jobs):
        assert 20 <= job["users"] <= 60
        if job["seed"] in first_seen:
            repeats += 1
            assert i - first_seen[job["seed"]] > window
            assert jobs[first_seen[job["seed"]]] == job
        else:
            first_seen[job["seed"]] = i
    assert abs(repeats / len(jobs) - 1 / 3) < 0.01


# -- the catalogue ------------------------------------------------------------

def test_benchmark_json_names_are_unique_and_bounded():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in doc[key]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
