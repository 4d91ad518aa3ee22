"""Analytic model vs discrete-event simulation: they must agree."""

import pytest

from repro.analysis import predict_rr_latency, predict_stream_throughput
from repro.core import build_scenario
from repro.core.testbed import default_testbed
from repro.workloads import NetperfTcpStream, NetperfUdpRR

MODES = [
    "nocont",
    "nat",
    "brfusion",
    "samenode",
    "hostlo",
    "overlay",
    "nat_cross",
]


@pytest.mark.parametrize("mode", MODES)
def test_stream_prediction_matches_des(mode):
    tb = default_testbed(seed=31, vms=2)
    scenario = build_scenario(tb, mode)
    forward, _ = scenario.paths("tcp")
    ack = scenario.ack_path("tcp")
    prediction = predict_stream_throughput(tb.engine, forward, ack, 1024,
                                           window=128)
    result = NetperfTcpStream(window=128).run(scenario, 1024,
                                              duration_s=0.012)
    # The DES adds queueing, draining and scheduling slack on top of the
    # closed form; agreement within 30 % across every mode is the check.
    ratio = result.throughput_bps / prediction.throughput_bps
    assert 0.6 <= ratio <= 1.15, (mode, ratio, prediction)


@pytest.mark.parametrize("mode", MODES)
def test_rr_prediction_matches_des(mode):
    tb = default_testbed(seed=31, vms=2)
    scenario = build_scenario(tb, mode)
    forward, reverse = scenario.paths("udp")
    predicted = predict_rr_latency(tb.engine, forward, reverse, 1024)
    result = NetperfUdpRR().run(scenario, 1024, transactions=150)
    # The recorded samples carry multiplicative jitter (mean 1).
    ratio = result.latency.mean / predicted
    assert 0.8 <= ratio <= 1.25, (mode, ratio)


def test_bottleneck_identification():
    tb = default_testbed(seed=31, vms=2)
    hostlo = build_scenario(tb, "hostlo")
    forward, _ = hostlo.paths("tcp")
    prediction = predict_stream_throughput(
        tb.engine, forward, hostlo.ack_path("tcp"), 1024
    )
    # The hostlo kernel thread is the §4.2 serialization point.
    assert prediction.bottleneck_domain.startswith("kthread:")
    assert not prediction.window_bound


def test_small_window_becomes_the_bound():
    tb = default_testbed(seed=31, vms=2)
    scenario = build_scenario(tb, "nocont")
    forward, _ = scenario.paths("tcp")
    prediction = predict_stream_throughput(
        tb.engine, forward, scenario.ack_path("tcp"), 1024, window=2
    )
    assert prediction.window_bound

