"""End-to-end cross-check: frames walk the orchestrator-built topologies
and land exactly where the resolver says packets go."""

import pytest

from repro.core import build_scenario
from repro.core.testbed import default_testbed
from repro.net.forwarding import ForwardingEngine

MODES = [
    "nat",
    "brfusion",
    "nocont",
    "samenode",
    "hostlo",
    "overlay",
    "nat_cross",
]


@pytest.mark.parametrize("mode", MODES)
def test_frames_land_in_the_scenario_destination(mode):
    tb = default_testbed(seed=17, vms=2)
    scenario = build_scenario(tb, mode)
    engine = ForwardingEngine()
    delivery = engine.send(
        scenario.src_ns, scenario.dst_addr, scenario.dst_port
    )
    assert delivery.delivered, delivery.hops
    assert delivery.namespace == scenario.dst_ns.name


@pytest.mark.parametrize("mode", MODES)
def test_reverse_frames_return_to_source(mode):
    tb = default_testbed(seed=17, vms=2)
    scenario = build_scenario(tb, mode)
    engine = ForwardingEngine()
    delivery = engine.send(
        scenario.dst_ns, scenario.src_addr, scenario.src_port
    )
    assert delivery.delivered, delivery.hops
    assert delivery.namespace == scenario.src_ns.name


def test_hostlo_deployment_frames_reflect():
    tb = default_testbed(seed=17, vms=2)
    scenario = build_scenario(tb, "hostlo")
    engine = ForwardingEngine()
    delivery = engine.send(
        scenario.src_ns, scenario.dst_addr, scenario.dst_port
    )
    assert delivery.reflected_copies == 2


def test_brfusion_frames_never_touch_guest_nat():
    tb = default_testbed(seed=17, vms=2)
    scenario = build_scenario(tb, "brfusion")
    engine = ForwardingEngine()
    delivery = engine.send(
        scenario.src_ns, scenario.dst_addr, scenario.dst_port
    )
    assert not delivery.visited("dnat:")
    assert not delivery.visited("docker0")
