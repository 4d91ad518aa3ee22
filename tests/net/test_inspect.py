"""Tests for the topology inspection helpers."""

import pytest

from repro.core import build_scenario
from repro.core.testbed import default_testbed
from repro.net import Loopback, NetDevice, PhysicalNic
from repro.net.addresses import MacAllocator
from repro.net.links import PhysicalLink
from repro.net.inspect import (
    describe_device,
    describe_namespace,
    describe_testbed,
    describe_topology,
)


def test_device_lines_cover_wiring(nat_topo):
    guest_eth0 = nat_topo.guest.device("eth0")
    line = describe_device(guest_eth0)
    assert "eth0" in line and "virtio" in line and "backend=tap-vm1" in line

    bridge_line = describe_device(nat_topo.bridge)
    assert "ports=[" in bridge_line and "virbr0" in bridge_line


def test_down_device_marked(nat_topo):
    dev = nat_topo.client.device("eth0")
    dev.up = False
    assert "DOWN" in describe_device(dev)


def test_namespace_block_lists_rules(nat_topo):
    block = describe_namespace(nat_topo.guest)
    assert "namespace vm1" in block
    assert "dnat  tcp/8080" in block
    assert "masq  172.17.0.0/16" in block
    assert "route 172.17.0.0/16 dev docker0" in block


def test_hostlo_queues_visible(hostlo_topo):
    block = describe_namespace(hostlo_topo.host)
    assert "queues=[hlo0,hlo0b]" in block


class TestEveryDeviceKind:
    """describe_device renders every device kind without raising."""

    def test_veth_shows_peer(self, nat_topo):
        line = describe_device(nat_topo.cont.device("eth0"))
        assert "<veth>" in line and "peer=veth-cont1@vm1" in line

    def test_virtio_shows_backend(self, nat_topo):
        line = describe_device(nat_topo.guest.device("eth0"))
        assert "<virtio>" in line and "backend=tap-vm1" in line

    def test_tap_shows_backing_and_bridge(self, nat_topo):
        line = describe_device(nat_topo.host.device("tap-vm1"))
        assert "<tap>" in line
        assert "backs=eth0" in line and "bridge=virbr0" in line

    def test_bridge_lists_ports(self, nat_topo):
        line = describe_device(nat_topo.bridge)
        assert "<bridge>" in line and "ports=[" in line

    def test_hostlo_tap_lists_queues(self, hostlo_topo):
        line = describe_device(hostlo_topo.hostlo)
        assert "<hostlo_tap>" in line and "queues=[hlo0,hlo0b]" in line

    def test_hostlo_endpoint_names_its_tap(self, hostlo_topo):
        line = describe_device(hostlo_topo.frag_a.device("hlo0"))
        assert "<hostlo_endpoint>" in line and "hostlo=hostlo0" in line

    def test_vxlan_shows_vni_and_underlay(self, overlay_topo):
        line = describe_device(overlay_topo.guest_a.device("vx-vm1"))
        assert "<vxlan>" in line
        assert "vni=256" in line and "underlay=192.168.122.11" in line

    def test_physical_nic_plain_and_cabled(self):
        macs = MacAllocator(oui=0x02BB00)
        nic_a = PhysicalNic("eth0", macs.allocate())
        nic_b = PhysicalNic("eth1", macs.allocate())
        assert "<physical>" in describe_device(nic_a)  # uncabled: no link
        PhysicalLink("wire0", nic_a, nic_b)
        assert "link=wire0" in describe_device(nic_a)

    def test_loopback(self):
        line = describe_device(Loopback())
        assert line.startswith("lo <loopback>")

    def test_generic_device(self):
        assert "<generic>" in describe_device(NetDevice("dev0"))

    @pytest.mark.parametrize(
        "mode",
        [
            "nat",
            "brfusion",
            "hostlo",
            "overlay",
            "samenode",
            "nocont",
        ],
    )
    def test_whole_scenario_renders(self, mode):
        """Every production-built topology describes without raising."""
        tb = default_testbed(seed=5, vms=2)
        build_scenario(tb, mode)
        text = describe_testbed(tb)
        assert "namespace host" in text


def test_describe_topology_orders_blocks(nat_topo):
    text = describe_topology([nat_topo.guest, nat_topo.client])
    assert text.index("namespace vm1") < text.index("namespace client")


def test_testbed_description_covers_everything():
    tb = default_testbed(seed=2, vms=2)
    build_scenario(tb, "hostlo")
    text = describe_testbed(tb)
    assert "namespace host" in text
    assert "namespace client" in text
    assert "namespace vm0" in text
    assert "pod:" in text  # fragment namespaces
    assert "hostlo" in text
