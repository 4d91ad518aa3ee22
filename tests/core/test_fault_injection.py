"""Fault injection: the system fails loudly and cleans up correctly."""

import pytest

from repro.core import build_scenario
from repro.core.testbed import default_testbed
from repro.errors import HotplugError, SchedulingError, TopologyError
from repro.net import resolve_path
from repro.net.forwarding import ForwardingEngine


class TestDeviceFailures:
    def test_pod_nic_link_down_breaks_path(self):
        tb = default_testbed(seed=23, vms=1)
        scenario = build_scenario(tb, "brfusion")
        dep = tb.orchestrator.deployments[scenario.name]
        dep.plugin_state["pod_nic"].up = False
        with pytest.raises(TopologyError, match="down"):
            resolve_path(scenario.dst_ns, scenario.src_addr, 40000)

    def test_hot_unplug_under_a_live_deployment(self):
        tb = default_testbed(seed=23, vms=1)
        scenario = build_scenario(tb, "brfusion")
        dep = tb.orchestrator.deployments[scenario.name]
        nic = dep.plugin_state["pod_nic"]
        vm = tb.vm("vm0")
        tb.vmm.remove_nic(vm, nic.mac)
        # The pod lost its only NIC: resolution must now fail.
        with pytest.raises(TopologyError):
            resolve_path(scenario.src_ns, scenario.dst_addr,
                         scenario.dst_port)

    def test_remove_hostlo_breaks_intra_pod_path(self):
        tb = default_testbed(seed=23, vms=2)
        scenario = build_scenario(tb, "hostlo")
        dep = tb.orchestrator.deployments[scenario.name]
        tb.vmm.remove_hostlo(dep.plugin_state["hostlo"].name)
        with pytest.raises(TopologyError):
            resolve_path(scenario.src_ns, scenario.dst_addr,
                         scenario.dst_port)

    def test_frames_observe_link_down_not_crash(self):
        tb = default_testbed(seed=23, vms=1)
        scenario = build_scenario(tb, "nat")
        tb.vm("vm0").primary_nic.up = False
        # Reverse direction egresses through the downed NIC.
        delivery = ForwardingEngine().send(
            scenario.dst_ns, scenario.src_addr, 40000
        )
        assert not delivery.delivered
        assert delivery.visited("drop:link-down")


class TestVmFailures:
    def test_destroy_vm_rejects_new_hotplug(self):
        tb = default_testbed(seed=23, vms=2)
        vm = tb.vm("vm0")
        tb.vmm.destroy_vm("vm0")
        with pytest.raises(HotplugError):
            next(tb.vmm.hotplug_nic(vm))

    def test_destroyed_vm_disconnects_qmp(self):
        tb = default_testbed(seed=23, vms=2)
        qmp = tb.vmm.qmp["vm0"]
        tb.vmm.destroy_vm("vm0")
        with pytest.raises(HotplugError):
            next(qmp.execute("query"))

    def test_destroy_vm_detaches_taps_from_bridge(self):
        tb = default_testbed(seed=23, vms=2)
        vm = tb.vm("vm0")
        taps = [nic.backend for nic in vm.virtio_nics()]
        tb.vmm.destroy_vm("vm0")
        for tap in taps:
            assert not tb.host.default_bridge.has_port(tap)


class TestOrchestratorFailures:
    def test_remove_pod_twice_rejected(self):
        tb = default_testbed(seed=23, vms=1)
        scenario = build_scenario(tb, "nat")
        tb.orchestrator.remove_pod(scenario.name)
        with pytest.raises(SchedulingError):
            tb.orchestrator.remove_pod(scenario.name)

    def test_redeploy_after_removal_works(self):
        tb = default_testbed(seed=23, vms=1)
        scenario = build_scenario(tb, "brfusion")
        tb.orchestrator.remove_pod(scenario.name)
        # Same port is free again: a new pod can publish it.
        second = build_scenario(tb, "brfusion")
        assert second.name != scenario.name
        path = resolve_path(second.src_ns, second.dst_addr, second.dst_port)
        assert path.stages[-1].domain == "vm:vm0"

    def test_hostlo_pod_removal_frees_the_device_name(self):
        tb = default_testbed(seed=23, vms=2)
        scenario = build_scenario(tb, "hostlo")
        dep = tb.orchestrator.deployments[scenario.name]
        name = dep.plugin_state["hostlo"].name
        tb.orchestrator.remove_pod(scenario.name)
        # Device gone from the host namespace.
        assert name not in tb.host.ns.devices
