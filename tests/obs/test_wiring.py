"""The instrumentation wired into each layer actually records."""

import pytest

from repro import obs
from repro.core import build_scenario
from repro.core.testbed import default_testbed
from repro.sim import Environment
from repro.virt import PhysicalHost, Vmm


def hotplug_one_nic(vmm, host, name="vm1"):
    vm = vmm.create_vm(name)
    proc = host.env.process(vmm.hotplug_nic(vm))
    host.env.run()
    return vm, proc.value


class TestVirtWiring:
    def test_hotplug_latency_histogram_always_recorded(self):
        # Rare events record into the active registry even untraced.
        obs.uninstall()
        host = PhysicalHost(Environment())
        vmm = Vmm(host)
        hotplug_one_nic(vmm, host)
        hist = obs.metrics().get("virt.hotplug_latency_s")
        assert hist.count(kind="nic") == 1
        assert hist.total(kind="nic") > 0.005  # QMP + PCI probe latency
        obs.uninstall()

    def test_hotplug_span_when_tracing(self):
        with obs.capture() as (tracer, metrics):
            host = PhysicalHost(Environment())
            vmm = Vmm(host)
            hotplug_one_nic(vmm, host)
            spans = tracer.spans_in("virt.hotplug")
            assert len(spans) == 1
            span = spans[0]
            assert span.name == "nic:vm1"
            assert span.duration > 0
            assert span.attrs["latency_s"] == pytest.approx(span.duration)
            assert metrics.get("virt.hotplug_latency_s").count(kind="nic") == 1

    def test_hostlo_hotplug_recorded(self):
        with obs.capture() as (tracer, metrics):
            host = PhysicalHost(Environment())
            vmm = Vmm(host)
            vms = [vmm.create_vm(f"vm{i}") for i in range(2)]
            proc = host.env.process(vmm.hotplug_hostlo("hlo1", vms))
            host.env.run()
            assert proc.value is not None
            assert tracer.spans_in("virt.hotplug")[0].name == "hostlo:hlo1"
            assert metrics.get("virt.hotplug_latency_s").count(kind="hostlo") == 1

    def test_qmp_latency_and_events(self):
        with obs.capture() as (tracer, metrics):
            host = PhysicalHost(Environment())
            vmm = Vmm(host)
            hotplug_one_nic(vmm, host)
            hist = metrics.get("virt.qmp_latency_s")
            assert hist.count(command="device_add") == 1
            events = tracer.events_in("virt.qmp")
            assert any(e.name == "device_add" and e.attrs["vm"] == "vm1"
                       for e in events)

    def test_vm_observe_queues(self):
        with obs.capture() as (_tracer, metrics):
            host = PhysicalHost(Environment())
            vmm = Vmm(host)
            vm = vmm.create_vm("vm1")
            depth = vm.observe_queues()
            assert depth == vm.cpu.queue_depth
            assert metrics.get("vm.vcpu_queue_depth").value(vm="vm1") == depth
            assert metrics.get("vm.virtio_nics").value(vm="vm1") == 1


class TestOrchestratorWiring:
    def test_scheduler_and_cni_events(self):
        with obs.capture() as (tracer, _):
            tb = default_testbed(seed=4, vms=2)
            build_scenario(tb, "nat")
            place = tracer.events_in("sched.place")
            assert place and all("policy" in e.attrs for e in place)
            attach = tracer.events_in("cni.attach")
            assert attach and any(e.attrs["plugin"] == "nat" for e in attach)

    def test_split_placement_flagged(self):
        with obs.capture() as (tracer, _):
            tb = default_testbed(seed=4, vms=2)
            build_scenario(tb, "hostlo")
            attach = [e for e in tracer.events_in("cni.attach")
                      if e.attrs["plugin"] == "hostlo"]
            assert any(e.attrs["split"] for e in attach)
            split = next(e for e in attach if e.attrs["split"])
            assert "," in split.attrs["nodes"]  # two nodes named


class TestForwardingWiring:
    def test_send_events_recorded(self):
        from repro.net.forwarding import ForwardingEngine

        with obs.capture() as (tracer, _):
            tb = default_testbed(seed=4, vms=2)
            scenario = build_scenario(tb, "nat")
            tracer.clear()  # keep only the frame walk below
            delivery = ForwardingEngine().send(
                tb.client_ns, scenario.dst_addr, scenario.dst_port
            )
            assert delivery.delivered
            sends = tracer.events_in("forward.send")
            assert len(sends) == 1
            assert sends[0].attrs["delivered"]
            hops = tracer.events_in("forward.hop")
            assert len(hops) == sends[0].attrs["hops"]


class TestDatapathMetrics:
    def test_queue_depth_gauge_sampled_during_transfer(self):
        with obs.capture() as (_tracer, metrics):
            tb = default_testbed(seed=4, vms=2)
            scenario = build_scenario(tb, "nat")
            forward, _rev = scenario.paths()
            tb.env.run(
                until=tb.env.process(tb.engine.transfer(forward, 1280))
            )
            gauge = metrics.get("cpu.queue_depth")
            domains = {key for key, _ in gauge.series().items()}
            assert domains  # one series per CPU domain touched
