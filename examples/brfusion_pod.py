#!/usr/bin/env python
"""BrFusion, mechanically: watch the §3.1 protocol and the path shrink.

Walks through the orchestrator↔VMM interaction step by step, then shows
the resolved datapaths — the NAT pod's duplicated virtualization layer
versus the BrFusion pod's host-switched NIC — and the guest CPU the
fused path saves while Kafka runs.

Run:  python examples/brfusion_pod.py
"""

from repro.core import build_scenario
from repro.core.testbed import default_testbed
from repro.net.path import resolve_path
from repro.workloads import KafkaProducerPerf


def show_protocol() -> None:
    print("== §3.1: the orchestrator asks the VMM for a pod NIC ==")
    tb = default_testbed(seed=1, vms=1)
    node = tb.orchestrator.node("vm0")

    # Step 1-2: orchestrator → VMM; VMM provisions the NIC.
    nic = tb.vmm.add_nic(node.vm)
    print(f"  VMM provisioned {nic.name} backed by TAP {nic.backend.name} "
          f"on bridge {nic.backend.bridge.name}")
    # Step 3: the VMM reports an identifier (the MAC address).
    print(f"  VMM reports identifier: {nic.mac}")
    # Step 4: the agent finds the NIC by MAC and wires it into the pod.
    engine = node.engine
    pod = engine.create_container("demo-pod", "netperf")
    network = tb.host.bridge_network("virbr0")
    address = tb.host.allocate_address("virbr0")
    tb.orchestrator.agent("vm0").configure_nic(
        nic.mac, pod, address, network, gateway=network.host(1)
    )
    print(f"  agent configured {nic.name} inside the pod at {address}\n")


def show_paths() -> None:
    print("== the datapath, before and after ==")
    for mode, label in (("nat", "NAT (nested default)"),
                        ("brfusion", "BrFusion")):
        tb = default_testbed(seed=1, vms=1)
        scenario = build_scenario(tb, mode)
        path = resolve_path(scenario.src_ns, scenario.dst_addr,
                            scenario.dst_port)
        stages = " -> ".join(path.stage_names())
        print(f"  {label} ({len(path.stages)} stages):")
        print(f"    {stages}\n")


def show_cpu_saving() -> None:
    print("== guest softirq CPU while Kafka runs (fig 6's effect) ==")
    for mode in ("nat", "brfusion"):
        tb = default_testbed(seed=1, vms=1)
        scenario = build_scenario(tb, mode, image="kafka", port=9092)
        tb.reset_accounting()
        KafkaProducerPerf().run(scenario, duration_s=0.02)
        soft = tb.breakdowns()[scenario.server_domain].soft
        print(f"  {mode:9s} guest softirq time: {soft * 1e3:.2f} ms")
    print("  (BrFusion removed the netfilter/bridge/veth softirq hooks)")


if __name__ == "__main__":
    show_protocol()
    show_paths()
    show_cpu_saving()
