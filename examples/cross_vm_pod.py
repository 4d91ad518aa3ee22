#!/usr/bin/env python
"""Hostlo: split a pod across two VMs and keep its localhost.

Deploys a two-container pod that cannot fit any single VM, watches the
scheduler split it, inspects the hostlo device the VMM provisioned, and
compares intra-pod Memcached over hostlo against the alternatives.

Run:  python examples/cross_vm_pod.py
"""

from repro.core import build_scenario
from repro.core.testbed import default_testbed
from repro.net.path import resolve_path
from repro.orchestrator.pod import ContainerSpec, PodSpec
from repro.workloads import MemtierBenchmark


def show_split_deployment() -> None:
    print("== deploying a pod too big for one VM ==")
    tb = default_testbed(seed=3, vms=2)
    spec = PodSpec(
        "bigpod",
        containers=(
            ContainerSpec("app", "memcached", cpu=3, memory_gb=2),
            ContainerSpec("worker", "memcached", cpu=3, memory_gb=2),
        ),
    )
    deployment = tb.deploy(spec, network="hostlo", allow_split=True)
    print(f"  placement: {dict(deployment.placement.assignments)}")
    handle = deployment.plugin_state["hostlo"]
    print(f"  hostlo device {handle.tap.name} with "
          f"{handle.tap.queue_count} VM queues")
    for cname in ("app", "worker"):
        print(f"  {cname}: localhost address {deployment.intra_address(cname)}")

    path = resolve_path(
        deployment.namespace_of("app"),
        deployment.intra_address("worker"), 11211,
    )
    print(f"  intra-pod path: {' -> '.join(path.stage_names())}\n")


def compare_memcached() -> None:
    print("== intra-pod Memcached (memtier), four ways ==")
    bench = MemtierBenchmark(threads=2, connections_per_thread=25)
    for mode in ("samenode", "hostlo", "overlay", "nat_cross"):
        tb = default_testbed(seed=3, vms=2)
        scenario = build_scenario(tb, mode, image="memcached", port=11211)
        result = bench.run(scenario, duration_s=0.015)
        stats = result.latency
        print(f"  {mode:9s} {result.rate_per_s:9.0f} ops/s   "
              f"latency {stats.mean * 1e6:7.1f} us  (cv {stats.cv:.2f})")
    print("\n  hostlo: near-SameNode service, none of the overlay/NAT pain")


if __name__ == "__main__":
    show_split_deployment()
    compare_memcached()
