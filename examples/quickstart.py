#!/usr/bin/env python
"""Quickstart: deploy a pod three ways and measure what the paper measured.

Builds the simulated testbed (one 12-core host, KVM-style VMs, a
benchmark client on the host bridge), deploys a netperf server behind
Docker NAT, behind a BrFusion pod NIC, and natively in the VM, then
runs netperf against each — reproducing the core BrFusion result in a
few seconds.

Run:  python examples/quickstart.py
"""

from repro.core import build_scenario
from repro.core.testbed import default_testbed
from repro.workloads import NetperfTcpStream, NetperfUdpRR

MESSAGE_SIZE = 1280  # the paper's headline size


def measure(mode: str) -> tuple[float, float]:
    """(throughput Mbps, mean RR latency µs) for one deployment mode."""
    tb = default_testbed(seed=42, vms=2)
    scenario = build_scenario(tb, mode)
    stream = NetperfTcpStream(window=64).run(
        scenario, MESSAGE_SIZE, duration_s=0.01
    )

    tb = default_testbed(seed=42, vms=2)
    scenario = build_scenario(tb, mode)
    rr = NetperfUdpRR().run(scenario, MESSAGE_SIZE, transactions=150)
    return stream.throughput_mbps, rr.latency.mean * 1e6


def main() -> None:
    print(f"netperf, {MESSAGE_SIZE} B messages, client on the host:\n")
    results = {}
    for mode in ("nat", "brfusion", "nocont"):
        throughput, latency = measure(mode)
        results[mode] = (throughput, latency)
        print(f"  {mode:9s} throughput {throughput:8.0f} Mbps   "
              f"latency {latency:6.1f} us")

    nat_thr, nat_lat = results["nat"]
    brf_thr, brf_lat = results["brfusion"]
    nocont_thr, _ = results["nocont"]
    print()
    print(f"BrFusion vs NAT:     {brf_thr / nat_thr:.1f}x throughput, "
          f"{1 - brf_lat / nat_lat:.0%} lower latency")
    print(f"BrFusion vs NoCont:  {brf_thr / nocont_thr:.2f}x throughput "
          "(the whole point: the nested pod pays nothing extra)")


if __name__ == "__main__":
    main()
