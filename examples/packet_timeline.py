#!/usr/bin/env python
"""Trace one packet, stage by stage, through NAT and BrFusion.

Prints a microsecond-resolution timeline of every processing stage a
1280 B request traverses — where it ran, how long the CPU work took,
and how long it sat in deferrals (softirq scheduling, vhost kicks,
interrupt injection).  The duplicated virtualization layer is visible
as three extra guest stages on the NAT path.

Run:  python examples/packet_timeline.py
"""

from repro.core import build_scenario
from repro.core.testbed import default_testbed

MESSAGE = 1280


def show(mode: str) -> float:
    tb = default_testbed(seed=11, vms=1)
    scenario = build_scenario(tb, mode)
    forward, _ = scenario.paths("udp")
    timeline = tb.engine.trace(forward, MESSAGE)

    t0 = timeline[0].started_at
    total = timeline[-1].finished_at - t0
    print(f"== {mode}: one {MESSAGE} B request, "
          f"{len(timeline)} stages, {total * 1e6:.1f} us ==")
    print(f"{'t (us)':>8}  {'stage':<14} {'runs on':<24} "
          f"{'cpu (us)':>9} {'defer (us)':>10}")
    for item in timeline:
        print(f"{(item.started_at - t0) * 1e6:8.1f}  "
              f"{item.stage:<14} {item.domain:<24} "
              f"{item.service_s * 1e6:9.2f} {item.deferral_s * 1e6:10.2f}")
    print()
    return total


def main() -> None:
    nat = show("nat")
    brf = show("brfusion")
    print(f"one-way latency: NAT {nat * 1e6:.1f} us vs "
          f"BrFusion {brf * 1e6:.1f} us "
          f"({1 - brf / nat:.0%} saved by fusing the bridges)")


if __name__ == "__main__":
    main()
