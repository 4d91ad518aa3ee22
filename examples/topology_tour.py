#!/usr/bin/env python
"""Tour the simulated topology after deploying the paper's scenarios.

Deploys one pod per networking mode on a single testbed and prints the
resulting namespaces, devices, routes and NAT rules — the whole nested
stack at a glance.

Run:  python examples/topology_tour.py
"""

from repro.core import build_scenario
from repro.core.testbed import default_testbed
from repro.net.inspect import describe_testbed


def main() -> None:
    tb = default_testbed(seed=2, vms=2)
    build_scenario(tb, "nat", port=8080)
    build_scenario(tb, "brfusion", port=8081)
    build_scenario(tb, "hostlo", port=11211)
    print(describe_testbed(tb))


if __name__ == "__main__":
    main()
