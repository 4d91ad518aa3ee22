#!/usr/bin/env python
"""Span-trace a NAT and a BrFusion transfer; print the top-N summary.

Runs one 1280 B request through each datapath with the observability
layer switched on (``obs.capture``), then prints the tracer's top-N
table for both.  BrFusion's table has visibly fewer ``datapath.stage``
rows — the guest bridge/NAT stages are simply gone — and fewer total
cycles, which is the whole point of §3.

Optionally writes Chrome ``trace_event`` files you can open in
Perfetto (https://ui.perfetto.dev):

Run:  python examples/trace_datapath.py [--out DIR]
"""

import argparse
import pathlib

from repro import obs
from repro.core import build_scenario
from repro.core.testbed import default_testbed
from repro.obs.export import iter_records, summary, write_chrome_trace

MESSAGE = 1280


def trace(mode: str, out: pathlib.Path | None) -> tuple[int, float]:
    with obs.capture() as (tracer, _metrics):
        tb = default_testbed(seed=11, vms=1)
        scenario = build_scenario(tb, mode)
        forward, _ = scenario.paths("udp")
        tb.env.run(until=tb.env.process(tb.engine.transfer(forward, MESSAGE)))

        stages = tracer.spans_in("datapath.stage")
        cycles = sum(s.attrs["cycles"] for s in stages)
        print(f"== {mode}: one {MESSAGE} B request, "
              f"{len(stages)} traced stages, {cycles:.0f} cycles ==")
        print(summary(tracer, top=12))
        if out is not None:
            path = write_chrome_trace(iter_records(tracer),
                                      out / f"{mode}.trace.json")
            print(f"[wrote {path} — open in https://ui.perfetto.dev]")
        print()
        return len(stages), cycles


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="DIR",
                        help="also write <DIR>/<mode>.trace.json per mode")
    args = parser.parse_args()
    out = None
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)

    nat_stages, nat_cycles = trace("nat", out)
    brf_stages, brf_cycles = trace("brfusion", out)
    print(f"stage spans: NAT {nat_stages} vs BrFusion {brf_stages} "
          f"({nat_stages - brf_stages} stages fused away); "
          f"cycles: NAT {nat_cycles:.0f} vs BrFusion {brf_cycles:.0f} "
          f"({1 - brf_cycles / nat_cycles:.0%} saved)")


if __name__ == "__main__":
    main()
