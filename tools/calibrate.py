"""Calibration harness: print emergent ratios vs the paper's targets.

Run:  python tools/calibrate.py
"""

import sys

from repro.core import build_scenario
from repro.core.testbed import default_testbed
from repro.workloads import NetperfTcpStream, NetperfUdpRR


def run_mode(mode, msg, *, duration=0.03, transactions=400, seed=5):
    tb = default_testbed(seed=seed, vms=2)
    scen = build_scenario(tb, mode)
    thr = NetperfTcpStream(window=128).run(scen, msg, duration_s=duration)
    tb2 = default_testbed(seed=seed, vms=2)
    scen2 = build_scenario(tb2, mode)
    lat = NetperfUdpRR().run(scen2, msg, transactions=transactions)
    return thr.throughput_mbps, lat.latency.mean * 1e6, lat.latency.cv


def main():
    msg = int(sys.argv[1]) if len(sys.argv) > 1 else 1280
    print(f"== client->server @{msg}B ==")
    rows = {}
    for mode in ("nocont", "nat", "brfusion"):
        rows[mode] = run_mode(mode, msg)
        t, l, cv = rows[mode]
        print(f"{mode:10s} thr={t:9.1f} Mbps  lat={l:8.1f} us  cv={cv:.2f}")
    print(f"NAT/NoCont thr   = {rows['nat'][0]/rows['nocont'][0]:.3f}   (paper ~0.32-0.48)")
    print(f"BrF/NAT thr      = {rows['brfusion'][0]/rows['nat'][0]:.3f} (paper ~2.1)")
    print(f"BrF/NoCont thr   = {rows['brfusion'][0]/rows['nocont'][0]:.3f} (paper >0.965)")
    print(f"NAT/NoCont lat   = {rows['nat'][1]/rows['nocont'][1]:.3f}  (paper ~1.31)")
    print(f"BrF/NAT lat      = {rows['brfusion'][1]/rows['nat'][1]:.3f} (paper ~0.816)")

    msg2 = 1024
    print(f"\n== intra-pod @{msg2}B ==")
    rows = {}
    for mode in ("samenode", "hostlo", "overlay", "nat_cross"):
        rows[mode] = run_mode(mode, msg2)
        t, l, cv = rows[mode]
        print(f"{mode:10s} thr={t:9.1f} Mbps  lat={l:8.1f} us  cv={cv:.2f}")
    print(f"Same/Hostlo thr  = {rows['samenode'][0]/rows['hostlo'][0]:.3f} (paper ~5.3)")
    print(f"Hostlo/NATx thr  = {rows['hostlo'][0]/rows['nat_cross'][0]:.3f} (paper ~1.18)")
    print(f"Ovl/Hostlo thr   = {rows['overlay'][0]/rows['hostlo'][0]:.3f} (paper ~1.37)")
    print(f"Hostlo/Same lat  = {rows['hostlo'][1]/rows['samenode'][1]:.3f} (paper ~2.0)")
    print(f"NATx/Hostlo lat  = {rows['nat_cross'][1]/rows['hostlo'][1]:.3f} (paper ~7.9)")
    print(f"Ovl/Hostlo lat   = {rows['overlay'][1]/rows['hostlo'][1]:.3f} (paper ~9.8)")


if __name__ == "__main__":
    main()
