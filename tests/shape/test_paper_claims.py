"""Shape tests: the paper's headline claims, asserted with bands.

These are the reproduction's scientific regression tests: each asserts
that a ratio the paper reports emerges from the simulated system within
a tolerance band.  Experiments run once per module on a reduced (but
not tiny) scale; a claim on an experiment that the golden test already
runs at the quick preset reads that result instead.
"""

import pytest

from repro.harness import ExperimentConfig, run_experiment
from tests.harness.test_golden import quick_result

CONFIG = ExperimentConfig(
    stream_duration_s=0.012,
    rr_transactions=300,
    message_sizes=(1024, 1280, 16384),
    macro_duration_s=0.015,
    memtier_threads=2,
    memtier_connections_per_thread=25,
    wrk2_rate_per_s=6000.0,
    wrk2_connections=60,
    boot_runs=60,
    trace_users=492,
)


@pytest.fixture(scope="module")
def fig04():
    return run_experiment("fig04", CONFIG)


@pytest.fixture(scope="module")
def fig10():
    return run_experiment("fig10", CONFIG)


@pytest.fixture(scope="module")
def fig05():
    return run_experiment("fig05", CONFIG)


def _v(result, column, **filters):
    return float(result.value(column, **filters))


class TestFig2And4BrFusionMicro:
    """Fig 2 (−68 % thr, +31 % lat) and fig 4 (2.1×, ≤3.5 %, 18.4 %)."""

    def test_nat_throughput_degradation(self, fig04):
        nat = _v(fig04, "throughput_mbps", mode="nat", size_B=1280)
        nocont = _v(fig04, "throughput_mbps", mode="nocont", size_B=1280)
        assert 0.25 <= nat / nocont <= 0.48  # paper: 0.32 (fig2) – 0.48 (fig4)

    def test_nat_latency_increase(self, fig04):
        nat = _v(fig04, "latency_us", mode="nat", size_B=1280)
        nocont = _v(fig04, "latency_us", mode="nocont", size_B=1280)
        assert 1.18 <= nat / nocont <= 1.45  # paper ≈ 1.31

    def test_brfusion_matches_nocont_throughput(self, fig04):
        brf = _v(fig04, "throughput_mbps", mode="brfusion", size_B=1280)
        nocont = _v(fig04, "throughput_mbps", mode="nocont", size_B=1280)
        assert abs(brf / nocont - 1.0) <= 0.035  # paper: within 3.5 %

    def test_brfusion_throughput_multiple_of_nat(self, fig04):
        brf = _v(fig04, "throughput_mbps", mode="brfusion", size_B=1280)
        nat = _v(fig04, "throughput_mbps", mode="nat", size_B=1280)
        # paper text: 2.1×; paper fig 2 (−68 %) implies ≈ 3.1×.
        assert 1.9 <= brf / nat <= 3.6

    def test_brfusion_latency_below_nat(self, fig04):
        brf = _v(fig04, "latency_us", mode="brfusion", size_B=1280)
        nat = _v(fig04, "latency_us", mode="nat", size_B=1280)
        assert 0.65 <= brf / nat <= 0.92  # paper ≈ 0.816

    def test_brfusion_scales_with_message_size_like_nocont(self, fig04):
        for mode in ("brfusion", "nocont"):
            small = _v(fig04, "throughput_mbps", mode=mode, size_B=1024)
            big = _v(fig04, "throughput_mbps", mode=mode, size_B=16384)
            assert big > 1.5 * small
        # NAT scales more slowly (stagnation past the MTU).
        nat_small = _v(fig04, "throughput_mbps", mode="nat", size_B=1024)
        nat_big = _v(fig04, "throughput_mbps", mode="nat", size_B=16384)
        brf_small = _v(fig04, "throughput_mbps", mode="brfusion", size_B=1024)
        brf_big = _v(fig04, "throughput_mbps", mode="brfusion", size_B=16384)
        assert nat_big / nat_small < brf_big / brf_small

    def test_nat_latency_noisier(self, fig04):
        nat_cv = _v(fig04, "latency_cv", mode="nat", size_B=1280)
        nocont_cv = _v(fig04, "latency_cv", mode="nocont", size_B=1280)
        assert nat_cv > nocont_cv


class TestFig10HostloMicro:
    """Fig 10: the four intra-pod configurations at 1024 B."""

    def test_hostlo_beats_nat_throughput(self, fig10):
        hostlo = _v(fig10, "throughput_mbps", mode="hostlo", size_B=1024)
        nat = _v(fig10, "throughput_mbps", mode="nat_cross", size_B=1024)
        assert 1.02 <= hostlo / nat <= 1.40  # paper ≈ 1.179

    def test_overlay_beats_hostlo_throughput(self, fig10):
        hostlo = _v(fig10, "throughput_mbps", mode="hostlo", size_B=1024)
        overlay = _v(fig10, "throughput_mbps", mode="overlay", size_B=1024)
        assert 0.60 <= hostlo / overlay <= 0.98  # paper ≈ 0.73

    def test_samenode_throughput_multiple(self, fig10):
        same = _v(fig10, "throughput_mbps", mode="samenode", size_B=1024)
        hostlo = _v(fig10, "throughput_mbps", mode="hostlo", size_B=1024)
        assert 4.0 <= same / hostlo <= 7.0  # paper ≈ 5.3

    def test_hostlo_latency_far_below_nat_and_overlay(self, fig10):
        hostlo = _v(fig10, "latency_us", mode="hostlo", size_B=1024)
        nat = _v(fig10, "latency_us", mode="nat_cross", size_B=1024)
        overlay = _v(fig10, "latency_us", mode="overlay", size_B=1024)
        assert 1 - hostlo / nat >= 0.75  # paper: 87.3 % lower
        assert 1 - hostlo / overlay >= 0.80  # paper: 89.8 % lower

    def test_hostlo_latency_about_twice_samenode(self, fig10):
        hostlo = _v(fig10, "latency_us", mode="hostlo", size_B=1024)
        same = _v(fig10, "latency_us", mode="samenode", size_B=1024)
        assert 1.6 <= hostlo / same <= 2.6  # paper ≈ 2×

    def test_hostlo_latency_stable_across_sizes(self, fig10):
        lats = [
            _v(fig10, "latency_us", mode="hostlo", size_B=size)
            for size in (1024, 1280)
        ]
        assert max(lats) / min(lats) < 1.5
        cv = _v(fig10, "latency_cv", mode="hostlo", size_B=1024)
        nat_cv = _v(fig10, "latency_cv", mode="nat_cross", size_B=1024)
        assert cv < nat_cv  # stable vs erratic (paper §5.3.2)

    def test_worst_case_bands(self, fig10):
        def ratios(kind):
            out = {}
            for size in CONFIG.message_sizes:
                same = _v(fig10, kind, mode="samenode", size_B=size)
                hlo = _v(fig10, kind, mode="hostlo", size_B=size)
                out[size] = same / hlo if kind == "throughput_mbps" else hlo / same
            return out

        thr = ratios("throughput_mbps")
        lat = ratios("latency_us")
        # paper: worst case 6.1× lower throughput, 2.1× higher latency.
        # Sub-MTU sizes reproduce the band; at 16 KiB our hostlo
        # degrades harder than the paper's (the reflect copy is
        # per-byte on one kernel thread while the loopback rides a
        # 64 KiB MTU) — asserted only as monotone worsening and
        # documented in EXPERIMENTS.md.
        small_thr = [r for size, r in thr.items() if size <= 2048]
        small_lat = [r for size, r in lat.items() if size <= 2048]
        assert 4.0 <= max(small_thr) <= 9.0
        assert 1.7 <= max(small_lat) <= 2.8
        assert thr[16384] > max(small_thr)


class TestFig5Macros:
    def test_kafka_brfusion_beats_nat(self, fig05):
        brf = _v(fig05, "latency_us", app="kafka", mode="brfusion")
        nat = _v(fig05, "latency_us", app="kafka", mode="nat")
        assert 0.06 <= 1 - brf / nat <= 0.20  # paper ≈ 11.8 %

    def test_kafka_brfusion_above_nocont(self, fig05):
        brf = _v(fig05, "latency_us", app="kafka", mode="brfusion")
        nocont = _v(fig05, "latency_us", app="kafka", mode="nocont")
        assert 0.05 <= brf / nocont - 1 <= 0.25  # paper ≈ 13.1 %

    def test_nginx_brfusion_beats_nat(self, fig05):
        brf = _v(fig05, "latency_us", app="nginx", mode="brfusion")
        nat = _v(fig05, "latency_us", app="nginx", mode="nat")
        assert brf < nat  # paper: 30.1 % better

    def test_nginx_container_overhead_dominates(self, fig05):
        brf = _v(fig05, "latency_us", app="nginx", mode="brfusion")
        nocont = _v(fig05, "latency_us", app="nginx", mode="nocont")
        assert brf / nocont - 1 >= 0.20  # paper: +120 % (software, not net)

    def test_nginx_container_variance(self, fig05):
        nat_cv = _v(fig05, "latency_cv", app="nginx", mode="nat")
        brf_cv = _v(fig05, "latency_cv", app="nginx", mode="brfusion")
        nocont_cv = _v(fig05, "latency_cv", app="nginx", mode="nocont")
        assert nat_cv > nocont_cv and brf_cv > nocont_cv


class TestFig6CpuBreakdown:
    def test_brfusion_cuts_guest_softirq(self):
        result = run_experiment("fig06", CONFIG)
        nat_soft = next(
            r["soft_cores"] for r in result.rows
            if r["mode"] == "nat" and r["entity"].startswith("vm:")
        )
        brf_soft = next(
            r["soft_cores"] for r in result.rows
            if r["mode"] == "brfusion" and r["entity"].startswith("vm:")
        )
        reduction = 1 - brf_soft / nat_soft
        assert 0.40 < reduction <= 0.95  # paper ≈ 67 %


class TestFig7CpuBreakdown:
    def test_brfusion_cuts_guest_softirq_under_nginx(self):
        result = quick_result("fig07")

        def soft(mode):
            return next(
                r["soft_cores"] for r in result.rows
                if r["mode"] == mode and r["entity"].startswith("vm:")
            )

        # Same observation as fig 6, "of higher magnitude".
        assert soft("brfusion") < soft("nat")


class TestFig8BootTime:
    def test_brfusion_wins_most_quantiles(self):
        result = run_experiment("fig08", CONFIG)
        quantile_rows = [r for r in result.rows if r["quantile"] != "mean"]
        wins = sum(r["brfusion_better"] for r in quantile_rows)
        assert wins >= len(quantile_rows) * 0.5  # paper ≈ 75 %

    def test_means_comparable(self):
        result = run_experiment("fig08", CONFIG)
        nat = result.value("nat_ms", quantile="mean")
        brf = result.value("brfusion_ms", quantile="mean")
        assert 0.7 < brf / nat <= 1.15  # "BrFusion incurs no overhead"


class TestFig11To13Macros:
    def test_memcached_hostlo_reaches_samenode(self):
        result = run_experiment("fig11_12", CONFIG)
        hostlo = result.value("latency_us", mode="hostlo")
        same = result.value("latency_us", mode="samenode")
        assert hostlo / same <= 1.5  # paper: "reaches the levels"
        hostlo_rate = result.value("rate_per_s", mode="hostlo")
        nat_rate = result.value("rate_per_s", mode="nat_cross")
        assert hostlo_rate > nat_rate
        # Beats NAT comfortably, with stable latencies.
        assert hostlo < result.value("latency_us", mode="nat_cross")
        assert (result.value("latency_cv", mode="hostlo")
                < result.value("latency_cv", mode="nat_cross"))

    def test_nginx_hostlo_between_samenode_and_nat(self):
        result = run_experiment("fig13", CONFIG)
        hostlo = result.value("latency_us", mode="hostlo")
        nat = result.value("latency_us", mode="nat_cross")
        overlay = result.value("latency_us", mode="overlay")
        assert hostlo < nat and hostlo < overlay


class TestFig14And15Cpu:
    def test_nginx_cpu_overheads(self):
        result = run_experiment("fig15", CONFIG)

        def total(mode):
            return sum(
                r["total_cores"] for r in result.rows
                if r["mode"] == mode and r["entity"].startswith("vm:")
            )

        increase = total("hostlo") / total("samenode") - 1
        assert 0.0 <= increase <= 0.50  # paper ≈ +17.1 %

    def test_host_kernel_time_present_for_hostlo(self):
        result = run_experiment("fig14", CONFIG)
        hostlo_sys = result.value("sys_cores", mode="hostlo", entity="host")
        assert hostlo_sys > 0.2  # vhost + hostlo worker cores
        # Two VMs must be busy under hostlo.
        vm_rows = [r for r in result.rows
                   if r["mode"] == "hostlo" and r["entity"].startswith("vm:")]
        assert len(vm_rows) == 2
        assert all(r["total_cores"] > 0 for r in vm_rows)
