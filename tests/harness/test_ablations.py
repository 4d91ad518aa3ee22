"""Tests for the design-choice ablations."""

import pytest

from tests.harness.test_golden import quick_result


@pytest.fixture(scope="module")
def hostlo_thread():
    return quick_result("ablation_hostlo_thread")


class TestHostloThreadAblation:
    def test_throughput_scales_with_reflect_cores(self, hostlo_thread):
        rows = sorted(hostlo_thread.rows, key=lambda r: r["reflect_cores"])
        throughputs = [r["throughput_mbps"] for r in rows]
        assert throughputs == sorted(throughputs)
        # Removing the serialization at least doubles throughput.
        assert throughputs[-1] > 2.0 * throughputs[0]

    def test_diminishing_returns(self, hostlo_thread):
        # Once the kthread stops binding, another bottleneck takes over:
        # the last doubling of cores gains less than the first.
        rows = sorted(hostlo_thread.rows, key=lambda r: r["reflect_cores"])
        gain_first = rows[1]["throughput_mbps"] / rows[0]["throughput_mbps"]
        gain_last = rows[3]["throughput_mbps"] / rows[2]["throughput_mbps"]
        assert gain_last < gain_first


class TestNetfilterAblation:
    def test_nat_sensitive_brfusion_immune(self):
        result = quick_result("ablation_netfilter_cost")

        def thr(mode, factor):
            return result.value("throughput_mbps", mode=mode,
                                netfilter_scale=factor)

        assert thr("nat", 4.0) < 0.6 * thr("nat", 0.5)
        assert thr("brfusion", 4.0) == pytest.approx(
            thr("brfusion", 0.5), rel=1e-6
        )


class TestNoBatchingAblation:
    def test_overlay_hurt_most_hostlo_least(self):
        result = quick_result("ablation_no_batching")

        def ratio(mode):
            unbatched = result.value("throughput_mbps", variant="unbatched",
                                     mode=mode)
            batched = result.value("throughput_mbps", variant="batched",
                                   mode=mode)
            return unbatched / batched

        assert ratio("overlay") < ratio("nocont") < 1.0
        assert ratio("hostlo") > ratio("overlay")
        hostlo_unbatched = result.value("throughput_mbps",
                                        variant="unbatched", mode="hostlo")
        hostlo_batched = result.value("throughput_mbps", variant="batched",
                                      mode="hostlo")
        assert hostlo_unbatched <= hostlo_batched


class TestRuleBloatAblation:
    def test_nat_degrades_brfusion_flat(self):
        result = quick_result("ablation_rule_bloat")

        def thr(mode, neighbors):
            return result.value("throughput_mbps", mode=mode,
                                neighbor_pods=neighbors)

        assert thr("nat", 19) < 0.9 * thr("nat", 0)
        assert thr("brfusion", 19) == pytest.approx(thr("brfusion", 0),
                                                    rel=1e-6)
        # Monotone decay for NAT.
        series = [thr("nat", n) for n in (0, 4, 9, 19)]
        assert series == sorted(series, reverse=True)


class TestSchedulerPolicyAblation:
    def test_hostlo_never_costs_more_than_kubernetes(self):
        result = quick_result("ablation_scheduler_policy")
        for row in result.rows:
            assert row["hostlo_cost_per_h"] <= row["kubernetes_cost_per_h"]
