"""Tests for the benchmark workloads."""

import pytest

from repro.core import build_scenario
from repro.core.testbed import default_testbed
from repro.errors import ConfigurationError
from repro.workloads import (
    KafkaProducerPerf,
    MemtierBenchmark,
    NetperfTcpStream,
    NetperfUdpRR,
    Wrk2Benchmark,
)


def scenario_for(mode, seed=3, image="netperf", port=12865):
    tb = default_testbed(seed=seed, vms=2)
    return build_scenario(tb, mode, image=image, port=port)


class TestTcpStream:
    def test_produces_throughput(self):
        scen = scenario_for("nocont")
        result = NetperfTcpStream(window=4).run(scen, 1280, duration_s=0.02)
        assert result.messages > 10
        assert result.throughput_mbps > 1
        assert result.bytes_transferred == result.messages * 1280

    def test_nat_slower_than_nocont(self):
        nocont = NetperfTcpStream(window=4).run(
            scenario_for("nocont"), 1280, duration_s=0.02
        )
        nat = NetperfTcpStream(window=4).run(
            scenario_for("nat"), 1280, duration_s=0.02
        )
        assert nat.throughput_bps < nocont.throughput_bps

    def test_throughput_grows_with_message_size(self):
        small = NetperfTcpStream(window=4).run(
            scenario_for("nocont"), 64, duration_s=0.02
        )
        big = NetperfTcpStream(window=4).run(
            scenario_for("nocont"), 8192, duration_s=0.02
        )
        assert big.throughput_bps > small.throughput_bps

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetperfTcpStream(window=0)
        scen = scenario_for("nocont")
        with pytest.raises(ConfigurationError):
            NetperfTcpStream().run(scen, 0)


class TestUdpRR:
    def test_produces_latency_stats(self):
        scen = scenario_for("nocont")
        result = NetperfUdpRR().run(scen, 1280, transactions=50)
        stats = result.latency
        assert stats.count == 50
        assert 0 < stats.mean < 0.01  # sub-10ms RTTs
        assert stats.p99 >= stats.p50

    def test_nat_latency_higher(self):
        nocont = NetperfUdpRR().run(
            scenario_for("nocont"), 1280, transactions=60
        )
        nat = NetperfUdpRR().run(
            scenario_for("nat"), 1280, transactions=60
        )
        assert nat.latency.mean > nocont.latency.mean

    def test_deterministic_given_seed(self):
        a = NetperfUdpRR().run(
            scenario_for("nat", seed=9), 256, transactions=20
        )
        b = NetperfUdpRR().run(
            scenario_for("nat", seed=9), 256, transactions=20
        )
        assert a.latency_samples == b.latency_samples


class TestMemtier:
    def test_runs_closed_loop(self):
        scen = scenario_for("samenode", image="memcached",
                            port=11211)
        bench = MemtierBenchmark(threads=2, connections_per_thread=10)
        result = bench.run(scen, duration_s=0.01)
        assert result.messages > 20
        assert result.latency.mean > 0

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            MemtierBenchmark(set_get_ratio=2.0)

    def test_hostlo_beats_nat_cross_latency(self):
        hostlo = MemtierBenchmark(threads=1, connections_per_thread=5).run(
            scenario_for("hostlo", image="memcached", port=11211),
            duration_s=0.01,
        )
        natx = MemtierBenchmark(threads=1, connections_per_thread=5).run(
            scenario_for("nat_cross", image="memcached",
                         port=11211),
            duration_s=0.01,
        )
        assert hostlo.latency.mean < natx.latency.mean


class TestWrk2:
    def test_open_loop_rate(self):
        scen = scenario_for("nocont", image="nginx", port=80)
        bench = Wrk2Benchmark(connections=20, rate_per_s=2000)
        result = bench.run(scen, duration_s=0.05)
        assert result.messages == 100  # rate × duration, all completed
        assert result.latency.count == 100

    def test_container_noise_heavier_than_native(self):
        native = Wrk2Benchmark(connections=20, rate_per_s=2000).run(
            scenario_for("nocont", image="nginx", port=80),
            duration_s=0.05,
        )
        nested = Wrk2Benchmark(connections=20, rate_per_s=2000).run(
            scenario_for("nat", image="nginx", port=80),
            duration_s=0.05,
        )
        assert nested.latency.cv > native.latency.cv


class TestKafka:
    def test_batching_math(self):
        bench = KafkaProducerPerf()
        assert bench.messages_per_batch == 81
        with pytest.raises(ValueError):
            KafkaProducerPerf(message_bytes=9000, batch_bytes=8192)

    def test_latency_in_millisecond_range(self):
        scen = scenario_for("nat", image="kafka", port=9092)
        result = KafkaProducerPerf().run(scen, duration_s=0.05)
        assert result.messages > 1000
        assert 1e-4 < result.latency.mean < 0.1


class TestTcpRRAndCRR:
    def test_tcp_rr_slower_than_udp_rr(self):
        from repro.workloads import NetperfTcpRR

        udp = NetperfUdpRR().run(
            scenario_for("nocont", seed=4), 1024, transactions=40
        )
        tcp = NetperfTcpRR().run(
            scenario_for("nocont", seed=4), 1024, transactions=40
        )
        assert tcp.latency.mean > udp.latency.mean  # per-transaction ACK leg

    def test_crr_pays_the_handshake(self):
        from repro.workloads import NetperfTcpCRR, NetperfTcpRR

        rr = NetperfTcpRR().run(
            scenario_for("nocont", seed=4), 1024, transactions=40
        )
        crr = NetperfTcpCRR().run(
            scenario_for("nocont", seed=4), 1024, transactions=40
        )
        # Connect+close adds roughly two extra path traversals.
        assert crr.latency.mean > 1.4 * rr.latency.mean

    def test_nat_pays_its_penalty_under_churn_too(self):
        from repro.workloads import NetperfTcpCRR

        nat = NetperfTcpCRR().run(
            scenario_for("nat", seed=4), 1024, transactions=40
        )
        nocont = NetperfTcpCRR().run(
            scenario_for("nocont", seed=4), 1024, transactions=40
        )
        # Every handshake segment traverses the duplicated layer.
        assert nat.latency.mean > 1.1 * nocont.latency.mean
