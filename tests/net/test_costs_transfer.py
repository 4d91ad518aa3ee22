"""Tests for the cost model and the transfer engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import predict_rr_latency, predict_stream_throughput
from repro.errors import ConfigurationError
from repro.net import CostModel, StageCost, resolve_path
from repro.net.addresses import ip
from repro.net.costs import JITTER, JitterModel
from repro.net.transfer import TransferEngine
from repro.sim import CpuResource, Environment, RngRegistry


class TestStageCost:
    def test_cycles_linear_in_packets_and_bytes(self):
        sc = StageCost("x", "sys", 1000, 2.0)
        assert sc.cycles(1, 0) == 1000
        assert sc.cycles(3, 100) == 3200

    def test_batching_amortizes_per_packet_only(self):
        sc = StageCost("x", "soft", 1000, 2.0, batch_factor=4.0)
        assert sc.cycles(4, 100, batched=True) == 1000 + 200
        assert sc.cycles(4, 100, batched=False) == 4000 + 200

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StageCost("x", "weird", 10)
        with pytest.raises(ConfigurationError):
            StageCost("x", "sys", -1)
        with pytest.raises(ConfigurationError):
            StageCost("x", "sys", 1, batch_factor=0.5)

    @given(st.integers(min_value=1, max_value=100),
           st.integers(min_value=0, max_value=10**6))
    def test_batched_never_costs_more(self, packets, nbytes):
        sc = StageCost("x", "soft", 1500, 0.3, batch_factor=3.0)
        assert sc.cycles(packets, nbytes, batched=True) <= sc.cycles(
            packets, nbytes, batched=False
        )


class TestCostModel:
    def test_default_has_all_resolver_stages(self):
        model = CostModel.default()
        needed = [
            "app_send", "app_recv", "syscall_send", "syscall_recv",
            "stack_tx", "stack_rx", "bridge_fwd", "netfilter_nat",
            "veth_xmit", "loopback_xmit", "virtio_tx", "virtio_rx",
            "vhost_tx", "vhost_rx", "tap_xmit", "hostlo_reflect",
            "vxlan_encap", "vxlan_decap",
        ]
        for name in needed:
            assert name in model, name

    def test_unknown_stage_raises(self):
        with pytest.raises(ConfigurationError):
            CostModel.default()["warp_drive"]

    def test_replace_makes_new_model(self):
        model = CostModel.default()
        new = model.replace(bridge_fwd=StageCost("bridge_fwd", "soft", 1.0))
        assert new["bridge_fwd"].cycles_per_packet == 1.0
        assert model["bridge_fwd"].cycles_per_packet != 1.0

    def test_replace_unknown_stage_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel.default().replace(nope=StageCost("nope", "sys", 1.0))

    def test_scale(self):
        model = CostModel.default()
        doubled = model.scale("netfilter_nat", 2.0)
        assert doubled["netfilter_nat"].cycles_per_packet == pytest.approx(
            2 * model["netfilter_nat"].cycles_per_packet
        )

    def test_per_message_stages(self):
        model = CostModel.default()
        assert model["app_send"].per_message
        assert not model["bridge_fwd"].per_message

    def test_hostlo_reflect_not_batchable(self):
        assert CostModel.default()["hostlo_reflect"].batch_factor == 1.0


class TestJitter:
    def test_known_classes(self):
        for name in ("clean", "hostlo", "virt", "nat", "overlay"):
            assert name in JITTER

    def test_sample_mean_near_one(self):
        rng = RngRegistry(1).stream("jitter")
        samples = [JITTER["nat"].sample(rng) for _ in range(4000)]
        mean = sum(samples) / len(samples)
        assert 0.9 < mean < 1.1

    def test_zero_sigma_is_deterministic(self):
        rng = RngRegistry(1).stream("jitter")
        assert JitterModel(0.0).sample(rng) == 1.0

    def test_overlay_noisier_than_clean(self):
        rng_a = RngRegistry(1).stream("a")
        rng_b = RngRegistry(1).stream("b")
        import numpy as np

        noisy = np.std([JITTER["overlay"].sample(rng_a) for _ in range(3000)])
        calm = np.std([JITTER["clean"].sample(rng_b) for _ in range(3000)])
        assert noisy > calm


def _engine_with_topo(nocont_topo):
    env = Environment()
    eng = TransferEngine(env)
    eng.register_domain("host", CpuResource(env, cores=12, name="host"))
    eng.register_domain("client", CpuResource(env, cores=2, name="client"))
    eng.register_domain("vm:vm1", CpuResource(env, cores=5, name="vm1"))
    path = resolve_path(nocont_topo.client, ip("192.168.122.11"), 8080)
    return env, eng, path


class TestTransferEngine:
    def test_duplicate_domain_rejected(self):
        env = Environment()
        eng = TransferEngine(env)
        eng.register_domain("host", CpuResource(env))
        with pytest.raises(ConfigurationError):
            eng.register_domain("host", CpuResource(env))

    def test_unknown_domain_raises(self):
        eng = TransferEngine(Environment())
        with pytest.raises(ConfigurationError):
            eng.cpu("nowhere")

    def test_transfer_takes_time_and_bills_cpus(self, nocont_topo):
        env, eng, path = _engine_with_topo(nocont_topo)
        env.process(eng.transfer(path, 1280))
        env.run()
        assert env.now > 0
        assert eng.cpu("vm:vm1").busy_seconds() > 0
        assert eng.cpu("host").busy_seconds() > 0
        assert eng.cpu("client").busy_seconds() > 0

    def test_latency_estimate_matches_uncontended_run(self, nocont_topo):
        env, eng, path = _engine_with_topo(nocont_topo)
        est = eng.latency_estimate(path, 1280)
        env.process(eng.transfer(path, 1280))
        env.run()
        assert env.now == pytest.approx(est, rel=1e-9)

    def test_bigger_message_takes_longer(self, nocont_topo):
        env, eng, path = _engine_with_topo(nocont_topo)
        small = eng.latency_estimate(path, 64)
        big = eng.latency_estimate(path, 16384)
        assert big > small

    def test_round_trip_runs_both_paths(self, nocont_topo):
        env, eng, path = _engine_with_topo(nocont_topo)
        reverse = resolve_path(nocont_topo.guest, ip("192.168.122.100"), 4000)
        env.process(eng.round_trip(path, reverse, 1280, 1280))
        env.run()
        one_way = eng.latency_estimate(path, 1280)
        assert env.now > one_way

    def test_bottleneck_rate_positive_finite(self, nocont_topo):
        env, eng, path = _engine_with_topo(nocont_topo)
        rate = eng.bottleneck_rate(path, 1280)
        assert 0 < rate < float("inf")

    def test_trace_timeline_is_ordered_and_complete(self, nocont_topo):
        env, eng, path = _engine_with_topo(nocont_topo)
        timeline = eng.trace(path, 1280)
        assert len(timeline) == len(path.stages)
        assert [t.stage for t in timeline] == list(path.stage_names())
        for earlier, later in zip(timeline, timeline[1:]):
            assert later.started_at >= earlier.finished_at - 1e-12
        total = timeline[-1].finished_at - timeline[0].started_at
        assert total == pytest.approx(eng.latency_estimate(path, 1280))

    def test_trace_separates_service_and_deferral(self, nocont_topo):
        env, eng, path = _engine_with_topo(nocont_topo)
        timeline = eng.trace(path, 1280)
        virtio_rx = next(t for t in timeline if t.stage == "virtio_rx")
        assert virtio_rx.deferral_s > virtio_rx.service_s  # IRQ injection
        app = next(t for t in timeline if t.stage == "app_send")
        assert app.deferral_s == 0.0

    def test_stream_mode_not_slower(self, nocont_topo):
        env, eng, path = _engine_with_topo(nocont_topo)

        def run(stream):
            env_local = Environment()
            local = TransferEngine(env_local)
            local.register_domain("host", CpuResource(env_local, cores=12))
            local.register_domain("client", CpuResource(env_local, cores=2))
            local.register_domain("vm:vm1", CpuResource(env_local, cores=5))
            env_local.process(local.transfer(path, 14480, stream=stream))
            env_local.run()
            return env_local.now

        assert run(True) <= run(False)


class TestStagePlan:
    def test_analytics_create_no_cpus(self, nocont_topo):
        # The lazy kernel-thread CPUs must first appear with the first
        # job that runs on them: their creation time and order feed the
        # CPU breakdowns.
        env, eng, path = _engine_with_topo(nocont_topo)
        assert any(d.startswith("kthread:") for d in path.domains())
        before = eng.domains()
        eng.bottleneck_rate(path, 1280)
        eng.latency_estimate(path, 1280)
        predict_stream_throughput(eng, path, path, 1280)
        predict_rr_latency(eng, path, path, 1280)
        assert eng.domains().keys() == before.keys()
        env.process(eng.transfer(path, 1280))
        env.step()  # starts the process: plans the message, runs stage 1
        assert eng.domains().keys() == before.keys()
        env.run()
        assert eng.kernel_threads()

    def test_every_job_resolves_its_cpu_through_the_engine(self, nocont_topo):
        # Callers hook ``engine.cpu`` to count jobs per domain.
        env, eng, path = _engine_with_topo(nocont_topo)
        lookup, seen = eng.cpu, []
        eng.cpu = lambda domain: seen.append(domain) or lookup(domain)
        for _ in range(2):
            env.process(eng.transfer(path, 1280))
            env.run()
        jobs = [t.domain for t in eng.trace(path, 1280) if t.cycles > 0]
        assert seen == jobs * 3

    def test_memo_is_bounded_and_keyed_on_stream(self, nocont_topo):
        import dataclasses

        from repro.net import transfer as transfer_mod

        env, eng, path = _engine_with_topo(nocont_topo)
        copies = [dataclasses.replace(path)
                  for _ in range(transfer_mod._PLAN_MEMO_SIZE + 5)]
        for copy in copies:
            env.process(eng.transfer(copy, 1280))
            env.run()
            assert len(eng._plans) <= transfer_mod._PLAN_MEMO_SIZE
        env.process(eng.transfer(path, 1280, stream=True))
        begun = env.now
        env.run()
        streamed = env.now - begun
        env.process(eng.transfer(path, 1280))
        begun = env.now
        env.run()
        assert env.now - begun == pytest.approx(
            eng.latency_estimate(path, 1280), rel=1e-12)
        assert streamed < env.now - begun
