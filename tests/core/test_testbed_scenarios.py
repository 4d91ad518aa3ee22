"""Tests for the Testbed facade and the seven scenario builders."""

import pytest

from repro.core import Testbed, build_scenario
from repro.core.testbed import default_testbed
from repro.errors import ConfigurationError


@pytest.fixture
def tb():
    return default_testbed(seed=1, vms=2)


class TestTestbed:
    def test_default_testbed_shape(self, tb):
        assert tb.host.cpu.cores == 12
        assert tb.vm("vm0").vcpus == 5
        assert tb.client_cpu.cores == 2

    def test_domains_registered(self, tb):
        for domain in ("host", "client", "vm:vm0", "vm:vm1"):
            tb.check_domain(domain)

    def test_client_address_on_bridge_subnet(self, tb):
        assert tb.client_address in tb.host.bridge_network("virbr0")

    def test_zero_vms_rejected(self):
        with pytest.raises(ConfigurationError):
            default_testbed(vms=0)

    def test_breakdowns_cover_entities(self, tb):
        tb.reset_accounting()
        bd = tb.breakdowns()
        assert set(bd) == {"host", "client", "vm:vm0", "vm:vm1"}


EXTERNAL = ["nat", "brfusion", "nocont"]
INTRA = ["samenode", "hostlo", "overlay", "nat_cross"]


class TestScenarioBuilders:
    @pytest.mark.parametrize("mode", EXTERNAL + INTRA)
    def test_builds_and_resolves_both_protocols(self, tb, mode):
        scenario = build_scenario(tb, mode)
        for proto in ("tcp", "udp"):
            forward, reverse = scenario.paths(proto)
            assert forward.stages and reverse.stages

    @pytest.mark.parametrize("mode", EXTERNAL)
    def test_external_scenarios_start_at_client(self, tb, mode):
        scenario = build_scenario(tb, mode)
        assert scenario.client_domain == "client"
        assert scenario.server_domain.startswith("vm:")

    def test_nat_vs_brfusion_vs_nocont_path_lengths(self):
        # Fresh testbed per configuration, as in the paper's methodology.
        lengths = {}
        for mode in EXTERNAL:
            scenario = build_scenario(default_testbed(seed=1, vms=2), mode)
            lengths[mode] = len(scenario.paths()[0].stages)
        assert lengths["brfusion"] == lengths["nocont"] < lengths["nat"]

    def test_intra_pod_orderings(self):
        lengths = {}
        for mode in INTRA:
            scenario = build_scenario(default_testbed(seed=1, vms=2), mode)
            lengths[mode] = len(scenario.paths()[0].stages)
        assert lengths["samenode"] < lengths["hostlo"]
        assert lengths["hostlo"] < lengths["nat_cross"]
        assert lengths["hostlo"] < lengths["overlay"]

    def test_hostlo_scenario_is_cross_vm(self, tb):
        scenario = build_scenario(tb, "hostlo")
        assert scenario.src_ns.domain != scenario.dst_ns.domain
        assert "hostlo_reflect" in scenario.paths()[0].stage_names()

    def test_samenode_scenario_is_loopback(self, tb):
        scenario = build_scenario(tb, "samenode")
        assert "loopback_xmit" in scenario.paths()[0].stage_names()
        assert scenario.src_ns is scenario.dst_ns

    def test_nat_cross_traverses_two_nat_layers(self, tb):
        scenario = build_scenario(tb, "nat_cross")
        forward, reverse = scenario.paths()
        assert forward.count("netfilter_nat") >= 2  # masquerade + DNAT
        assert reverse.count("netfilter_nat") >= 2

    def test_split_scenarios_need_two_vms(self):
        tb = default_testbed(seed=1, vms=1)
        for mode in ("hostlo", "overlay", "nat_cross"):
            with pytest.raises(ConfigurationError, match="need 2 enrolled"):
                build_scenario(tb, mode)

    def test_unknown_mode_lists_every_key(self, tb):
        with pytest.raises(ConfigurationError) as err:
            build_scenario(tb, "bridge")
        assert str(err.value).endswith(
            "known modes: nat, brfusion, nocont, samenode, hostlo, overlay, "
            "nat_cross"
        )

    def test_multiple_scenarios_coexist_on_distinct_ports(self, tb):
        first = build_scenario(tb, "nat", port=12865)
        second = build_scenario(tb, "nat", port=12866)
        assert first.name != second.name
        assert first.dst_port != second.dst_port

    def test_port_collision_is_detected(self, tb):
        from repro.errors import TopologyError

        build_scenario(tb, "nat", port=12865)
        with pytest.raises(TopologyError):
            build_scenario(tb, "nat", port=12865)
