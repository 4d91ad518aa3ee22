"""The fabric experiment: ECMP spread, incast overflow, elephant
re-pinning, fault reroute, rack-aware placement — and its config knobs."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.harness import fabric
from repro.harness.config import ExperimentConfig
from repro.harness.registry import EXPERIMENTS, describe


def small_config():
    return dataclasses.replace(
        ExperimentConfig.preset("quick"),
        trace_users=16, fabric_flows=8, fabric_frames=8,
    )


@pytest.fixture(scope="module")
def result():
    return fabric.run(small_config())


class TestRegistration:
    def test_registered_and_described(self):
        assert "fabric" in EXPERIMENTS
        assert describe("fabric").startswith("Fabric:")

    def test_result_identity(self, result):
        assert result.experiment == "fabric"
        assert result.rows


class TestLanes:
    def test_ecmp_uses_multiple_uplinks(self, result):
        (row,) = result.select(scenario="ecmp-spread")
        assert row["uplinks_used"] >= 2
        assert row["delivered"] == row["sent"]

    def test_incast_overflows_the_bounded_rings(self, result):
        (row,) = result.select(scenario="incast")
        assert row["overflow_drops"] > 0
        assert row["delivered"] + row["overflow_drops"] <= row["sent"] + \
            row["serviced_frames"]

    def test_repinning_reduces_the_hottest_uplink(self, result):
        hash_max = result.value("max_uplink_bytes",
                                scenario="elephant-mice", mode="hash")
        repin_row, = result.select(scenario="elephant-mice",
                                   mode="repinned")
        assert repin_row["max_uplink_bytes"] < hash_max
        assert repin_row["max_reduction_pct"] > 0
        assert repin_row["repins_moved"] >= 1

    def test_link_down_reroutes_every_flow(self, result):
        (row,) = result.select(scenario="link-down")
        assert row["reroute_ok"]
        assert row["fault_events"] == 2  # down, then restore

    def test_rack_awareness_beats_fullness_only(self, result):
        baseline = result.value("mean_distance", scenario="rack-sched",
                                mode="most-requested")
        aware = result.value("mean_distance", scenario="rack-sched",
                             mode="rack-aware")
        assert aware < baseline

    def test_reflection_tax_objective_reduces_effective_cost(self, result):
        dollars = result.select(scenario="reflection-cost",
                                mode="dollars")[0]
        topo = result.select(scenario="reflection-cost",
                             mode="topology")[0]
        assert topo["effective_cost_per_h"] <= \
            dollars["effective_cost_per_h"]

    def test_reflection_cost_ignores_process_history(self):
        """VM names, which place VMs on the fabric, come from each
        assignment, so a second run in the same process (as in a
        long-lived service worker) prices the same."""
        first = fabric.run_reflection_cost(small_config())
        assert fabric.run_reflection_cost(small_config()) == first

    def test_zero_invariant_violations_everywhere(self, result):
        assert all(row["violations"] == 0 for row in result.rows)


class TestConfigKnobs:
    @pytest.mark.parametrize("field,value", [
        ("fabric_k", 3),
        ("fabric_k", 2),
        ("fabric_hosts_per_edge", 0),
        ("fabric_hosts_per_edge", 3),
        ("fabric_flows", 0),
        ("fabric_frames", 0),
        ("fabric_queue_capacity", 0),
    ])
    def test_bad_fabric_settings_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(ExperimentConfig(), **{field: value})

    def test_presets_scale_the_fabric_load(self):
        quick = ExperimentConfig.preset("quick")
        full = ExperimentConfig.preset("full")
        assert quick.fabric_flows < full.fabric_flows
        assert quick.fabric_frames < full.fabric_frames
