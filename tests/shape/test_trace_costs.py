"""Shape test: traced per-stage cycles agree with the cost model.

The tracer annotates every ``datapath.stage`` span with the cycles it
charged; those must match what :mod:`repro.net.costs` says each stage
of the resolved path should cost — the trace is a faithful record of
the model, not an approximation of it.  BrFusion's whole point (§3) is
a shorter datapath than NAT, so the traced stage list must show it.
"""

import pytest

from repro import obs
from repro.core import build_scenario
from repro.core.testbed import default_testbed

NBYTES = 1280


def traced_stage_spans(mode, nbytes=NBYTES):
    """Run one forward transfer under *mode*; return (path, stage spans)."""
    with obs.capture() as (tracer, _metrics):
        tb = default_testbed(seed=11, vms=2)
        scenario = build_scenario(tb, mode)
        forward, _reverse = scenario.paths()
        tb.env.run(until=tb.env.process(tb.engine.transfer(forward, nbytes)))
        return tb, forward, tracer.spans_in("datapath.stage")


def expected_cycles(tb, path, nbytes=NBYTES):
    """Per-stage cycles straight from the cost model (unbatched)."""
    segments = path.segments_for(nbytes)
    out = []
    for st in path.stages:
        cost = tb.engine.cost_model[st.stage]
        packets = 1 if cost.per_message else segments
        out.append(cost.cycles(packets, nbytes, batched=False) * st.multiplier)
    return out


@pytest.mark.parametrize(
    "mode", ["nat", "brfusion"]
)
class TestTracedCyclesMatchCostModel:
    def test_one_span_per_stage_in_order(self, mode):
        _tb, path, spans = traced_stage_spans(mode)
        assert [s.name for s in spans] == [st.stage for st in path.stages]
        assert [s.attrs["domain"] for s in spans] == [
            st.domain for st in path.stages
        ]

    def test_per_stage_cycles_match(self, mode):
        tb, path, spans = traced_stage_spans(mode)
        traced = [s.attrs["cycles"] for s in spans]
        assert traced == pytest.approx(expected_cycles(tb, path))

    def test_total_cycles_match(self, mode):
        tb, path, spans = traced_stage_spans(mode)
        assert sum(s.attrs["cycles"] for s in spans) == pytest.approx(
            sum(expected_cycles(tb, path))
        )

    def test_accounts_match_cost_model(self, mode):
        tb, path, spans = traced_stage_spans(mode)
        assert [s.attrs["account"] for s in spans] == [
            tb.engine.cost_model[st.stage].account for st in path.stages
        ]


class TestBrFusionShorterPath:
    def test_brfusion_traces_fewer_stages_than_nat(self):
        _, nat_path, nat_spans = traced_stage_spans("nat")
        _, br_path, br_spans = traced_stage_spans("brfusion")
        assert len(br_spans) < len(nat_spans)
        # and cheaper in total cycles, matching fig 4's ordering
        assert sum(s.attrs["cycles"] for s in br_spans) < sum(
            s.attrs["cycles"] for s in nat_spans
        )

    def test_nat_only_stages_absent_from_brfusion(self):
        _, _, nat_spans = traced_stage_spans("nat")
        _, _, br_spans = traced_stage_spans("brfusion")
        nat_stages = {s.name for s in nat_spans}
        br_stages = {s.name for s in br_spans}
        # The guest-side NAT machinery is exactly what BrFusion removes.
        assert "netfilter_nat" in nat_stages
        assert "netfilter_nat" not in br_stages


class TestTransferParentSpan:
    def test_stages_nest_under_the_transfer(self):
        with obs.capture() as (tracer, _):
            tb = default_testbed(seed=11, vms=2)
            scenario = build_scenario(tb, "nat")
            forward, _reverse = scenario.paths()
            tb.env.run(
                until=tb.env.process(tb.engine.transfer(forward, NBYTES))
            )
            parents = tracer.spans_in("datapath.transfer")
            assert len(parents) == 1
            parent = parents[0]
            assert parent.attrs["nbytes"] == NBYTES
            assert parent.attrs["stages"] == len(forward.stages)
            for stage in tracer.spans_in("datapath.stage"):
                assert stage.parent == parent.sid
            # the transfer span covers all of its stages
            assert parent.end == tb.env.now
