"""Property fuzzing: random pods, random modes — the invariants hold.

For arbitrary (but feasible) deployments, the analytic resolver and the
frame-level data plane must agree, paths must terminate, and BrFusion's
structural guarantee (no guest NAT/bridge stages) must hold for every
pod shape.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_scenario
from repro.core.testbed import Testbed
from repro.net import resolve_path
from repro.net.forwarding import ForwardingEngine
from repro.orchestrator.pod import ContainerSpec, PodSpec

MODES = st.sampled_from([
    "nat",
    "brfusion",
    "samenode",
    "hostlo",
    "overlay",
])

PORTS = st.integers(min_value=1024, max_value=60000)


@settings(max_examples=30, deadline=None)
@given(mode=MODES, port=PORTS, seed=st.integers(min_value=0, max_value=2**31))
def test_scenarios_resolve_and_frames_agree(mode, port, seed):
    tb = Testbed(seed=seed)
    tb.add_vm("vm0")
    tb.add_vm("vm1")
    scenario = build_scenario(tb, mode, port=port)
    path = resolve_path(scenario.src_ns, scenario.dst_addr, scenario.dst_port)
    assert path.stages
    assert path.segment_payload > 0
    delivery = ForwardingEngine().send(
        scenario.src_ns, scenario.dst_addr, scenario.dst_port
    )
    assert delivery.delivered, delivery.hops
    assert delivery.namespace == scenario.dst_ns.name


@settings(max_examples=25, deadline=None)
@given(
    n_containers=st.integers(min_value=1, max_value=4),
    cpu=st.floats(min_value=0.25, max_value=1.2),   # ≤ 4×1.2 < 5 vCPUs
    memory=st.floats(min_value=0.25, max_value=0.9),  # ≤ 4×0.9 < 4 GB
    port=PORTS,
)
def test_brfusion_pods_never_gain_guest_nat(n_containers, cpu, memory, port):
    tb = Testbed(seed=7)
    tb.add_vm("vm0")
    spec = PodSpec(
        "fuzz",
        containers=tuple(
            ContainerSpec(
                f"c{i}", "alpine", cpu=cpu, memory_gb=memory,
                publish=((("tcp", port, port),) if i == 0 else ()),
            )
            for i in range(n_containers)
        ),
    )
    dep = tb.deploy(spec, network="brfusion")
    addr, ext_port = dep.external_endpoints["c0"]
    path = resolve_path(tb.client_ns, addr, ext_port)
    assert path.count("netfilter_nat") == 0
    assert path.count("bridge_fwd") == 1  # the host bridge only
    assert path.count("veth_xmit") == 1  # the client's leg only


@settings(max_examples=20, deadline=None)
@given(
    cpu_a=st.floats(min_value=2.6, max_value=4.5),
    cpu_b=st.floats(min_value=2.6, max_value=4.5),
    port=PORTS,
)
def test_hostlo_split_pods_always_reflect(cpu_a, cpu_b, port):
    tb = Testbed(seed=9)
    tb.add_vm("vm0")
    tb.add_vm("vm1")
    spec = PodSpec(
        "fuzz",
        containers=(
            ContainerSpec("a", "alpine", cpu=cpu_a, memory_gb=1),
            ContainerSpec("b", "alpine", cpu=cpu_b, memory_gb=1),
        ),
    )
    dep = tb.deploy(spec, network="hostlo", allow_split=True)
    assert dep.is_split  # cpu_a + cpu_b > 5 always here
    path = resolve_path(dep.namespace_of("a"), dep.intra_address("b"), port)
    assert path.count("hostlo_reflect") == 1
    assert path.count("bridge_fwd") == 0
    reflect = next(s for s in path.stages if s.stage == "hostlo_reflect")
    assert reflect.multiplier == 2.0
