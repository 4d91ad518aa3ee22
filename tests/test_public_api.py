"""The top-level package surface stays importable and coherent."""

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_thirty_second_workflow():
    """The README's 'from Python' snippet, end to end."""
    tb = repro.default_testbed(vms=2)
    scenario = repro.build_scenario(tb, "brfusion")
    from repro.workloads import NetperfTcpStream

    result = NetperfTcpStream(window=16).run(scenario, 1280, duration_s=0.005)
    assert result.throughput_mbps > 100


def test_netstack_exports_resolve():
    import repro.netstack

    for name in repro.netstack.__all__:
        assert getattr(repro.netstack, name) is not None
    assert "offloaded_nsm" in repro.netstack.backend_names()


def test_net_exports_nsm_devices():
    import repro.net

    for name in repro.net.__all__:
        assert getattr(repro.net, name) is not None
    assert repro.net.NsmPort and repro.net.NsmHostStack


def test_service_exports_resolve():
    import repro.service

    for name in repro.service.__all__:
        assert getattr(repro.service, name) is not None


def test_traces_streaming_exports_resolve():
    import repro.traces

    for name in ("iter_users", "iter_pods", "stream_statistics",
                 "BoundedWindow"):
        assert getattr(repro.traces, name) is not None


def test_subpackages_import():
    import repro.analysis
    import repro.containers
    import repro.core
    import repro.costsim
    import repro.faults
    import repro.harness
    import repro.health
    import repro.metrics
    import repro.net
    import repro.netstack
    import repro.obs
    import repro.orchestrator
    import repro.service
    import repro.sim
    import repro.traces
    import repro.virt
    import repro.workloads

    assert repro.net.__doc__ and repro.sim.__doc__
