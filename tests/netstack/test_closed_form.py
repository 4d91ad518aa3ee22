"""Differential oracle: the engine's closed form against the DES, for
every registered backend on testbeds of any clock and core count."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.testbed import Testbed
from repro.harness.reliability import WireRig
from repro.netstack import backend, backend_names
from repro.sim import AllOf

#: Messages streamed, and how many are in flight at once.
STREAM_MSGS = 48
IN_FLIGHT = 8
#: Relative tolerance of both checks.
TOLERANCE = 1e-9


def one_message_s(engine, path, nbytes, model=None):
    """DES time of one message on idle CPUs."""
    env = engine.env
    begun = env.now
    env.run(until=env.process(engine.transfer(path, nbytes, cost_model=model)))
    return env.now - begun


def streamed_rate(engine, path, nbytes, model=None):
    """Messages/s of ``STREAM_MSGS`` messages, ``IN_FLIGHT`` at a time."""
    env = engine.env

    def streamer(count):
        for _ in range(count):
            yield from engine.transfer(path, nbytes, stream=True,
                                       cost_model=model)

    begun = env.now
    env.run(until=AllOf(env, [env.process(streamer(STREAM_MSGS // IN_FLIGHT))
                              for _ in range(IN_FLIGHT)]))
    return STREAM_MSGS / (env.now - begun)


def assert_oracle(engine, path, nbytes, model=None):
    estimate = engine.latency_estimate(path, nbytes, cost_model=model)
    bound = engine.bottleneck_rate(path, nbytes, cost_model=model)
    measured = one_message_s(engine, path, nbytes, model)
    assert abs(measured - estimate) <= TOLERANCE * estimate, (
        measured, estimate)
    rate = streamed_rate(engine, path, nbytes, model)
    assert rate <= bound * (1 + TOLERANCE), (rate, bound)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(backend_names()),
    nbytes=st.sampled_from((64, 1280, 16384)),
    freq_hz=st.floats(min_value=1.0e9, max_value=4.0e9),
    host_cores=st.integers(min_value=1, max_value=12),
    vcpus=st.integers(min_value=1, max_value=6),
)
def test_closed_form_matches_des_for_every_backend(
    name, nbytes, freq_hz, host_cores, vcpus
):
    """The uncontended DES latency equals ``latency_estimate``, and no
    number of messages in flight streams past ``bottleneck_rate``."""
    module = backend(name)
    tb = Testbed(freq_hz=freq_hz, host_cores=host_cores)
    for i in range(2):
        tb.add_vm(f"vm{i}", vcpus=vcpus)
    ep = module.attach(tb)
    assert_oracle(tb.engine, module.resolve(ep), nbytes,
                  module.cost_model(tb.engine.cost_model))


def test_closed_form_matches_des_across_a_wire():
    """The ``wire`` stage runs on the link's clock, not the CPUs'."""
    rig = WireRig(seed=7)
    assert_oracle(rig.engine, rig.path, 16384)
