"""The rolling-window SLO tracker and its multi-window burn alert."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.service.slo import (
    AVAILABILITY,
    LATENCY,
    OBJECTIVES,
    WINDOWS,
    SloConfig,
    SloTracker,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


def tracker(clock, **overrides) -> SloTracker:
    config = SloConfig(**{
        "availability_target": 0.9, "latency_target": 0.9,
        "latency_target_s": 1.0, "short_window_s": 10.0,
        "long_window_s": 100.0, "burn_threshold": 2.0, "min_samples": 4,
        **overrides,
    })
    return SloTracker(config, clock=clock)


class TestConfig:
    @pytest.mark.parametrize("bad", [
        {"availability_target": 0.0}, {"availability_target": 1.0},
        {"latency_target": 1.5}, {"latency_target_s": 0.0},
        {"short_window_s": 0.0}, {"short_window_s": 20.0,
                                  "long_window_s": 10.0},
        {"burn_threshold": 0.0}, {"min_samples": 0},
    ])
    def test_rejects_nonsense(self, bad):
        with pytest.raises(ConfigurationError):
            SloConfig(**bad)

    def test_window_and_target_lookups(self):
        config = SloConfig(short_window_s=5.0, long_window_s=50.0)
        assert config.window_s("short") == 5.0
        assert config.window_s("long") == 50.0
        assert config.target(AVAILABILITY) == config.availability_target
        assert config.target(LATENCY) == config.latency_target
        with pytest.raises(ConfigurationError):
            config.window_s("medium")
        with pytest.raises(ConfigurationError):
            config.target("durability")


class TestBurnRate:
    def test_no_events_burns_nothing(self, clock):
        slo = tracker(clock)
        assert slo.burn_rate(AVAILABILITY, 10.0) == 0.0
        assert not slo.alerting(AVAILABILITY)

    def test_burn_is_error_rate_over_budget(self, clock):
        slo = tracker(clock)  # budget = 0.1
        for ok in (True, True, False, False):
            slo.record_completion(ok=ok)
        # Error rate 0.5 over a 0.1 budget: burning 5x schedule.
        assert slo.burn_rate(AVAILABILITY, 10.0) == pytest.approx(5.0)

    def test_shed_counts_against_availability_only(self, clock):
        slo = tracker(clock)
        slo.record_shed()
        assert slo.burn_rate(AVAILABILITY, 10.0) == pytest.approx(10.0)
        assert slo.burn_rate(LATENCY, 10.0) == 0.0

    def test_latency_verdict_only_for_timed_successes(self, clock):
        slo = tracker(clock)
        slo.record_completion(ok=True, latency_s=0.5)   # good
        slo.record_completion(ok=True, latency_s=2.0)   # over budget
        slo.record_completion(ok=False)                 # no latency verdict
        slo.record_completion(ok=True)                  # untimed: skipped
        assert slo.burn_rate(LATENCY, 10.0) == pytest.approx(5.0)

    def test_events_age_out_of_the_window(self, clock):
        slo = tracker(clock)
        slo.record_completion(ok=False)
        clock.tick(11.0)
        slo.record_completion(ok=True)
        assert slo.burn_rate(AVAILABILITY, 10.0) == 0.0
        # ...but the long window still remembers the failure.
        assert slo.burn_rate(AVAILABILITY, 100.0) == pytest.approx(5.0)

    def test_pruning_beyond_the_long_window(self, clock):
        slo = tracker(clock)
        slo.record_completion(ok=False)
        clock.tick(101.0)
        slo.record_completion(ok=True)
        assert slo.describe()["window_events"] == 1
        assert slo.recorded == 2  # the lifetime counter never forgets


class TestAlerting:
    def test_fires_only_past_min_samples(self, clock):
        slo = tracker(clock)
        for _ in range(3):
            slo.record_completion(ok=False)
        assert not slo.alerting(AVAILABILITY)  # 3 < min_samples=4
        slo.record_completion(ok=False)
        assert slo.alerting(AVAILABILITY)

    def test_needs_both_windows_over_threshold(self, clock):
        slo = tracker(clock)
        # A long-ago burst: long window remembers, short window clean.
        for _ in range(6):
            slo.record_completion(ok=False)
        clock.tick(50.0)
        for _ in range(6):
            slo.record_completion(ok=True)
        assert slo.burn_rate(AVAILABILITY, 100.0) > slo.config.burn_threshold
        assert not slo.alerting(AVAILABILITY)

    def test_fires_then_clears_as_the_window_slides(self, clock):
        slo = tracker(clock)
        for _ in range(6):
            slo.record_completion(ok=False)
        assert slo.alerting(AVAILABILITY)
        clock.tick(11.0)  # failures leave the short window
        for _ in range(6):
            slo.record_completion(ok=True)
        assert not slo.alerting(AVAILABILITY)

    def test_describe_is_json_shaped(self, clock):
        slo = tracker(clock)
        slo.record_completion(ok=False)
        slo.record_completion(ok=True, latency_s=0.1)
        doc = slo.describe()
        assert doc["recorded"] == 2
        availability = doc["objectives"][AVAILABILITY]
        assert availability["events"] == 2 and availability["bad"] == 1
        assert set(availability["burn"]) == {"short", "long"}
        assert isinstance(availability["alerting"], bool)


class FullScan:
    """The reference tracker: every event kept as ``(at, verdicts)``,
    forgotten past the long window at each record, every answer a scan
    of all that are left."""

    def __init__(self, config: SloConfig, clock) -> None:
        self.config = config
        self.clock = clock
        self.events: list[tuple[float, tuple]] = []
        self.recorded = 0

    def record(self, availability, latency) -> None:
        now = self.clock()
        self.events.append((now, (availability, latency)))
        self.recorded += 1
        horizon = now - self.config.long_window_s
        self.events = [e for e in self.events if e[0] >= horizon]

    def counts(self, objective, window_s):
        index = OBJECTIVES.index(objective)
        horizon = self.clock() - window_s
        verdicts = [v[index] for at, v in self.events
                    if at >= horizon and v[index] is not None]
        return len(verdicts), verdicts.count(False)

    def burn_rate(self, objective, window_s):
        events, bad = self.counts(objective, window_s)
        budget = 1.0 - self.config.target(objective)
        return (bad / events) / budget if events else 0.0

    def alerting(self, objective):
        events, _ = self.counts(objective, self.config.short_window_s)
        return events >= self.config.min_samples and all(
            self.burn_rate(objective, self.config.window_s(window))
            > self.config.burn_threshold for window in WINDOWS)

    def describe(self):
        objectives = {}
        for objective in OBJECTIVES:
            events, bad = self.counts(objective, self.config.long_window_s)
            objectives[objective] = {
                "target": self.config.target(objective),
                "events": events,
                "bad": bad,
                "burn": {window: round(self.burn_rate(
                    objective, self.config.window_s(window)), 4)
                    for window in WINDOWS},
                "alerting": self.alerting(objective),
            }
        return {"recorded": self.recorded,
                "window_events": len(self.events),
                "objectives": objectives}


class TestAgainstFullScan:
    @pytest.mark.parametrize("seed", range(6))
    def test_windows_match_a_brute_force_scan(self, clock, seed):
        """Random completions and sheds over bursts, slides past the
        long window and repeated compaction: every verdict equals a
        full scan of the same events."""
        rng = random.Random(seed)
        slo = tracker(clock, min_samples=3)
        reference = FullScan(slo.config, clock)
        for _ in range(800):
            clock.tick(rng.choice((0.0, 0.0, 0.05, 0.5, 2.0, 9.0)))
            if rng.random() < 0.02:
                clock.tick(rng.uniform(100.0, 250.0))  # past long
            if rng.random() < 0.15:
                slo.record_shed()
                reference.record(False, None)
            else:
                ok = rng.random() < 0.8
                latency = rng.choice((None, rng.uniform(0.0, 1.6)))
                slo.record_completion(ok=ok, latency_s=latency)
                reference.record(
                    ok, latency <= 1.0
                    if ok and latency is not None else None)
            if rng.random() < 0.3:
                clock.tick(rng.uniform(0.0, 30.0))  # query later
            for objective in OBJECTIVES:
                for window_s in (0.5, 10.0, 55.0, 100.0, 400.0):
                    assert slo.burn_rate(objective, window_s) == \
                        reference.burn_rate(objective, window_s)
                assert slo.alerting(objective) == \
                    reference.alerting(objective)
            assert slo.describe() == reference.describe()
        assert slo._base != (0, 0, 0, 0)  # compaction really ran


class TestHealthCheck:
    def test_service_slo_violation_surfaces_objective_and_burns(self, clock):
        from repro.service.health import slo_within_budget

        slo = tracker(clock)
        for _ in range(6):
            slo.record_completion(ok=False)

        class FakeService:
            pass

        service = FakeService()
        service.slo = slo
        violations = slo_within_budget(service)
        assert [v.subject for v in violations] == [AVAILABILITY]
        assert violations[0].check == "service.slo"
        assert "burn" in violations[0].detail

    def test_service_without_tracker_is_vacuously_healthy(self):
        from repro.service.health import slo_within_budget

        class Bare:
            pass

        assert slo_within_budget(Bare()) == []
