"""Job vocabulary: keys, validation, cache addresses, the worker fn."""

import json

import pytest

from repro.errors import ServiceError
from repro.service import jobs
from repro.traces import iter_users, stream_statistics
from repro.traces.google import TraceConfig


class TestJobKey:
    def test_experiment_key_uses_campaign_grammar(self):
        key = jobs.job_key("experiment", {
            "experiment": "fig08", "preset": "quick", "seed": 3,
        })
        assert key == "fig08@quick#s3"

    def test_overrides_fold_into_a_digest_suffix(self):
        base = {"experiment": "fig08", "preset": "quick", "seed": 3}
        plain = jobs.job_key("experiment", base)
        a = jobs.job_key("experiment",
                         base | {"overrides": {"boot_runs": 5}})
        b = jobs.job_key("experiment",
                         base | {"overrides": {"boot_runs": 6}})
        assert a != plain and a != b
        assert a.startswith(plain + "+") and len(a) == len(plain) + 9

    def test_trace_and_sleep_keys(self):
        assert jobs.job_key("trace", {"seed": 7, "users": 100}) == \
            "trace:s7:u100"
        assert jobs.job_key("sleep", {"duration_s": 1.5, "label": "x"}) == \
            "sleep:1.5:x"

    def test_unknown_kind(self):
        with pytest.raises(ServiceError):
            jobs.job_key("bogus", {})


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown job kind"):
            jobs.validate_payload("bogus", {})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ServiceError, match="unknown experiment"):
            jobs.validate_payload("experiment", {"experiment": "fig99"})

    def test_bad_trace_users_rejected(self):
        with pytest.raises(ServiceError, match="users"):
            jobs.validate_payload("trace", {"users": 0})

    def test_negative_sleep_rejected(self):
        with pytest.raises(ServiceError, match="duration"):
            jobs.validate_payload("sleep", {"duration_s": -1})


class TestCacheKeys:
    def test_experiment_key_matches_the_campaign_cache(self):
        """The service and ``--cache`` campaign runs share entries."""
        import dataclasses

        from repro.campaign.cache import job_cache_key
        from repro.campaign.spec import JobSpec
        from repro.harness.config import ExperimentConfig

        payload = {"experiment": "fig08", "preset": "quick", "seed": 3}
        spec = JobSpec(
            experiment="fig08", preset="quick", seed=3,
            config=dataclasses.replace(
                ExperimentConfig.preset("quick"), seed=3
            ),
        )
        assert jobs.cache_key_for("experiment", payload) == \
            job_cache_key(spec)

    def test_sleep_is_not_cacheable(self):
        assert jobs.cache_key_for("sleep", {"duration_s": 1.0}) is None

    def test_trace_key_varies_with_inputs(self):
        keys = {
            jobs.cache_key_for("trace", {"seed": 1, "users": 100}),
            jobs.cache_key_for("trace", {"seed": 2, "users": 100}),
            jobs.cache_key_for("trace", {"seed": 1, "users": 200}),
            jobs.cache_key_for("trace", {"seed": 1, "users": 100,
                                         "chunk": 64}),
        }
        assert len(keys) == 4
        assert jobs.cache_key_for("trace", {"seed": 1, "users": 100}) in keys


class TestRunPayload:
    def test_sleep_envelope(self):
        out = jobs.run_payload("sleep", {"duration_s": 0.0, "label": "t"})
        assert set(out) == {"result_json", "wall_s"}
        doc = json.loads(out["result_json"])
        assert doc["experiment"] == "sleep"
        assert doc["rows"][0]["label"] == "t"

    def test_fail_knob_raises(self):
        with pytest.raises(ServiceError, match="asked to fail"):
            jobs.run_payload("sleep", {"fail": True, "label": "f"})

    def test_worker_caps_shipped_sim_records(self, monkeypatch):
        monkeypatch.setattr(jobs, "TRACE_RECORD_LIMIT", 5)
        out = jobs.run_payload(
            "experiment", {"experiment": "fig08", "preset": "quick"},
            trace={"trace_id": "t1", "span_id": "w1"},
        )
        assert len(out["trace"]["records"]) == 5
        assert out["trace"]["truncated"] is True

    def test_trace_job_matches_direct_streaming(self):
        out = jobs.run_payload("trace", {"seed": 5, "users": 300,
                                         "chunk": 128})
        row = json.loads(out["result_json"])["rows"][0]
        expected = stream_statistics(
            iter_users(TraceConfig(seed=5, users=300), chunk=128)
        )
        for key, value in expected.items():
            assert row[key] == pytest.approx(value)
