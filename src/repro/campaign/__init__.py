"""The campaign layer: parallel, cached, self-benchmarking evaluation.

The harness (one experiment at a time, in process) stops scaling the
moment the evaluation does: a full sweep is 20+ experiments × presets
× seeds, embarrassingly parallel, and almost always mostly identical
to the previous sweep.  This package turns that list into a
*campaign*:

* :mod:`repro.campaign.spec` — experiments × presets × seeds expanded
  into independent jobs with stable keys (``fig04@quick#s2019``);
* :mod:`repro.campaign.cache` — a content-addressed result store; the
  key hashes the job, the resolved config and a fingerprint of every
  ``repro`` source file, so unchanged jobs are instant hits and any
  code edit invalidates everything it could have affected;
* :mod:`repro.campaign.pool` — a spawn-safe worker pool with per-job
  timeouts and crashed-worker requeue-once recovery (bounded by the
  :mod:`repro.faults` :class:`~repro.faults.recovery.RetryPolicy`
  vocabulary);
* :mod:`repro.campaign.runner` — orchestration: cache probe, fan-out,
  ordered collection, per-worker span/metric merging into one trace;
* :mod:`repro.campaign.bench` — ``BENCH_campaign.json`` reports and
  the perf-regression gate against a committed baseline;
* :mod:`repro.campaign.experiment` — the registered ``campaign``
  experiment, a self-check that parallel == serial and warm == hits.

The contract that makes all of it safe: a campaign's results are
**bit-identical to the serial harness**, whatever the worker count and
whether they were computed or replayed from cache.

CLI::

    python -m repro.harness --jobs 4 --cache .cache/campaign
    python -m repro.harness fig04 fig08 --preset quick --jobs 2 \\
        --cache .cache --bench BENCH_campaign.json
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bench": [
        "assert_no_regression", "build_report", "compare", "load_report",
        "write_report",
    ],
    ".cache": [
        "CacheEntry", "ResultCache", "job_cache_key", "source_fingerprint",
    ],
    ".pool": ["Task", "WorkerPool"],
    ".runner": [
        "CampaignReport", "CampaignTrace", "JobOutcome", "run_campaign",
    ],
    ".spec": ["CampaignSpec", "JobSpec"],
})
