"""Golden hashes of the deterministic DES experiments (quick preset).

Each experiment's :meth:`ExperimentResult.to_json` output is reduced to
a canonical form — measured-only meta such as ``wall_s`` dropped, keys
sorted, compact separators — and hashed with sha256.  The hashes live
in ``GOLDEN_quick.json`` at the repository root.  A change to the
simulation kernel or the datapath that moves any simulated number,
however slightly, changes a hash here.

The hashes hold for the Python minor version recorded beside them:
``sum()`` over floats rounds differently from Python 3.12 on, so the
last bits of some rows depend on the interpreter.  On another version
the hash comparison is skipped rather than failed.

A change that is *meant* to move results must say why in CHANGES.md
and update ``GOLDEN_quick.json``; print the current hashes with::

    PYTHONPATH=src python tests/harness/test_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import platform
import sys

import pytest

from repro.harness import ExperimentConfig, run_experiment
from repro.harness.results import ExperimentResult

GOLDEN_PATH = pathlib.Path(__file__).resolve().parents[2] / "GOLDEN_quick.json"

#: Meta entries that describe a run (host timing, provenance) rather
#: than its simulated outcome.
MEASURED_META = frozenset({"wall_s", "config_fingerprint", "job_key"})

#: The deterministic experiments the golden file covers.
EXPERIMENTS = (
    "fig02", "fig04", "fig05", "fig06", "fig07", "fig08", "fig10",
    "fig11_12", "fig13", "fig14", "fig15", "table01", "table02", "netstack",
    "reliability", "chaos", "analytic_check",
    "ablation_hostlo_thread", "ablation_netfilter_cost",
    "ablation_rule_bloat", "ablation_no_batching",
    "fabric", "ablation_scheduler_policy", "online_cost",
)


def canonical(result: ExperimentResult) -> str:
    """The result's JSON with measured-only meta removed, keys sorted."""
    data = json.loads(result.to_json())
    data["meta"] = {k: v for k, v in data["meta"].items()
                    if k not in MEASURED_META}
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@functools.cache
def quick_result(experiment: str) -> ExperimentResult:
    """*experiment* at the quick preset, run once per test session.

    Tier-1 tests that assert on a quick result read this memo rather
    than run the experiment again; they must not mutate its rows.
    """
    return run_experiment(experiment, ExperimentConfig.preset("quick"))


def golden_hash(experiment: str) -> str:
    return hashlib.sha256(
        canonical(quick_result(experiment)).encode()).hexdigest()


def _python() -> str:
    return ".".join(platform.python_version_tuple()[:2])


def _recorded() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["sha256"]


def test_golden_file_covers_every_experiment():
    assert sorted(_recorded()) == sorted(EXPERIMENTS)


def test_canonical_drops_measured_meta_only():
    result = ExperimentResult(
        experiment="x", title="t", rows=({"a": 1.5},),
        meta={"wall_s": 3.2, "seed": 7},
    )
    assert canonical(result) == canonical(result.with_meta(wall_s=9.9))
    assert canonical(result) != canonical(result.with_meta(seed=8))


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_quick_result_matches_golden_hash(experiment):
    recorded_on = json.loads(GOLDEN_PATH.read_text())["python"]
    if _python() != recorded_on:
        pytest.skip(f"hashes recorded on Python {recorded_on}, "
                    f"running {_python()}")
    assert golden_hash(experiment) == _recorded()[experiment], (
        f"{experiment}: simulated results changed; if intended, explain "
        f"why in CHANGES.md and update {GOLDEN_PATH.name}"
    )


if __name__ == "__main__":
    hashes = {e: golden_hash(e) for e in EXPERIMENTS}
    json.dump({"preset": "quick", "python": _python(), "sha256": hashes},
              sys.stdout, indent=1)
    print()
