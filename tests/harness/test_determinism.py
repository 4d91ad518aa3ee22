"""Determinism audit: the same quick run gives the same result, again
in the same process and in a fresh one under another hash seed.

Unlike the golden file this compares runs with each other, so it holds
on every Python version.  A repeat in one process catches state that
leaks between runs (module-level caches, registries, counters); a
subprocess with a different ``PYTHONHASHSEED`` catches results that
depend on set or dict-of-str iteration order.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

from repro.harness import ExperimentConfig, run_experiment

from .test_golden import canonical

EXPERIMENTS = ("fig02", "fig04", "netstack", "reliability")

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def hashes() -> dict[str, str]:
    config = ExperimentConfig.preset("quick")
    return {e: hashlib.sha256(
        canonical(run_experiment(e, config)).encode()).hexdigest()
        for e in EXPERIMENTS}


#: Run in the subprocess: this module's ``hashes`` as JSON on stdout.
_CHILD = """
import json, sys
sys.path.insert(0, {tests!r})
from harness.test_determinism import hashes
json.dump(hashes(), sys.stdout)
"""


def test_quick_runs_repeat_in_process_and_under_another_hash_seed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    # Not this process's seed, whatever it is.
    env["PYTHONHASHSEED"] = (
        "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2")
    tests = str(pathlib.Path(__file__).resolve().parents[1])
    # Started first so that it runs beside the in-process repeats.
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD.format(tests=tests)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = hashes()
        second = hashes()
    finally:
        out, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    assert second == first
    assert json.loads(out) == first
