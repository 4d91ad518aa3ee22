"""service-jobs: the trace service over HTTP, one job per op.

``python -m repro.service`` runs as its own process with one shard, the
spawn executor, a result cache and a write-ahead journal (default fsync
policy), all in a fresh directory under ``.perfbench/`` in the checkout.
Every window gets a fresh server.  Set-up is booting it and finishing a
first job, which spawns the worker.

One client thread runs a closed loop that keeps ``WINDOW`` jobs
outstanding, one HTTP connection at a time.  The client, the server and
its worker share one core (:func:`_one_core`).  An op is submit, then SSE
wait, then status.  The seeded job list holds new small ``trace`` jobs
(cache misses: journaled, run by the worker, stored) and resubmits of
finished keys (dedupe hits answered without a worker).  Throughput counts
whole one-second slices of the window, leaving out the final drain.

Output checks: every job ends ``done``; each result equals
``repro.service.jobs.run_payload`` of the same payload, computed in this
process after the window (the ``wall_s`` meta is not compared).
"""

from __future__ import annotations

import collections
import json
import os
import pathlib
import re
import resource
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import typing as t

from repro.service.client import ServiceClient
from repro.service.jobs import run_payload

from plans import job_list
from stats import BaseWorkload, Layers, OpLedger, timer

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench"
#: Jobs kept outstanding (the per-client quota is 16).  With one job in
#: flight about one of client, server and worker runs at a time, so the
#: three can share one core.
WINDOW = 1
#: One job in this many resubmits a finished key.
HIT_EVERY = 3
#: Users per trace job, smallest and largest.  A fixed small size keeps
#: the job's own compute (a few ms) from setting the p90.
USERS = (20, 20)
#: Longer than any window can consume at the rates seen so far.
JOBS = 40_000
SLICE_S = 1.0
WARMUP = {"seed": 0, "users": 5}
CLIENT = "perfbench"
#: How long a server may take to print its banner before the run fails.
BOOT_TIMEOUT_S = 60.0
METRICS_RENDERS = 5
#: Critical-path components of GET /jobs/<id>/trace, as reported.
PATH_PARTS = ("cache_probe", "admission", "queue_wait", "worker",
              "publish", "other")


def _strip_meta(result: dict[str, t.Any]) -> dict[str, t.Any]:
    return {k: v for k, v in result.items() if k != "meta"}


def _metric_sum(text: str, name: str, label: str = "") -> float:
    """Sum every sample of counter *name* (optionally one label match)
    in a Prometheus text exposition."""
    total = 0.0
    pattern = re.compile(rf"^{re.escape(name)}(\{{[^}}]*\}})?\s+(\S+)$")
    for line in text.splitlines():
        match = pattern.match(line)
        if match and label in (match.group(1) or ""):
            total += float(match.group(2))
    return total


class _Server:
    """One ``python -m repro.service`` process and its run directory."""

    def __init__(self) -> None:
        RUNS.mkdir(exist_ok=True)
        self.dir = pathlib.Path(tempfile.mkdtemp(prefix="svc-", dir=RUNS))
        # Unbuffered, so the banner reaches the pipe as soon as it is
        # printed rather than when a block fills.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--shards", "1", "--executor", "spawn",
             "--cache", str(self.dir / "cache"),
             "--journal", str(self.dir / "journal")],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        banner = self._banner()
        match = re.search(r"http://[^\s:]+:(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"service did not start: {banner!r}")
        self.client = ServiceClient(port=int(match.group(1)), timeout_s=60.0)

    def _banner(self) -> str:
        """The server's first output line, or ``""`` if none comes in
        ``BOOT_TIMEOUT_S`` (the caller then stops the server)."""
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    BOOT_TIMEOUT_S)
        return self.proc.stdout.readline() if ready else ""

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait for exit, remove the run dir."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def _one_core() -> None:
    """Keep this process, and the server and worker it starts (they
    inherit the mask), on one core.

    Every op hands control client -> server -> worker -> server -> client.
    On a VM, a hand-off to a process on another, idle vCPU waits until
    the host runs that vCPU again, and that wait follows the host's load:
    on a 2-vCPU VM, unpinned runs read 70-105 ops/s against 112-123
    pinned, interleaved (NOTES.md, "Noise history").  Without affinity support (not Linux)
    the processes run where the OS puts them.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Workload(BaseWorkload):
    #: A forked copy would share the one server and its core.
    forkable = False

    def __init__(self, seed: int, expected: dict[str, t.Any]) -> None:
        del expected  # results are checked against run_payload instead
        _one_core()
        self.jobs = job_list(seed, JOBS, WINDOW, HIT_EVERY, USERS)
        self.server: _Server | None = None
        self.served = False
        self.done: list[tuple[OpLedger, dict, dict]] = []
        self.ops = 0
        self.hits = 0

    def _boot(self) -> None:
        self.server = _Server()
        client = self.server.client
        client.wait(client.submit("trace", WARMUP, client=CLIENT)["id"])
        self.served = False

    def prepare(self) -> None:
        self._boot()

    def window(self, seconds: float, ledger: OpLedger,
               layers: Layers | None) -> None:
        if self.served:
            self.close()
            self._boot()
        self.served = True
        client = self.server.client
        timed = timer(layers)
        jobs = iter(self.jobs)
        outstanding: collections.deque = collections.deque()
        seen: set[str] = set()

        def submit() -> None:
            payload = next(jobs)
            started = ledger.begin()
            try:
                doc = timed("service.submit_s", client.submit, "trace",
                            payload, client=CLIENT)
            except Exception as exc:  # 429/503 refusals land here
                ledger.fail(type(exc).__name__)
                return
            outstanding.append((started, doc["id"], payload))

        deadline = time.perf_counter() + seconds
        slice_start = time.perf_counter()
        for _ in range(WINDOW):
            submit()
        while outstanding:
            started, job_id, payload = outstanding.popleft()
            try:
                timed("service.wait_s",
                      lambda: collections.deque(client.stream(job_id), 0))
                status = timed("service.status_s", client.status, job_id)
            except Exception as exc:
                ledger.fail(type(exc).__name__)
            else:
                if status["state"] != "done":
                    ledger.fail(f"check:job ended {status['state']}")
                else:
                    ledger.succeed(started)
                    self.done.append((ledger, payload, status["result"]))
                    hit = job_id in seen
                    seen.add(job_id)
                    self.ops += 1
                    self.hits += hit
                    if layers is not None and not hit:
                        self._trace_layers(client, job_id, layers)
            now = time.perf_counter()
            if now - slice_start >= SLICE_S:
                ledger.add_round(now - slice_start)
                slice_start = now
            if now < deadline:
                submit()
        if layers is not None:
            self._metrics_layers(client, layers)

    @staticmethod
    def _trace_layers(client: ServiceClient, job_id: str,
                      layers: Layers) -> None:
        parts = client.trace(job_id)["critical_path"]["components"]
        for part in PATH_PARTS:
            layers.add(f"service.{part}_s", parts.get(part, 0.0))

    @staticmethod
    def _metrics_layers(client: ServiceClient, layers: Layers) -> None:
        for _ in range(METRICS_RENDERS):
            text = layers.timed("service.metrics_render_s",
                                client.metrics_text)
        dedupe = _metric_sum(text, "service_cache_hits_total",
                             'source="dedupe"')
        admitted = _metric_sum(text, "service_jobs_submitted_total")
        layers.add("service.dedupe_hits", dedupe)
        layers.add("service.admitted", admitted)
        layers.add("service.rejected",
                   _metric_sum(text, "service_admission_rejected_total"))
        layers.add("service.requeues",
                   _metric_sum(text, "service_requeues_total"))

    def finish(self) -> None:
        """Compare every result with ``run_payload`` of its payload."""
        expected: dict[tuple, dict] = {}
        for ledger, payload, result in self.done:
            key = (payload["seed"], payload["users"])
            if key not in expected:
                envelope = run_payload("trace", dict(payload))
                expected[key] = _strip_meta(
                    json.loads(envelope["result_json"]))
            if _strip_meta(result) != expected[key]:
                ledger.fail(f"check:trace {key} differs from run_payload")

    def describe(self) -> list[str]:
        return [
            f"window {WINDOW} outstanding, {self.ops} jobs done, "
            f"dedupe-hit share {self.hits / max(self.ops, 1):.3f}",
            f"{len(self.done)} results compared with run_payload",
        ]

    def layer_metrics(self, layers: Layers) -> dict[str, tuple[float, int]]:
        values = {
            f"service.{name}_ms": (layers.mean(f"service.{name}_s") * 1e3,
                                   layers.count(f"service.{name}_s"))
            for name in ("submit", "wait", "status", "metrics_render")
        }
        for part in PATH_PARTS:
            name = "path_other" if part == "other" else part
            values[f"service.{name}_ms"] = (
                layers.mean(f"service.{part}_s") * 1e3,
                layers.count(f"service.{part}_s"))
        dedupe = layers.total("service.dedupe_hits")
        admitted = layers.total("service.admitted")
        values["service.dedupe_hit_ratio"] = (
            dedupe / max(dedupe + admitted, 1.0), int(dedupe + admitted))
        values["service.rejected"] = (layers.total("service.rejected"), 1)
        values["service.requeues"] = (layers.total("service.requeues"), 1)
        return values

    def peak_rss_mb(self) -> float:
        """Largest resident set of any finished server process."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if RUNS.is_dir() and not any(RUNS.iterdir()):
            RUNS.rmdir()
