"""Host-time benchmark of the simulator and the trace service.

Run from the repository root::

    python3 perfbench/run.py --workload netperf-grid --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-layer metrics, plus the same
workload's untraced throughput so the tracing overhead shows.  Metric
names and units come from ``BENCHMARK.json``.  Human-readable lines go
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is always imported from ``src/`` beside this directory, never
from an installed copy.  See ``perfbench/NOTES.md`` for what each
workload measures and why.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import typing as t  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))

from stats import Layers, OpLedger, TooFewSamples  # noqa: E402

#: Workload name -> module in this directory.
MODULES = {
    "netperf-grid": "netperf_grid",
    "frame-walk": "frame_walk",
    "cost-consolidation": "cost_consolidation",
    "service-jobs": "service_jobs",
}

#: Set-up is repeated this many times per run; ``setup_s`` is the
#: import time plus the median repetition.
SETUP_REPS = 3
#: An in-process workload's end-to-end window runs in this many
#: processes at once, one per core of a 2-core host, and their ops are
#: pooled: each core's speed drifts on its own, so the pool drifts less
#: than either (see NOTES.md, "Steadiness").
WORKERS = 2


def _use_program_source() -> None:
    """Import ``repro`` from ``src/`` here, or stop without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _catalog() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _expected(workload: str) -> dict:
    if not EXPECTED.is_file():
        return {}
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def _forked_windows(workload: t.Any, seconds: float) -> list[OpLedger]:
    """Run ``workload.window`` (and ``finish``) in this process and in
    ``WORKERS - 1`` forked copies at once; returns every copy's ledger."""
    ctx = multiprocessing.get_context("fork")
    sys.stdout.flush()  # a child must not repeat buffered output
    children = []
    for _ in range(WORKERS - 1):
        recv, send = ctx.Pipe(duplex=False)

        def child(send: t.Any = send) -> None:
            ledger = OpLedger()
            workload.window(seconds, ledger, None)
            workload.finish()
            send.send(ledger)

        proc = ctx.Process(target=child)
        proc.start()
        send.close()
        children.append((proc, recv))
    ledgers = [OpLedger()]
    try:
        workload.window(seconds, ledgers[0], None)
        for _proc, recv in children:
            try:
                ledgers.append(recv.recv())
            except EOFError:
                raise RuntimeError("a forked window ended without a result")
    finally:
        for proc, recv in children:
            proc.join(timeout=60)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
            recv.close()
    return ledgers


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _use_program_source()
    catalog = _catalog()
    module = importlib.import_module(MODULES[args.workload])
    import_s = time.perf_counter() - _STARTED

    workload = module.Workload(args.seed, _expected(args.workload))
    ledgers: list[OpLedger] = []
    try:
        reps = []
        for _ in range(SETUP_REPS):
            workload.close()  # the previous repetition's leftovers, untimed
            started = time.perf_counter()
            workload.prepare()
            reps.append(time.perf_counter() - started)
        setup_s = import_s + statistics.median(reps)
        if args.trace:
            plain, traced, layers = OpLedger(), OpLedger(), Layers()
            ledgers = [plain, traced]
            workload.window(args.seconds / 2, plain, None)
            workload.window(args.seconds / 2, traced, layers)
        elif workload.forkable:
            ledgers = _forked_windows(workload, args.seconds)
        else:
            ledgers = [OpLedger()]
            workload.window(args.seconds, ledgers[0], None)
        workload.finish()
    finally:
        workload.close()
    peak_rss_mb = workload.peak_rss_mb()

    attempted = sum(ledger.attempted for ledger in ledgers)
    failed = sum(ledger.failed for ledger in ledgers)
    for ledger in ledgers:
        for reason, count in sorted(ledger.failures.items()):
            print(f"# FAILED {count} op(s): {reason}")
    for line in workload.describe():
        print(f"# {line}")

    try:
        if args.trace:
            values = workload.layer_metrics(layers)
            untraced, traced_tp = plain.throughput(), traced.throughput()
            values.update({
                "trace.untraced_ops_s": (untraced, len(plain.rounds)),
                "trace.traced_ops_s": (traced_tp, len(traced.rounds)),
                "trace.overhead_pct":
                    ((1.0 - traced_tp / untraced) * 100.0, len(traced.rounds)),
                "error_rate": (failed / attempted, attempted),
            })
            wanted = catalog["per_layer"]
        else:
            ledger = OpLedger.pooled(ledgers)
            values = {name: (value, len(ledger.latencies_s))
                      for name, value in ledger.end_to_end().items()}
            values["throughput_ops_s"] = (values["throughput_ops_s"][0],
                                          len(ledger.rounds))
            values["peak_rss_mb"] = (peak_rss_mb, 1)
            values["setup_s"] = (setup_s, SETUP_REPS)
            wanted = catalog["end_to_end"]
    except TooFewSamples as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        if name in values:
            value, n = values[name]
        elif args.trace:
            value, n = 0.0, 0  # a layer this workload does not reach
        else:
            print(f"perfbench: workload produced no {name}", file=sys.stderr)
            return 1
        print(f"# {name:40s} {value:14.6g} {unit:8s} n={n}")
        metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
