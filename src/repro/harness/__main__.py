"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.harness                    # run everything (default preset)
    python -m repro.harness fig04 fig09        # run a subset
    python -m repro.harness --preset quick     # fast pass
    python -m repro.harness --list             # experiment ids + descriptions
    python -m repro.harness fig09 --json out/  # also write out/fig09.json
    python -m repro.harness fig04 --csv out/   # also write out/fig04.csv
    python -m repro.harness fig04 --trace out/ # Perfetto trace + span dump
    python -m repro.harness reliability --pcap out/ --flows
    python -m repro.harness chaos --faults examples/faults_plan.json
    python -m repro.harness fig10 --profile    # host time per repro package

Campaign mode (parallel workers + content-addressed result cache)::

    python -m repro.harness --jobs 4 --cache .cache/campaign
    python -m repro.harness fig04 fig08 --preset quick --jobs 2 \\
        --cache .cache --bench BENCH_campaign.json
    python -m repro.harness --jobs 4 --cache .cache \\
        --bench out.json --bench-baseline BENCH_campaign.json

Any of ``--jobs N`` (N>1), ``--cache`` or ``--bench`` switches the run
from the serial loop to :func:`repro.campaign.runner.run_campaign`;
results are printed in the same order and are bit-identical to the
serial path.

Service mode (long-lived HTTP/SSE job service, see ``repro.service``)::

    python -m repro.harness --serve --port 8700 --cache .cache
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
import time

from repro.harness import wallprofile
from repro.harness.config import ExperimentConfig
from repro.harness.registry import (
    EXPERIMENTS,
    describe,
    run_experiment,
    run_experiment_captured,
    run_experiment_traced,
)
from repro.harness.results import ExperimentResult


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the paper's evaluation figures/tables.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="ids to run (default: all; see --list)")
    parser.add_argument("--preset", default="default",
                        choices=("quick", "default", "full"))
    parser.add_argument("--list", action="store_true",
                        help="print available experiment ids and exit")
    parser.add_argument("--json", metavar="DIR",
                        help="also write <DIR>/<experiment>.json per result")
    parser.add_argument("--csv", metavar="DIR",
                        help="also write <DIR>/<experiment>.csv per result")
    parser.add_argument("--trace", metavar="DIR",
                        help="trace the run; write <DIR>/<experiment>"
                             ".trace.json (Chrome/Perfetto), .spans.jsonl "
                             "and .metrics.txt (campaign mode merges all "
                             "workers into <DIR>/campaign.*)")
    parser.add_argument("--pcap", metavar="DIR",
                        help="capture the run's frames; write <DIR>/"
                             "<experiment>.pcapng (opens in Wireshark) "
                             "plus the --trace artifacts")
    parser.add_argument("--flows", action="store_true",
                        help="account per-flow statistics; print the "
                             "top-flows table (with --pcap or --trace, "
                             "also write <DIR>/<experiment>.flows.txt)")
    parser.add_argument("--filter", metavar="EXPR",
                        help="BPF-lite capture filter for --pcap/--flows "
                             "(e.g. \"host 10.0.0.8 and proto udp\")")
    parser.add_argument("--faults", metavar="PLAN.json",
                        help="fault plan for the chaos/reliability "
                             "experiments (replaces their built-in "
                             "scenarios)")
    parser.add_argument("--backend", metavar="NAME",
                        help="netstack experiment: sweep only this "
                             "network-stack backend (default: all "
                             "registered backends; unknown names list "
                             "the registry)")
    parser.add_argument("--reliable", action="store_true",
                        help="reliability experiment: run only the ARQ "
                             "lane (skip the raw fail-silent baseline)")
    parser.add_argument("--health", action="store_true",
                        help="audit topology invariants after supporting "
                             "experiments and report violation counts")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes; N>1 runs the campaign "
                             "path (default: 1, serial)")
    parser.add_argument("--cache", metavar="DIR",
                        help="content-addressed result cache directory "
                             "(enables campaign mode)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache: neither read nor write it")
    parser.add_argument("--bench", metavar="OUT.json",
                        help="write the campaign benchmark report "
                             "(enables campaign mode)")
    parser.add_argument("--bench-baseline", metavar="BASE.json",
                        help="fail (exit 1) on perf regression against "
                             "this committed bench report")
    parser.add_argument("--seeds", metavar="S1,S2,...",
                        help="run every experiment under each seed "
                             "(campaign mode; default: the preset's seed)")
    parser.add_argument("--profile", action="store_true",
                        help="run each experiment under cProfile and print "
                             "host self time per repro package (sim, net, "
                             "netstack, ...)")
    parser.add_argument("--serve", action="store_true",
                        help="boot the long-lived job service instead of "
                             "running experiments (see repro.service; "
                             "--cache shares its result cache)")
    parser.add_argument("--port", type=int, default=8700, metavar="N",
                        help="--serve listen port (default: 8700; "
                             "0 picks a free one)")
    args = parser.parse_args(argv)

    if args.serve:
        if args.experiments or args.jobs > 1 or args.bench or args.seeds:
            parser.error("--serve takes no experiments and no campaign "
                         "flags (it accepts jobs over HTTP instead)")
        from repro.service.__main__ import main as serve_main

        serve_argv = ["--port", str(args.port)]
        if args.cache and not args.no_cache:
            serve_argv += ["--cache", args.cache]
        return serve_main(serve_argv)

    if args.list:
        width = max(map(len, EXPERIMENTS))
        for experiment in sorted(EXPERIMENTS):
            print(f"{experiment.ljust(width)}  {describe(experiment)}")
        return 0

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    ids = args.experiments or sorted(EXPERIMENTS)
    campaign_mode = (args.jobs > 1 or args.cache or args.bench
                     or args.bench_baseline or args.seeds)
    if campaign_mode:
        if args.pcap or args.flows:
            parser.error("--pcap/--flows run serially (drop the campaign "
                         "flags: --jobs/--cache/--bench/--seeds)")
        if args.backend:
            parser.error("--backend runs serially (drop the campaign "
                         "flags: --jobs/--cache/--bench/--seeds)")
        if args.profile:
            parser.error("--profile runs serially (drop the campaign "
                         "flags: --jobs/--cache/--bench/--seeds)")
        return _campaign_main(args, ids)

    if args.profile and (args.trace or args.pcap or args.flows):
        parser.error("--profile times an untraced run (drop --trace, "
                     "--pcap and --flows)")
    config = ExperimentConfig.preset(args.preset)
    if args.faults:
        config = dataclasses.replace(config, fault_plan=args.faults)
    if args.backend:
        # replace() re-runs __post_init__, so an unknown name fails
        # here with the registry's name-listing ConfigurationError.
        config = dataclasses.replace(config, netstack_backend=args.backend)
    if args.reliable or args.health:
        config = dataclasses.replace(config, reliable=args.reliable,
                                     health=args.health)
    for experiment in ids:
        start = time.perf_counter()
        captured = None
        if args.pcap or args.flows:
            result, artifacts, captured = run_experiment_captured(
                experiment, config,
                trace_dir=args.pcap or args.trace or "out",
                pcap=bool(args.pcap), flows=args.flows,
                filter=args.filter,
            )
        elif args.trace:
            result, artifacts = run_experiment_traced(
                experiment, config, trace_dir=args.trace
            )
        elif args.profile:
            result, wall_s, seconds = wallprofile.profile_call(
                lambda: run_experiment(experiment, config))
            artifacts = None
            print(wallprofile.render(experiment, wall_s, seconds))
        else:
            result, artifacts = run_experiment(experiment, config), None
        elapsed = time.perf_counter() - start
        result = config.stamp(result, elapsed)
        print(result.render())
        if artifacts is not None:
            print(artifacts.summary)
            print(f"[trace: {artifacts.chrome_path} "
                  f"({artifacts.span_count} spans, "
                  f"{artifacts.event_count} events) — open in "
                  f"https://ui.perfetto.dev]")
        if captured is not None:
            if args.flows:
                print(captured.top_flows)
            if captured.pcap_path is not None:
                print(f"[pcap: {captured.pcap_path} "
                      f"({captured.packet_count} packets on "
                      f"{captured.point_count} taps, "
                      f"{captured.flow_count} flows) — open in Wireshark]")
        print(f"[{experiment} finished in {elapsed:.1f}s]\n")
        _write_exports(result, args)
    return 0


def _campaign_main(args: argparse.Namespace, ids: list[str]) -> int:
    from repro.campaign import bench
    from repro.campaign.cache import ResultCache
    from repro.campaign.runner import run_campaign
    from repro.campaign.spec import CampaignSpec

    seeds: tuple[int, ...] = ()
    if args.seeds:
        seeds = tuple(int(s) for s in args.seeds.split(",") if s)
    spec = CampaignSpec(
        experiments=tuple(ids),
        presets=(args.preset,),
        seeds=seeds,
        fault_plan=args.faults,
    )
    cache = None
    if args.cache and not args.no_cache:
        cache = ResultCache(args.cache)
    report = run_campaign(
        spec,
        jobs=args.jobs,
        cache=cache,
        trace_dir=args.trace,
        progress=print,
    )
    print()
    multi_seed = len(seeds) > 1
    for outcome in report.outcomes:
        print(outcome.result.render())
        source = "cache" if outcome.cache_hit else f"{outcome.wall_s:.1f}s"
        print(f"[{outcome.job.key}: {source}]\n")
        name = outcome.job.experiment
        if multi_seed:
            name = f"{name}-s{outcome.job.seed}"
        _write_exports(outcome.result, args, name)
    print(f"[campaign: {len(report.outcomes)} jobs, "
          f"{report.cache_hits} cache hits, {report.workers} workers, "
          f"{report.wall_s:.1f}s wall "
          f"(serial cost {report.serial_wall_s:.1f}s)]")
    if report.trace_files:
        print(f"[trace: {report.trace_files[0]} — open in "
              f"https://ui.perfetto.dev]")

    bench_report = bench.build_report(report)
    if args.bench:
        path = bench.write_report(bench_report, args.bench)
        print(f"[bench report: {path}]")
    if args.bench_baseline:
        baseline = bench.load_report(args.bench_baseline)
        violations = bench.compare(bench_report, baseline)
        if violations:
            print(f"PERF REGRESSION vs {args.bench_baseline}:",
                  file=sys.stderr)
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
            return 1
        print(f"[perf gate: no regression vs {args.bench_baseline}]")
    return 0


def _write_exports(result: ExperimentResult, args: argparse.Namespace,
                   name: str | None = None) -> None:
    name = name or result.experiment
    if args.json:
        path = pathlib.Path(args.json)
        path.mkdir(parents=True, exist_ok=True)
        (path / f"{name}.json").write_text(result.to_json())
    if args.csv:
        path = pathlib.Path(args.csv)
        path.mkdir(parents=True, exist_ok=True)
        (path / f"{name}.csv").write_text(result.to_csv())


if __name__ == "__main__":
    sys.exit(main())
