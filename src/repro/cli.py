"""Command-line interface: run SFT experiments from the shell.

Examples::

    python -m repro run scenarios/geo_latency.toml
    python -m repro run scenarios/smoke.toml --seed 3 --csv
    python -m repro figure scenarios/fig7a_symmetric.toml   # a paper figure
    python -m repro counterexample       # Appendix C walkthrough
    python -m repro health scenarios/outcast_regions.toml   # QC diversity
    python -m repro campaign run scenarios/smoke.toml --workers 4 \
        --baseline scenarios/baselines/smoke.json
    python -m repro fuzz run --seeds 0:50 --workers 4
    python -m repro fuzz replay scenarios/fuzz_corpus/appendix_c_naive.json
    python -m repro fuzz shrink failing.json --out minimal.json
    python -m repro trace summarize scenarios/fuzz_corpus/some_case.json
    python -m repro trace export scenario.json --out trace.json
    python -m repro rt run scenarios/rt_smoke.toml --clients 4
    python -m repro rt diff scenarios/rt_smoke.toml
"""

from __future__ import annotations

import argparse
import sys

from repro.adversary import AppendixCScenario
from repro.analysis import (
    format_campaign_table,
    format_fig7_table,
    format_series_csv,
    line_chart,
)
from repro.analysis.chain_stats import collect_chain_stats
from repro.analysis.health import QCDiversityMonitor
from repro.runtime.metrics import (
    regular_commit_latency,
    strong_latency_series,
    throughput_txps,
)


def command_run(args) -> int:
    from repro.analysis.invariants import check_cluster_invariants

    spec, seed = _load_cluster_spec(args)
    print(f"protocol={spec.protocol} n={spec.n} f={spec.resolved_f()} "
          f"topology={spec.build_topology().describe()} "
          f"duration={spec.duration}s seed={seed}")
    cluster = spec.build(seed).run()
    violations = check_cluster_invariants(cluster, spec)
    _describe_violations([violation.to_dict() for violation in violations])
    if any(not violation.expected for violation in violations):
        return 1
    replica = next(r for r in cluster.replicas if not r.crashed)
    commits = len(replica.commit_tracker.commit_order)
    cutoff = spec.duration * spec.cutoff_fraction
    mean, count = regular_commit_latency(cluster, created_before=cutoff)
    print(f"\ncommits: {commits}  rounds: {replica.current_round}  "
          f"throughput: {throughput_txps(cluster):.0f} txn/s")
    if mean is not None:
        print(f"regular commit latency: {mean:.3f}s over {count} samples")
    series = strong_latency_series(
        cluster, spec.ratios, created_before=cutoff,
        observers=spec.series_observers,
    )
    if args.csv:
        print(format_series_csv(series, label=spec.protocol))
    else:
        print()
        print(format_fig7_table(
            {"run": series}, title="strong commit latency"
        ))
    stats = collect_chain_stats(replica)
    print(f"\nchain: {stats.blocks_committed} committed / "
          f"{stats.blocks_total} blocks, {stats.skipped_rounds} skipped "
          f"rounds, QC diversity {stats.qc_diversity:.2f}")
    return 0


def command_figure(args) -> int:
    """Run a figure campaign and print its strong-latency curves, one
    column per job (``scenarios/fig7a_symmetric.toml`` and friends)."""
    from repro.experiments import reports_from_series, run_job

    campaign = _load_campaign(args.spec)
    results = {}
    for job in campaign.expand():
        print(f"running {job.job_id}…", file=sys.stderr)
        results[job.job_id] = reports_from_series(
            run_job(job)["metrics"]["strong_latency_series"]
        )
    print(format_fig7_table(results, title=f"{campaign.name} (measured)"))
    print()
    print(line_chart(
        {
            label: [(point.ratio, point.mean_latency) for point in series]
            for label, series in results.items()
        },
        x_label="x-strong (f)",
        y_label="latency (s)",
    ))
    return 0


def command_counterexample(args) -> int:
    result = AppendixCScenario(f=args.f).run()
    print(f"Appendix C with f={args.f}:")
    print(f"  naive: main={result.naive_main_strength} "
          f"fork={result.naive_fork_strength} "
          f"violates Definition 1: {result.naive_violates_definition_1()}")
    print(f"  SFT:   main={result.sft_main_strength} "
          f"fork={result.sft_fork_strength} "
          f"safe: {result.sft_is_safe()}")
    return 0 if result.sft_is_safe() else 1


def command_health(args) -> int:
    spec, seed = _load_cluster_spec(args)
    cluster = spec.build(seed).run()
    replica = cluster.replicas[0]
    monitor = QCDiversityMonitor(spec.n)
    monitor.observe_chain(replica.store, replica.commit_tracker.commit_order)
    print(f"observed {monitor.qc_count()} chain QCs; "
          f"max achievable strength: "
          f"{monitor.max_achievable_strength(spec.resolved_f())} "
          f"(2f = {2 * spec.resolved_f()})")
    print(f"\n{'replica':>8}{'QCs':>7}{'rate':>7}{'last round':>12}")
    for health in monitor.report():
        last = health.last_seen_round if health.last_seen_round else "—"
        flag = "  ← outcast" if health.is_outcast() else ""
        print(f"{health.replica_id:>8}{health.qc_appearances:>7}"
              f"{health.appearance_rate:>7.2f}{str(last):>12}{flag}")
    return 0


def _load_campaign(path):
    """Load a campaign spec, turning user errors into clean exits."""
    from repro.experiments import Campaign

    try:
        return Campaign.from_file(path)
    except (ValueError, TypeError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2) from error


def command_campaign_run(args) -> int:
    from repro.experiments import CampaignRunner, save_report

    campaign = _load_campaign(args.spec)
    baseline = _load_baseline(args.baseline)
    try:
        jobs = campaign.expand()
    except ValueError as error:
        # Cross-axis combinations can still be invalid (e.g. a fault
        # mix that no longer fits a matrixed-down n).
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"campaign {campaign.name}: {len(jobs)} jobs, "
        f"workers={args.workers}",
        file=sys.stderr,
    )

    def progress(entry):
        metrics = entry["metrics"]
        print(
            f"  {entry['job_id']}: {metrics['commits']} commits "
            f"in {entry['wall_clock_s']:.1f}s",
            file=sys.stderr,
        )

    runner = CampaignRunner(jobs, workers=args.workers, name=campaign.name)
    report = runner.run(progress=progress)
    if args.flight_dir:
        written = _write_flight_dumps(report, args.flight_dir)
        for path in written:
            print(f"flight recording written to {path}", file=sys.stderr)
    if args.out:
        save_report(report, args.out)
        print(f"report written to {args.out}", file=sys.stderr)
    print(format_campaign_table(report))

    exit_code = 0
    if not report["summary"]["all_invariants_ok"]:
        print("INVARIANT VIOLATION in at least one job", file=sys.stderr)
        exit_code = 1
    return _check_baseline(report["digests"], baseline) or exit_code


def _write_flight_dumps(report, directory) -> list:
    """Persist every job's flight recording under ``directory``."""
    from pathlib import Path

    from repro.obs import write_flight_dump

    written = []
    for entry in report.get("jobs", []):
        recording = entry.get("flight_recording")
        if recording is None:
            continue
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        name = entry["job_id"].replace("/", "_")
        path = target / f"{name}-flight.json"
        write_flight_dump(recording, path)
        written.append(str(path))
    return written


def _load_baseline(path):
    """Load a ``--baseline`` digest file (None when not given)."""
    from repro.experiments import load_baseline

    if path is None:
        return None
    try:
        return load_baseline(path)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2) from error


def _check_baseline(digests, baseline) -> int:
    """Print every moved digest; 1 if any moved, 0 otherwise."""
    from repro.experiments import moved_digests

    if baseline is None:
        return 0
    moved = moved_digests(digests, baseline)
    if not moved:
        print(f"\nbaseline: {len(baseline)} digests identical")
        return 0
    print(f"\nbaseline: {len(moved)} moved (baseline -> now)")
    for name, (was, now) in moved.items():
        print(f"  {name}: {was or 'missing'} -> {now or 'missing'}")
    return 1


def _load_report_file(path):
    """Load a report JSON, turning user errors into clean exits."""
    import json

    from repro.experiments import load_report

    try:
        return load_report(path)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2) from error


def command_campaign_report(args) -> int:
    report = _load_report_file(args.report)
    print(format_campaign_table(report))
    summary = report.get("summary", {})
    if summary:
        print(
            f"\ntotal commits: {summary.get('total_commits')}  "
            f"mean regular latency: {summary.get('mean_regular_latency_s')}s  "
            f"all invariants ok: {summary.get('all_invariants_ok')}"
        )
    return 0


def _describe_violations(violations, indent: str = "  ") -> None:
    for violation in violations:
        tag = "expected counterexample" if violation["expected"] else "VIOLATION"
        print(f"{indent}[{tag}] {violation['invariant']}: {violation['detail']}")


def command_fuzz_run(args) -> int:
    from repro.experiments import save_report
    from repro.fuzz import PROFILES, parse_seed_range, run_fuzz

    try:
        seeds = parse_seed_range(args.seeds)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    baseline = _load_baseline(args.baseline)
    profile = PROFILES[args.profile]
    print(
        f"fuzz {profile.name}: {len(seeds)} seeds, workers={args.workers}",
        file=sys.stderr,
    )

    def progress(entry):
        print(
            f"  {entry['job_id']}: {entry['metrics']['commits']} commits "
            f"in {entry['wall_clock_s']:.1f}s",
            file=sys.stderr,
        )

    report = run_fuzz(
        seeds,
        profile,
        workers=args.workers,
        corpus_dir=args.corpus_dir,
        shrink=not args.no_shrink,
        progress=progress,
    )
    if args.out:
        save_report(report, args.out)
        print(f"report written to {args.out}", file=sys.stderr)

    for case in report["cases"]:
        if case["violations"]:
            status = (
                "expected"
                if all(v["expected"] for v in case["violations"])
                else "VIOLATION"
            )
        else:
            status = "ok"
        print(f"{case['name']}: {status}  commits={case['commits']}")
        _describe_violations(case["violations"])
        if "minimized_spec" in case:
            print(f"  minimized after {case['shrink_attempts']} attempts")

    summary = report["summary"]
    print(
        f"\n{summary['cases']} cases: "
        f"{summary['unexpected_violations']} unexpected violation(s), "
        f"{summary['expected_counterexamples']} expected counterexample(s)"
    )
    for name in summary["minimized"]:
        print(f"  minimized spec: {args.corpus_dir}/{name}")
    exit_code = 1 if summary["unexpected_violations"] else 0
    return _check_baseline(report["digests"], baseline) or exit_code


def _load_fuzz_spec(path):
    from repro.experiments import load_scenario

    try:
        return load_scenario(path)
    except (ValueError, TypeError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2) from error


def command_fuzz_replay(args) -> int:
    from repro.fuzz import evaluate_case

    spec = _load_fuzz_spec(args.spec)
    seed = args.seed if args.seed is not None else spec.seeds[0]
    entry = evaluate_case(spec, seed)
    invariants = entry["metrics"]["invariants"]
    print(
        f"{spec.name} (seed {seed}): "
        f"{entry['metrics']['commits']} commits, "
        f"{len(invariants['violations'])} violation(s)"
    )
    _describe_violations(invariants["violations"])
    if args.flight_out:
        recording = entry.get("flight_recording")
        if recording is None:
            print("no flight recording (no violations)", file=sys.stderr)
        else:
            from repro.obs import write_flight_dump

            write_flight_dump(recording, args.flight_out)
            print(f"flight recording written to {args.flight_out}",
                  file=sys.stderr)
    if invariants["ok"]:
        print("all invariants hold" if not invariants["violations"]
              else "only expected counterexamples — invariants hold")
    if args.strict and invariants["violations"]:
        return 1
    return 0 if invariants["ok"] else 1


def command_fuzz_shrink(args) -> int:
    from repro.experiments import save_scenario
    from repro.fuzz import shrink_spec

    spec = _load_fuzz_spec(args.spec)
    try:
        result = shrink_spec(spec, seed=args.seed)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    minimized = result.spec.with_overrides(name=f"{spec.name}-min")
    out = args.out or f"{spec.name}-min.json"
    save_scenario(minimized, out)
    print(
        f"{spec.name}: shrunk={result.shrunk} after {result.attempts} "
        f"attempts → {out}"
    )
    return 0


def _print_rt_summary(summary: dict) -> None:
    import json

    print(json.dumps(summary, indent=2, sort_keys=True))


def command_rt_run(args) -> int:
    from repro.rt_net.manager import RuntimeLaunchError, RuntimeManager

    spec = _load_fuzz_spec(args.spec)
    duration = args.duration if args.duration is not None else spec.duration
    try:
        manager = RuntimeManager(
            spec, seed=args.seed, workdir=args.workdir
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"rt run {spec.name}: n={spec.n} protocol={spec.protocol} "
        f"duration={duration}s clients={args.clients}",
        file=sys.stderr,
    )
    try:
        if args.clients > 0:
            import time as _time

            from repro.rt_net.clients import drive_fleet

            manager.start()
            manager.wait_ready()
            fleet = drive_fleet(
                manager.endpoints(),
                spec.resolved_f(),
                duration,
                num_clients=args.clients,
                seed=manager.seed,
            )
            _time.sleep(0.5)  # let trailing replies drain into results
            report = manager.stop()
            print("client fleet:", file=sys.stderr)
            _print_rt_summary(fleet)
        else:
            report = manager.run(duration)
    except RuntimeLaunchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        manager.cleanup()
    _print_rt_summary(report.summary())
    if report.min_commits() < 1:
        print("FAIL: some replica committed nothing", file=sys.stderr)
        return 1
    if not report.chains_agree():
        print("FAIL: replicas disagree on the committed prefix",
              file=sys.stderr)
        return 1
    return 0


def command_rt_diff(args) -> int:
    from repro.rt_net.differential import run_differential
    from repro.rt_net.manager import RuntimeLaunchError

    spec = _load_fuzz_spec(args.spec)
    print(f"rt diff {spec.name}: simulator oracle vs TCP cluster…",
          file=sys.stderr)
    try:
        result = run_differential(
            spec,
            seed=args.seed,
            tcp_duration=args.duration,
            workdir=args.workdir,
        )
    except (ValueError, RuntimeLaunchError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_rt_summary(result.summary())
    if not result.ok():
        for problem in result.problems():
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    return 0


def _load_cluster_spec(args):
    """The scenario file and seed of a one-cluster command (``run``,
    ``health``, ``trace``); scripted specs have no cluster and exit 2."""
    spec = _load_fuzz_spec(args.spec)
    if spec.script:
        print(f"error: scripted scenarios have no cluster to {args.command}",
              file=sys.stderr)
        raise SystemExit(2)
    seed = args.seed if args.seed is not None else spec.seeds[0]
    return spec, seed


def _run_traced_cluster(args):
    """Run one scenario with tracing forced on; returns (spec, cluster)."""
    spec, seed = _load_cluster_spec(args)
    spec = spec.with_overrides(trace_level=args.level)
    print(f"tracing {spec.name} (seed {seed}, level {args.level})…",
          file=sys.stderr)
    cluster = spec.build(seed)
    cluster.run()
    return spec, cluster


def command_trace_summarize(args) -> int:
    from repro.obs import summarize_trace

    _spec, cluster = _run_traced_cluster(args)
    print(summarize_trace(cluster.trace, reference_replica=args.reference))
    return 0


def command_trace_export(args) -> int:
    import json

    from repro.obs import chrome_trace, validate_chrome_trace

    spec, cluster = _run_traced_cluster(args)
    data = chrome_trace(cluster.trace, reference_replica=args.reference)
    problems = validate_chrome_trace(data)
    if problems:
        for problem in problems:
            print(f"error: invalid trace event: {problem}", file=sys.stderr)
        return 1
    out = args.out or f"{spec.name}-trace.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"{len(data['traceEvents'])} trace events "
        f"({data['otherData']['recorded_events']} recorded, "
        f"{data['otherData']['dropped_events']} dropped) → {out}"
    )
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Strengthened Fault Tolerance in BFT replication "
                    "(ICDCS 2021) — simulation toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def _add_spec_arguments(sub) -> None:
        sub.add_argument("spec", help="scenario TOML/JSON file")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the spec's first seed")

    run_parser = subparsers.add_parser(
        "run", help="run one scenario and judge it with the invariant oracle"
    )
    _add_spec_arguments(run_parser)
    run_parser.add_argument("--csv", action="store_true",
                            help="emit the latency series as CSV")
    run_parser.set_defaults(handler=command_run)

    figure_parser = subparsers.add_parser(
        "figure", help="regenerate a paper figure"
    )
    figure_parser.add_argument(
        "spec", help="figure campaign TOML/JSON file (scenarios/fig*.toml)"
    )
    figure_parser.set_defaults(handler=command_figure)

    counter_parser = subparsers.add_parser(
        "counterexample", help="Appendix C naive-counting walkthrough"
    )
    counter_parser.add_argument("--f", type=int, default=2)
    counter_parser.set_defaults(handler=command_counterexample)

    health_parser = subparsers.add_parser(
        "health", help="QC-diversity replica health report (Section 5)"
    )
    _add_spec_arguments(health_parser)
    health_parser.set_defaults(handler=command_health)

    campaign_parser = subparsers.add_parser(
        "campaign", help="declarative experiment campaigns (scenarios/)"
    )
    campaign_sub = campaign_parser.add_subparsers(
        dest="campaign_command", required=True
    )

    campaign_run = campaign_sub.add_parser(
        "run", help="expand a scenario matrix and run every job"
    )
    campaign_run.add_argument("spec", help="scenario TOML/JSON file")
    campaign_run.add_argument("--workers", type=int, default=1,
                              help="parallel worker processes")
    campaign_run.add_argument("--out", default=None,
                              help="write the JSON campaign report here")
    campaign_run.add_argument("--baseline", default=None,
                              help="fail unless every job's metrics digest "
                                   "equals this {job_id: digest} file")
    campaign_run.add_argument("--flight-dir", default=None,
                              help="write flight-recorder dumps for "
                                   "violating jobs into this directory")
    campaign_run.set_defaults(handler=command_campaign_run)

    campaign_report = campaign_sub.add_parser(
        "report", help="pretty-print a saved campaign report"
    )
    campaign_report.add_argument("report", help="campaign report JSON")
    campaign_report.set_defaults(handler=command_campaign_report)

    fuzz_parser = subparsers.add_parser(
        "fuzz", help="randomized fault-schedule fuzzing (invariant oracle)"
    )
    fuzz_sub = fuzz_parser.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run = fuzz_sub.add_parser(
        "run", help="fuzz a seed range and judge every trace"
    )
    fuzz_run.add_argument("--seeds", default="0:50",
                          help="seed range 'lo:hi', list '1,2,9', or one seed")
    fuzz_run.add_argument("--profile", choices=("default", "smoke"),
                          default="default")
    fuzz_run.add_argument("--workers", type=int, default=1,
                          help="parallel worker processes")
    fuzz_run.add_argument("--out", default=None,
                          help="write the JSON fuzz report here")
    fuzz_run.add_argument("--corpus-dir", default=None,
                          help="write minimized failing specs here")
    fuzz_run.add_argument("--no-shrink", action="store_true",
                          help="skip shrinking failing schedules")
    fuzz_run.add_argument("--baseline", default=None,
                          help="fail unless every case's metrics digest "
                               "equals this {case name: digest} file")
    fuzz_run.set_defaults(handler=command_fuzz_run)

    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-run one spec and re-check every invariant"
    )
    _add_spec_arguments(fuzz_replay)
    fuzz_replay.add_argument("--strict", action="store_true",
                             help="fail even on expected counterexamples")
    fuzz_replay.add_argument("--flight-out", default=None,
                             help="write the flight-recorder dump here "
                                  "when the replay violates an invariant")
    fuzz_replay.set_defaults(handler=command_fuzz_replay)

    fuzz_shrink = fuzz_sub.add_parser(
        "shrink", help="bisect a failing spec to a minimal schedule"
    )
    _add_spec_arguments(fuzz_shrink)
    fuzz_shrink.add_argument("--out", default=None,
                             help="where to write the minimized spec")
    fuzz_shrink.set_defaults(handler=command_fuzz_shrink)

    rt_parser = subparsers.add_parser(
        "rt", help="real-network runtime (multi-process asyncio TCP)"
    )
    rt_sub = rt_parser.add_subparsers(dest="rt_command", required=True)

    def _add_rt_arguments(sub) -> None:
        _add_spec_arguments(sub)
        sub.add_argument("--duration", type=float, default=None,
                         help="wall seconds to run (default: spec duration)")
        sub.add_argument("--workdir", default=None,
                         help="keep configs/logs/results here instead of "
                              "a temporary directory")

    rt_run = rt_sub.add_parser(
        "run", help="spawn a TCP replica cluster and run a workload"
    )
    _add_rt_arguments(rt_run)
    rt_run.add_argument("--clients", type=int, default=0,
                        help="drive this many closed-loop clients "
                             "(f+1-matching-reply acknowledgement)")
    rt_run.set_defaults(handler=command_rt_run)

    rt_diff = rt_sub.add_parser(
        "diff",
        help="run the same spec under the simulator and over TCP and "
             "require identical committed chains",
    )
    _add_rt_arguments(rt_diff)
    rt_diff.set_defaults(handler=command_rt_diff)

    trace_parser = subparsers.add_parser(
        "trace", help="causal block-lifecycle tracing (Perfetto export)"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    def _add_trace_arguments(sub) -> None:
        _add_spec_arguments(sub)
        sub.add_argument("--level", choices=("spans", "full"),
                         default="spans",
                         help="trace detail (full adds message deliveries)")
        sub.add_argument("--reference", type=int, default=0,
                         help="replica whose lifecycle is decomposed")

    trace_summarize = trace_sub.add_parser(
        "summarize", help="run one scenario traced and print a span summary"
    )
    _add_trace_arguments(trace_summarize)
    trace_summarize.set_defaults(handler=command_trace_summarize)

    trace_export = trace_sub.add_parser(
        "export",
        help="run one scenario traced and export Chrome trace-event JSON",
    )
    _add_trace_arguments(trace_export)
    trace_export.add_argument("--out", default=None,
                              help="output path (default <name>-trace.json)")
    trace_export.set_defaults(handler=command_trace_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
