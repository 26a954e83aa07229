"""``mvcom`` command-line entry point.

Usage::

    mvcom list                  # available experiments
    mvcom fig08                 # run one figure, print its table, write CSV
    mvcom all                   # run every figure (slow)
    mvcom lint [paths...]       # static analysis (rules MV001-MV102)
    mvcom lint --annotate src/  # + GitHub ::error annotations
    mvcom solve --trace t.jsonl # one traced SE solve + final PBFT round
    mvcom trace summary t.jsonl # render a text report from a trace file
    mvcom trace metrics t.jsonl # streaming aggregate: p50/p99, rates, SLOs
    mvcom trace export t.jsonl --format perfetto --out t.perfetto.json
    mvcom trace diff a.jsonl b.jsonl --fail-above 5  # regression gate
    mvcom storm --seed 13       # churn-storm fault injection (repro.faultinject)
    mvcom storm --replay r.json # replay a storm or serve-storm reproducer
    mvcom eth2scale             # nodes -> {epoch wall, peak RSS, SE wall} curve
    mvcom eth2scale --network-sizes 8192,32768 --committee-size 128
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict

from repro.harness import experiments
from repro.harness.presets import PRESETS, list_presets
from repro.harness.report import render_table, sample_trace, traces_table, traces_to_rows, write_csv
from repro.harness.textplot import line_plot
from repro.harness.artifacts import write_artifact

#: ``--iterations`` when none is given (solve, serve, storm); ``eth2scale``
#: instead runs its preset's budget, the one its bench records.
DEFAULT_SE_ITERATIONS = 2000

RUNNERS: Dict[str, Callable[[], dict]] = {
    "fig02": experiments.run_fig02_two_phase_latency,
    "fig08": experiments.run_fig08_parallel_threads,
    "fig09": experiments.run_fig09_dynamic_events,
    "fig10": experiments.run_fig10_valuable_degree,
    "fig11": experiments.run_fig11_vary_committees,
    "fig12": experiments.run_fig12_vary_alpha,
    "fig13": experiments.run_fig13_utility_distribution,
    "fig14": experiments.run_fig14_online_joining,
    "theory_mixing": experiments.run_theory_mixing_time,
    "theory_failure": experiments.run_theory_failure,
}


def print_result(name: str, result: dict) -> None:
    """Pretty-print one experiment's tables, plots and traces."""
    print(f"=== {name}: {PRESETS.get(name, PRESETS.get(name + 'a', None)) and PRESETS[name if name in PRESETS else name + 'a'].description} ===")
    if "rows" in result:
        print(render_table(result["rows"]))
        write_csv(f"{name}.csv", result["rows"])
    if "traces" in result:
        print(line_plot(result["traces"], title=f"{name} convergence"))
        print(traces_table(result["traces"], title=f"{name} convergence traces"))
        write_csv(f"{name}_traces.csv", traces_to_rows(result["traces"]))
    if "panels" in result:
        for panel, content in result["panels"].items():
            if "traces" in content:
                print(traces_table(content["traces"], title=f"{name} {panel}"))
            if "converged" in content:
                rows = [{"algorithm": k, "converged_utility": v} for k, v in content["converged"].items()]
                print(render_table(rows, title=f"{name} {panel} converged"))
    if "converged" in result and "panels" not in result:
        rows = [{"series": k, "converged_utility": v} for k, v in result["converged"].items()]
        print(render_table(rows))
    if name == "fig09":
        for part in ("leave_rejoin", "consecutive_joins"):
            trace = result[part]["current_trace"]
            print(line_plot({"current utility": trace}, title=f"{name} {part}"))
            print(render_table(sample_trace(trace), title=f"{name} {part} current-utility trace"))
            print(f"  events: {result[part]['events']}")
    print()


def run_traced_solve(args) -> int:
    """``mvcom solve``: one telemetry-instrumented SE solve + final PBFT round."""
    from repro.harness.textplot import sparkline
    from repro.harness.tracing import traced_solve
    from repro.obs.summary import summarize_records

    run = traced_solve(
        num_committees=args.committees,
        capacity=args.capacity,
        gamma=args.gamma,
        seed=args.seed,
        max_iterations=args.iterations,
        trace_path=args.trace,
        profile=args.profile,
        top_n=args.top,
        resources=args.resources,
    )
    result = run.result
    print(
        f"solve: {args.committees} committees, Gamma={args.gamma}, "
        f"seed={args.seed}, engine={result.engine}"
    )
    print(
        f"  utility={result.best_utility:.2f}  iterations={result.iterations}"
        f"  converged={result.converged}"
    )
    print(f"  utility trace: {sparkline(result.utility_trace)}")
    if run.pbft.committed:
        print(f"  final PBFT committed in {run.pbft.latency:.3f}s (sim time)")
    else:
        print("  final PBFT round stalled")
    print()
    print(summarize_records(run.records, top_spans=args.top))
    if args.trace:
        print(f"\n[trace written to {args.trace}]")
    return 0


def run_trace_summary(path: str) -> int:
    """``mvcom trace summary PATH``: render a text report from a JSONL trace."""
    from repro.obs.summary import summarize_file

    print(summarize_file(path))
    return 0


def _metric_rows(snapshot: dict) -> list:
    """Flatten an aggregate snapshot into table rows (sorted series)."""
    rows = []
    for key, stats in snapshot["series"].items():
        kind, _, rest = key.partition("|")
        name, _, tag = rest.partition("|")
        row = {"kind": kind, "metric": name, "tag": tag, "count": stats["count"]}
        for stat in ("mean", "p50", "p90", "p99", "total", "rate", "last"):
            if stat in stats:
                row[stat] = round(float(stats[stat]), 6)
        rows.append(row)
    return rows


def run_trace_metrics(path: str, args) -> int:
    """``mvcom trace metrics PATH``: streaming aggregate report (+ SLOs)."""
    from repro.obs.metrics import MetricsAggregator
    from repro.obs.slo import SLO_SPECS, SloTracker
    from repro.obs.sinks import iter_jsonl

    aggregator = MetricsAggregator()
    tracker = None
    if args.slo:
        tracker = SloTracker(SLO_SPECS, aggregator)
        print(f"SLO specs loaded: {len(SLO_SPECS)}")
    for record in iter_jsonl(path):
        aggregator.emit(record)
        if tracker is not None:
            tracker.emit(record)
    snapshot = aggregator.snapshot()
    print(f"trace metrics: {snapshot['records']} records, "
          f"{len(snapshot['series'])} series")
    print(render_table(_metric_rows(snapshot), title="Aggregated metric series"))
    if args.out:
        aggregator.write_snapshot(args.out)
        print(f"[aggregate snapshot written to {args.out}]")
    if tracker is not None:
        violations = tracker.check()
        if violations:
            print(render_table(violations, title="SLO violations"))
            return 1
        print("SLOs: all passing")
    return 0


def run_trace_export(path: str, args, parser) -> int:
    """``mvcom trace export PATH --format {perfetto,openmetrics}``."""
    if args.format is None:
        parser.error("trace export requires --format {perfetto,openmetrics}")
    from repro.obs.sinks import iter_jsonl

    if args.format == "perfetto":
        from repro.obs.export import write_perfetto

        out = args.out or (path + ".perfetto.json")
        written = write_perfetto(iter_jsonl(path), out)
        print(f"[{written} trace events written to {out}]")
    else:
        from repro.obs.export import write_openmetrics
        from repro.obs.metrics import MetricsAggregator

        out = args.out or (path + ".prom")
        aggregator = MetricsAggregator.from_jsonl(path)
        write_openmetrics(aggregator, out)
        print(f"[{len(aggregator.snapshot()['series'])} series exposed to {out}]")
    return 0


def run_trace_diff(baseline_path: str, candidate_path: str, args) -> int:
    """``mvcom trace diff A B``: per-metric deltas with a regression gate.

    ``A``/``B`` are JSONL traces or aggregate snapshots (``trace metrics
    --out``); a relative delta above ``--fail-above`` percent (or a series
    present on only one side) exits non-zero.
    """
    from repro.obs.metrics import diff_snapshots, load_aggregate

    baseline = load_aggregate(baseline_path)
    candidate = load_aggregate(candidate_path)
    rows, breaches = diff_snapshots(
        baseline,
        candidate,
        threshold=args.fail_above,
        include_wall=args.include_wall,
    )
    changed = [row for row in rows if row["delta_pct"] > 0]
    print(
        f"trace diff: {len(rows)} compared stats, {len(changed)} changed, "
        f"{len(breaches)} above the {args.fail_above:g}% threshold"
    )
    if changed:
        display = []
        for row in sorted(changed, key=lambda entry: -entry["delta_pct"])[: args.top]:
            row = dict(row)
            row["delta_pct"] = round(row["delta_pct"], 4)
            if isinstance(row["baseline"], float):
                row["baseline"] = round(row["baseline"], 6)
                row["candidate"] = round(row["candidate"], 6)
            display.append(row)
        print(render_table(display, title="Largest per-metric deltas"))
    else:
        print("zero deltas: runs aggregate identically")
    if breaches:
        print(f"REGRESSION: {len(breaches)} stat(s) breached the threshold")
        return 1
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        # Forward everything after 'lint' to the analyzer's own parser so
        # --annotate/--list-rules work without duplicating flags.
        from repro.analysis.__main__ import main as lint_main

        return lint_main(argv[1:])

    parser = argparse.ArgumentParser(prog="mvcom", description="MVCom reproduction experiments")
    parser.add_argument(
        "experiment",
        choices=sorted(RUNNERS)
        + ["all", "eth2scale", "list", "lint", "serve", "solve", "storm", "trace"],
        help="figure to run, 'lint' for static analysis, 'solve' for a traced "
        "SE run, 'serve' for the warm-started steady-state service loop, "
        "'storm' for churn-storm fault injection, 'eth2scale' for "
        "the chunked-kernel scaling bench, or 'trace summary PATH' to "
        "inspect a trace file",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="paths to lint (lint) or '{summary,metrics,export,diff} PATH...' (trace)",
    )
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="solve: write the telemetry stream to this JSONL file")
    parser.add_argument("--profile", action="store_true",
                        help="solve: run the solver under cProfile, emit hotspots")
    parser.add_argument("--committees", type=int, default=100,
                        help="solve: number of arrived committees (default 100)")
    parser.add_argument("--capacity", type=int, default=None,
                        help="solve: final-block capacity (default 1000 per committee)")
    parser.add_argument("--gamma", type=int, default=10,
                        help="solve: SE executor replicas (default 10)")
    parser.add_argument("--seed", type=int, default=0,
                        help="solve: workload + solver seed (default 0)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="solve/serve/storm: SE iteration budget (default "
                        "2000); eth2scale defaults to its preset's budget")
    parser.add_argument("--top", type=int, default=10,
                        help="solve/trace: rows per summary table (default 10)")
    parser.add_argument("--events", type=int, default=200,
                        help="storm: number of churn events to generate (default 200)")
    parser.add_argument("--epochs", type=int, default=None,
                        help="storm: epochs of the warm serve loop to storm "
                        "(default 1, a single solve); serve: epochs to serve "
                        "(default 8)")
    parser.add_argument("--rate", type=float, default=1.3,
                        help="serve: trace blocks fed per live committee per "
                        "epoch (default 1.3)")
    parser.add_argument("--churn", type=float, default=0.15,
                        help="serve: fraction of the population replaced per "
                        "epoch (default 0.15)")
    parser.add_argument("--growth", type=int, default=0,
                        help="serve: net committees added (+) or removed (-) "
                        "per epoch (default 0)")
    parser.add_argument("--warm", dest="cold", action="store_false",
                        default=False,
                        help="serve: warm-start each epoch from the previous "
                        "solve (the default)")
    parser.add_argument("--cold", dest="cold", action="store_true",
                        help="serve: fresh per-epoch solver, byte-identical "
                        "to today's standalone solve() path")
    parser.add_argument("--shrink", action="store_true",
                        help="storm: on violation, shrink to a minimal reproducer")
    parser.add_argument("--strict", action="store_true",
                        help="storm: additionally arm the strict-n-min drill invariant")
    parser.add_argument("--replay", metavar="PATH", default=None,
                        help="storm: replay a reproducer JSON instead of generating")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="storm: reproducer JSON path (default "
                        "storm_reproducer.json); trace "
                        "metrics/export: output file for the aggregate "
                        "snapshot / exported trace")
    parser.add_argument("--network-sizes", metavar="N,N,...", default=None,
                        help="eth2scale: comma-separated ascending node "
                        "counts (default 8192,32768,131072 from the preset)")
    parser.add_argument("--committee-size", type=int, default=None,
                        help="eth2scale: members per committee (default 128, "
                        "the beacon-chain MAX_PERIOD_COMMITTEE_SIZE)")
    parser.add_argument("--max-batch-bytes", type=int, default=None,
                        help="eth2scale: chunked-kernel scratch budget in "
                        "bytes (default 256 MiB)")
    parser.add_argument("--resources", action="store_true",
                        help="solve: emit the harness-only obs.resources "
                        "gauge (peak RSS + CPU times) at span close")
    parser.add_argument("--format", choices=["perfetto", "openmetrics"],
                        default=None, dest="format",
                        help="trace export: output format (Chrome/Perfetto "
                        "trace_event JSON or OpenMetrics textfile)")
    parser.add_argument("--slo", action="store_true",
                        help="trace metrics: evaluate the shipped SLO specs "
                        "(repro.obs.slo.SLO_SPECS); non-zero exit on violation")
    parser.add_argument("--fail-above", type=float, default=0.0, metavar="PCT",
                        help="trace diff: relative per-stat regression "
                        "threshold in percent (default 0: any delta fails)")
    parser.add_argument("--include-wall", action="store_true",
                        help="trace diff: also compare wall-clock span "
                        "series (machine-dependent; off by default)")
    args = parser.parse_args(argv)
    if args.iterations is None and args.experiment != "eth2scale":
        args.iterations = DEFAULT_SE_ITERATIONS

    if args.experiment == "solve":
        if args.paths:
            parser.error(f"unexpected positional arguments for 'solve': {args.paths}")
        return run_traced_solve(args)

    if args.experiment == "trace":
        verb = args.paths[0] if args.paths else None
        if verb == "summary" and len(args.paths) == 2:
            return run_trace_summary(args.paths[1])
        if verb == "metrics" and len(args.paths) == 2:
            return run_trace_metrics(args.paths[1], args)
        if verb == "export" and len(args.paths) == 2:
            return run_trace_export(args.paths[1], args, parser)
        if verb == "diff" and len(args.paths) == 3:
            return run_trace_diff(args.paths[1], args.paths[2], args)
        parser.error(
            "usage: mvcom trace summary PATH | trace metrics PATH "
            "[--slo] [--out AGG.json] | trace export PATH --format "
            "{perfetto,openmetrics} [--out FILE] | trace diff A B "
            "[--fail-above PCT]"
        )

    if args.experiment == "storm":
        if args.paths:
            parser.error(f"unexpected positional arguments for 'storm': {args.paths}")
        if args.epochs is not None and args.epochs < 1:
            parser.error("storm: --epochs must be positive")
        if args.epochs is not None and args.epochs > 1:
            # A serve storm writes its whole history; Ĉ follows the stream.
            if args.shrink:
                parser.error("storm: --shrink needs a single solve (--epochs 1)")
            if args.capacity is not None:
                parser.error("storm: --capacity needs a single solve; serve "
                             "storms use the stream's 1000 per committee")
        from repro.harness.storms import run_storm_cli

        return run_storm_cli(args)

    if args.experiment == "serve":
        if args.paths:
            parser.error(f"unexpected positional arguments for 'serve': {args.paths}")
        from repro.harness.serve import run_serve_cli

        return run_serve_cli(args)

    if args.experiment == "eth2scale":
        if args.paths:
            parser.error(f"unexpected positional arguments for 'eth2scale': {args.paths}")
        from repro.harness.eth2scale import run_eth2scale_cli

        return run_eth2scale_cli(args)

    if args.paths:
        parser.error(f"unexpected positional arguments for {args.experiment!r}: {args.paths}")

    if args.trace or args.profile:
        parser.error("--trace/--profile only apply to the 'solve' subcommand")

    if args.experiment == "list":
        for name in list_presets():
            print(f"{name:15s} {PRESETS[name].description}")
        return 0

    names = sorted(RUNNERS) if args.experiment == "all" else [args.experiment]
    for name in names:
        started = time.time()
        result = RUNNERS[name]()
        print_result(name, result)
        preset = PRESETS.get(name) or PRESETS.get(name + "a")
        artifact_path = write_artifact(name, result, preset=preset)
        print(f"[{name} finished in {time.time() - started:.1f}s; artifact: {artifact_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
