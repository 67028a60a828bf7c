"""Command-line runner, mirroring the paper artifact's automation scripts.

Usage::

    python -m repro list                      # available benchmarks
    python -m repro run IS PR --configs baseline dx100
    python -m repro run --all --quick --csv results/results.csv
    python -m repro run CG --scale full       # paper scale, dx100 only
    python -m repro sweep --quick --jobs 4    # parallel + cached grid
    python -m repro golden check              # every pinned golden file
    python -m repro golden check --scalar     # same, on the scalar oracles
    python -m repro campaign 'benchmarks=IS,CG dram=ddr4,ddr5' --workers 2
    python -m repro campaign --resume 20260808-1200 --workers 4
    python -m repro run IS --quick --trace results/trace.json
    python -m repro timeline IS --quick       # ASCII observability timeline
    python -m repro serve --tenants 2 --aggressor 1   # multi-tenant QoS
    python -m repro area                      # Table 4

Each run prints a comparison table; ``--csv`` additionally writes the raw
metrics, like the artifact's ``results.csv``.  ``run``, ``timeline`` and
``sweep`` build their :class:`~repro.sim.sweep.SweepTask` grid with
:func:`~repro.sim.sweep.main_sweep_tasks` and run each task through
:func:`~repro.sim.sweep.execute_task`, so one command line gives the same
numbers on every path; ``run --scale full`` writes the stamped sweep
record to ``results/full_scale.json``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.common.config import DRAM_PRESETS
from repro.dx100.area import area_power
from repro.sim.golden import SUITES
from repro.sim.report import comparison_table, to_csv
from repro.sim.sweep import (
    CONFIG_BUILDERS, SweepOutcome, TaskRun, execute_task, main_sweep_tasks,
    write_sweep_records,
)
from repro.workloads import MAIN_BENCHMARKS, QUICK_BENCHMARKS, SCALES


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DX100 reproduction benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available benchmarks")

    run = sub.add_parser("run", help="run benchmarks")
    run.add_argument("benchmarks", nargs="*",
                     help="benchmark names (see `list`)")
    run.add_argument("--all", action="store_true",
                     help="run all 12 benchmarks")
    run.add_argument("--quick", dest="scale", action="store_const",
                     const="quick", default="main",
                     help="use the reduced dataset sizes (--scale quick)")
    run.add_argument("--configs", nargs="+", default=None,
                     choices=sorted(CONFIG_BUILDERS),
                     help="configurations to run (default: baseline dx100; "
                          "--scale full defaults to dx100 alone)")
    run.add_argument("--cores", type=int, default=4)
    run.add_argument("--audit", action="store_true",
                     help="attach the JEDEC command-stream auditor to every "
                          "memory channel and fail if any timing constraint "
                          "is violated")
    run.add_argument("--csv", metavar="PATH",
                     help="also write raw metrics as CSV")
    run.add_argument("--trace", metavar="PATH",
                     help="record a Chrome trace-event JSON (load in "
                          "Perfetto / chrome://tracing); with several runs "
                          "the benchmark and config names are inserted "
                          "before the extension")
    run.add_argument("--sample-every", type=int, default=0, metavar="N",
                     help="snapshot the timeline samplers every N cycles "
                          "(0 = off; --trace alone defaults to 1000)")
    run.add_argument("--scale", choices=list(SCALES), default="main",
                     help="dataset scale: main (default), quick (alias for "
                          "--quick), or full — paper-sized footprints far "
                          "past every cache (2^25-key IS etc.); full "
                          "defaults to the dx100 configuration and writes "
                          "the sweep record to results/full_scale.json")
    run.add_argument("--dram", choices=sorted(DRAM_PRESETS), default=None,
                     help="memory technology preset (default: ddr4; cxl "
                          "puts the pool behind the modeled far-memory "
                          "link)")

    sweep = sub.add_parser(
        "sweep",
        help="run the benchmark x configuration grid in parallel, backed "
             "by the content-addressed run cache",
    )
    sweep.add_argument("benchmarks", nargs="*",
                       help="benchmark names (default: all 12)")
    sweep.add_argument("--quick", action="store_true",
                       help="use the reduced dataset sizes")
    sweep.add_argument("--configs", nargs="+",
                       default=["baseline", "dmp", "dx100"],
                       choices=sorted(CONFIG_BUILDERS))
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or the "
                            "CPU count; 1 = strictly serial)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="re-simulate everything, ignoring the run cache")
    sweep.add_argument("--cache-dir", metavar="DIR",
                       help="run-cache location (default: results/.runcache "
                            "or $REPRO_CACHE_DIR)")
    sweep.add_argument("--json", metavar="PATH",
                       help="where to write the structured sweep record "
                            "(default: results/sweep.json)")
    sweep.add_argument("--prune-cache", action="store_true",
                       help="first delete cache entries from older model "
                            "versions")
    sweep.add_argument("--sample-every", type=int, default=0, metavar="N",
                       help="attach the timeline samplers to every run "
                            "(period N cycles; summaries land in each "
                            "result's extra fields; 0 = off)")
    sweep.add_argument("--dram", choices=sorted(DRAM_PRESETS), default=None,
                       help="memory technology preset for every task "
                            "(default: ddr4; cxl puts the pool behind the "
                            "modeled far-memory link)")

    campaign = sub.add_parser(
        "campaign",
        help="run a resumable multi-worker campaign from a declarative "
             "spec ('benchmarks=IS,CG dram=ddr4,ddr5 tile=4k:64k "
             "tenants=1:8'); state persists in results/.campaigns/<id> "
             "and an interrupted campaign resumes with zero duplicated "
             "simulation",
    )
    campaign.add_argument("spec", nargs="?", default="",
                          help="spec line of key=values clauses (empty = "
                               "the full default grid); see "
                               "EXPERIMENTS.md 'Campaigns'")
    campaign.add_argument("--id", dest="cid", default=None,
                          help="campaign id (default: a timestamp); the "
                               "manifest lives in results/.campaigns/<id>")
    campaign.add_argument("--resume", metavar="ID",
                          help="resume an existing campaign instead of "
                               "creating one (only non-done tasks run)")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes (default: 1 = in-process "
                               "serial)")
    campaign.add_argument("--root", metavar="DIR", default=None,
                          help="campaign root (default: results/.campaigns)")
    campaign.add_argument("--no-cache", action="store_true",
                          help="ignore the run cache (every task simulates)")
    campaign.add_argument("--cache-dir", metavar="DIR",
                          help="run-cache location (default: "
                               "results/.runcache or $REPRO_CACHE_DIR)")
    campaign.add_argument("--lease-ttl", type=float, default=30.0,
                          metavar="S",
                          help="seconds without a heartbeat before a "
                               "worker's task lease expires and is "
                               "reclaimed (default: 30)")
    campaign.add_argument("--max-retries", type=int, default=2,
                          help="failed-task retry budget with capped "
                               "exponential backoff (default: 2)")
    campaign.add_argument("--dry-run", action="store_true",
                          help="expand and print the task grid, then exit "
                               "without creating a campaign")

    timeline = sub.add_parser(
        "timeline",
        help="run one benchmark with the observability samplers attached "
             "and print an ASCII timeline (RBH, bandwidth, occupancy, "
             "tile drains) plus the summary statistics",
    )
    timeline.add_argument("benchmark", nargs="?", default="IS",
                          help="benchmark name (default: IS)")
    timeline.add_argument("--mode", default="dx100",
                          choices=sorted(CONFIG_BUILDERS))
    timeline.add_argument("--quick", action="store_true",
                          help="use the reduced dataset sizes")
    timeline.add_argument("--cores", type=int, default=4)
    timeline.add_argument("--dram", choices=sorted(DRAM_PRESETS),
                          default=None,
                          help="DRAM preset (e.g. cxl adds the link-queue "
                               "sparkline; default: the mode's own)")
    timeline.add_argument("--sample-every", type=int, default=1000,
                          metavar="N",
                          help="sampling period in cycles (default: 1000)")
    timeline.add_argument("--width", type=int, default=72,
                          help="sparkline width in characters (default: 72)")
    timeline.add_argument("--trace", metavar="PATH",
                          help="also write the Chrome trace-event JSON")

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant QoS serving layer: N closed-loop "
             "tenant streams over one shared DRAM system, with token-"
             "bucket admission, fair scheduling, and partitioned Row "
             "Table / request buffers; prints per-tenant p50/p99 latency, "
             "throughput, and the Jain fairness index",
    )
    serve.add_argument("--tenants", type=int, default=2,
                       help="concurrent tenant streams (default: 2)")
    serve.add_argument("--tiles", type=int, default=4,
                       help="tiles per tenant (default: 4)")
    serve.add_argument("--tile-lines", type=int, default=96,
                       help="lines per tile (default: 96)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--aggressor", type=int, default=-1, metavar="T",
                       help="mark tenant index T as an interference "
                            "generator (4x token refill; -1 = none)")
    serve.add_argument("--no-borrow", action="store_true",
                       help="disable work-conserving borrow (hard "
                            "partitioning only)")
    serve.add_argument("--no-check", action="store_true",
                       help="skip the per-tile QoS invariant checks")

    golden = sub.add_parser(
        "golden",
        help="re-run the experiments pinned under tests/golden/ and diff "
             "them exactly (check) or rewrite the files after an "
             "intentional model change (update)",
    )
    action = golden.add_subparsers(dest="action", required=True)
    suites = {"nargs": "*", "metavar": "SUITE",
              "help": f"{', '.join(SUITES)} (default: all)"}
    check = action.add_parser("check", help="exit 1 on any mismatch")
    check.add_argument("suites", **suites)
    check.add_argument("--scalar", action="store_true",
                       help="replay every run on the scalar DRAM engine "
                            "and the scalar cache/core front-end (the "
                            "oracles must reproduce the files bitwise)")
    action.add_parser("update", help="rewrite the golden files").add_argument(
        "suites", **suites)

    sub.add_parser("area", help="print the Table 4 area/power breakdown")
    return parser


def cmd_list() -> int:
    print(f"{'name':8s} {'suite':10s} pattern")
    for name, factory in MAIN_BENCHMARKS.items():
        wl = QUICK_BENCHMARKS[name]()
        print(f"{name:8s} {wl.suite:10s} {wl.pattern}")
    return 0


def cmd_run(args) -> int:
    """Run the selected benchmarks under the selected configurations."""
    from pathlib import Path
    from time import perf_counter

    full = args.scale == "full"
    # The full-scale footprints are only tractable offloaded: the
    # baseline's per-op trace would be tens of millions of ops.
    configs = args.configs or (["dx100"] if full else ["baseline", "dx100"])
    names = list(SCALES[args.scale]) if args.all else args.benchmarks
    if not names and full:
        names = ["IS"]
    if not names:
        print("no benchmarks selected (name them or pass --all)",
              file=sys.stderr)
        return 2
    sample_every = args.sample_every or (1000 if args.trace else 0)
    try:
        tasks = main_sweep_tasks(
            quick=args.scale == "quick", benchmarks=names,
            modes=tuple(configs), cores=args.cores, audit=args.audit,
            sample_every=sample_every, dram=args.dram)
        if full:
            tasks = [replace(task, scale="full") for task in tasks]
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    runs = []
    t0 = perf_counter()
    for task in tasks:
        bus = None
        if args.trace or sample_every:
            from repro.obs.events import EventBus
            bus = EventBus(trace=bool(args.trace), sample_every=sample_every)
        result, wall = execute_task(task, obs=bus)
        runs.append(TaskRun(task, result, wall, cached=False, key=""))
        if args.trace:
            from repro.obs.trace import write_chrome_trace
            path = Path(args.trace)
            if len(tasks) > 1:
                path = path.with_name(f"{path.stem}-{task.benchmark}-"
                                      f"{task.mode}{path.suffix}")
            write_chrome_trace(bus, path)
            print(f"  trace written to {path}", file=sys.stderr)
        print(f"  done: {task.benchmark} [{task.mode}]", file=sys.stderr)
    outcome = SweepOutcome(runs, jobs=1, wall=perf_counter() - t0,
                           cache_misses=len(runs))
    results = [run.result for run in runs]

    print(comparison_table(outcome.nested()))
    if full:
        # The stamped sweep record (model version, every RunResult field)
        # beside the sweep artifacts, so EXPERIMENTS can cite it.
        out = Path("results") / "full_scale.json"
        write_sweep_records(outcome, out.parent, sweep_json=out)
        print(f"\nfull-scale record written to {out}")
    if args.csv:
        to_csv(results, args.csv)
        print(f"\nraw metrics written to {args.csv}")
    if args.audit:
        commands = sum(r.extra.get("audit_commands", 0) for r in results)
        violations = sum(r.extra.get("audit_violations", 0) for r in results)
        print(f"\naudit: {int(commands)} DRAM commands checked, "
              f"{int(violations)} timing violation(s)")
        if violations:
            for r in results:
                if r.extra.get("audit_violations"):
                    print(f"--- {r.workload} [{r.config}] ---",
                          file=sys.stderr)
                    print(r.extra.get("audit_report", ""), file=sys.stderr)
            return 1
    return 0


def cmd_sweep(args) -> int:
    """Parallel, cached sweep over the benchmark x configuration grid."""
    from pathlib import Path

    from repro.sim.sweep import RunCache, run_sweep

    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be >= 1 (got {args.jobs}); omit it for the "
              f"REPRO_JOBS/CPU-count default", file=sys.stderr)
        return 2

    if args.prune_cache:
        removed = RunCache(args.cache_dir).prune()
        print(f"pruned {removed} stale cache entr"
              f"{'y' if removed == 1 else 'ies'}", file=sys.stderr)

    try:
        tasks = main_sweep_tasks(
            quick=args.quick, benchmarks=args.benchmarks or None,
            modes=tuple(args.configs), sample_every=args.sample_every,
            dram=args.dram)
    except KeyError as exc:   # an unknown benchmark name
        print(exc.args[0], file=sys.stderr)
        return 2
    try:
        outcome = run_sweep(tasks, jobs=args.jobs, cache=not args.no_cache,
                            cache_dir=args.cache_dir)
    except ValueError as exc:   # e.g. a bad REPRO_JOBS value
        print(exc, file=sys.stderr)
        return 2
    write_sweep_records(outcome, Path("results"), sweep_json=args.json)

    print(comparison_table(outcome.nested()))
    fresh_wall = sum(r.wall for r in outcome.runs if not r.cached)
    print(f"\n{len(outcome.runs)} runs in {outcome.wall:.1f}s wall "
          f"({outcome.jobs} job(s)): {outcome.cache_hits} cached, "
          f"{outcome.cache_misses} simulated "
          f"({fresh_wall:.1f}s of simulation)")
    print(f"sweep record: {args.json or 'results/sweep.json'}")
    return 0


def cmd_campaign(args) -> int:
    """Create or resume a campaign and drive it to completion."""
    import time as _time

    from repro.sim.fabric import (
        RetryPolicy, build_tasks, campaign_dir, campaign_status,
        create_campaign, run_campaign,
    )
    from repro.sim.specs import SpecError

    if args.workers < 1:
        print(f"--workers must be >= 1 (got {args.workers})",
              file=sys.stderr)
        return 2

    if args.resume:
        path = campaign_dir(args.resume, args.root)
        if not (path / "campaign.json").exists():
            print(f"no campaign at {path}", file=sys.stderr)
            return 2
        status = campaign_status(path)
        print(f"resuming campaign {args.resume}: {status.done} done, "
              f"{status.failed} failed, {status.pending} pending, "
              f"{status.active} leased", file=sys.stderr)
    else:
        try:
            tasks = build_tasks(args.spec)
        except SpecError as exc:
            print(f"bad spec: {exc}", file=sys.stderr)
            return 2
        if not tasks:
            print("spec expands to zero tasks", file=sys.stderr)
            return 2
        if args.dry_run:
            print(f"{len(tasks)} task(s):")
            for task in tasks:
                print(f"  {task.tid:<28s} [{task.kind}] group={task.group}")
            return 0
        cid = args.cid or _time.strftime("%Y%m%d-%H%M%S")
        try:
            path = create_campaign(
                tasks, cid, root=args.root, spec_text=args.spec,
                retry=RetryPolicy(max_retries=args.max_retries),
                lease_ttl_s=args.lease_ttl,
                cache=not args.no_cache, cache_dir=args.cache_dir)
        except FileExistsError as exc:
            print(f"{exc} (use --resume {cid} to continue it)",
                  file=sys.stderr)
            return 2
        status = campaign_status(path)
        print(f"campaign {cid}: {status.total} task(s), "
              f"{status.done} already in the run cache, "
              f"{status.pending} to simulate", file=sys.stderr)

    def render(status, cache_hits, eta) -> None:
        eta_text = f", ~{eta:.0f}s left" if eta is not None else ""
        print(f"  [{status.done} done | {status.active} active | "
              f"{status.pending} pending | {status.failed} failed] "
              f"cache hits {cache_hits}{eta_text}", file=sys.stderr)

    summary = run_campaign(path, workers=args.workers,
                           cache=not args.no_cache,
                           cache_dir=args.cache_dir, progress=render)

    print(f"\ncampaign {summary['id']}: {summary['done']}/{summary['total']} "
          f"done, {summary['failed']} failed "
          f"({summary['cache_hits']} cache hit(s), "
          f"{summary['sim_wall_s']}s simulating, "
          f"{summary.get('wall_s', 0.0)}s wall)")
    print(f"report: {path / 'summary.md'}")
    return 1 if summary["failed"] else 0


def cmd_timeline(args) -> int:
    """Run one benchmark with samplers on and print the ASCII timeline."""
    from repro.obs.events import EventBus
    from repro.obs.timeline import render_timeline

    try:
        [task] = main_sweep_tasks(
            quick=args.quick, benchmarks=[args.benchmark],
            modes=(args.mode,), cores=args.cores,
            sample_every=args.sample_every, dram=args.dram)
    except KeyError:
        print(f"unknown benchmark {args.benchmark!r}", file=sys.stderr)
        return 2
    if args.sample_every <= 0:
        print("--sample-every must be positive", file=sys.stderr)
        return 2
    obs = EventBus(trace=bool(args.trace), sample_every=args.sample_every)
    result, _ = execute_task(task, obs=obs)

    print(f"{args.benchmark} [{args.mode}]: {result.cycles} cycles, "
          f"BW {result.bandwidth_utilization:.2f}, "
          f"RBH {result.row_buffer_hit_rate:.2f}")
    print()
    print(render_timeline(obs.timeline, width=args.width))
    summary = obs.summary()
    print()
    for key in sorted(summary):
        value = summary[key]
        shown = f"{value:.4f}" if isinstance(value, float) else value
        print(f"  {key:<28s} {shown}")
    if args.trace:
        from pathlib import Path
        from repro.obs.trace import write_chrome_trace
        path = Path(args.trace)
        write_chrome_trace(obs, path)
        print(f"\ntrace written to {path}")
    return 0


def cmd_serve(args) -> int:
    """Run the multi-tenant serving layer."""
    from repro.serve import make_tenants, serve_run

    if args.tenants < 1:
        print("--tenants must be >= 1", file=sys.stderr)
        return 2
    specs = make_tenants(args.tenants, tiles=args.tiles,
                         tile_lines=args.tile_lines, seed=args.seed,
                         aggressor=args.aggressor)
    report = serve_run(specs, borrow=not args.no_borrow,
                       check=not args.no_check)
    print(report.render())
    return 0


def cmd_golden(args) -> int:
    """Check or update the golden files (exit 1 on any mismatch)."""
    from repro.sim.golden import check, update

    unknown = [name for name in args.suites if name not in SUITES]
    if unknown:
        print(f"unknown golden suite(s) {', '.join(unknown)}; valid: "
              f"{', '.join(SUITES)}", file=sys.stderr)
        return 2
    failed = 0
    for name in args.suites or list(SUITES):
        suite = SUITES[name]
        if args.action == "update":
            print(f"golden {name}: updated {update(suite)}")
            continue
        engines = "scalar" if args.scalar else "batched"
        try:
            problems = check(suite, scalar=args.scalar)
        except FileNotFoundError:
            problems = [f"no golden file at {suite.path}"]
        if problems:
            failed += 1
            print(f"golden {name}: FAILED on the {engines} engines "
                  f"({len(problems)} mismatch(es)):", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            print(f"if the model change is intentional, regenerate with "
                  f"`python -m repro golden update {name}`", file=sys.stderr)
        else:
            print(f"golden {name}: bitwise identical on the {engines} "
                  f"engines")
    return 1 if failed else 0


def cmd_area() -> int:
    """Print the Table 4 area/power breakdown."""
    report = area_power()
    print(f"{'module':<16s} {'area mm2':>9s} {'power mW':>9s}")
    for name, (area, power) in report.modules.items():
        print(f"{name:<16s} {area:9.3f} {power:9.2f}")
    print(f"{'TOTAL (28nm)':<16s} {report.total_area_mm2:9.3f} "
          f"{report.total_power_mw:9.2f}")
    print(f"14nm: {report.area_14nm_mm2:.2f} mm2, "
          f"{report.overhead_percent:.1f}% of a 4-core processor")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "campaign":
        return cmd_campaign(args)
    if args.command == "timeline":
        return cmd_timeline(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "golden":
        return cmd_golden(args)
    if args.command == "area":
        return cmd_area()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
