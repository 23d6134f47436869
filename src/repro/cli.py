"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show the available systems and workload models.
``run``
    Simulate one workload under one or more systems and print a summary.
``experiment``
    Regenerate one of the paper's tables/figures or the extra studies:
    fig02, fig03, clean-slate (figs 8-11 + table 3), reused-vm (figs 12-15
    + table 4), fig16, collocation (figs 17-18), ablations, validation,
    sweeps, interplay, fleet.
``cluster``
    Simulate a fleet of hosts under VM churn, placement, consolidation
    and live migration, and print fleet FMFI, the per-host alignment
    distribution and migration cost accounting.

``trace``
    Run one of the ``experiment`` targets with telemetry enabled and
    export the event log, Chrome/Perfetto trace, span summary and time
    series into a directory (default ``trace/<name>``).
``diff``
    Compare two exported trace directories: per-host event-stream
    divergence, counter deltas and attributed span self-time changes.
``bench``
    Bench-history tools; ``repro bench compare`` gates a fresh
    ``BENCH_perf.json`` against ``BENCH_history.jsonl`` with
    noise-aware thresholds (fail-soft unless ``--strict``).

``run``, ``experiment`` and ``cluster`` accept ``--profile [N]`` (or the
``REPRO_PROFILE`` environment variable) to wrap the command in
:mod:`cProfile` and print the top N functions by cumulative time.
``cluster`` additionally exposes the worker-pool knobs
(``--spool-epochs``, ``--no-adaptive``) — execution strategies that
never change results.

Every command also takes the telemetry knobs ``--trace-out DIR``,
``--trace-events N`` and ``--trace-sample R`` (environment:
``REPRO_TRACE*``); with ``--trace-out`` the exports land in *DIR*
after the command finishes (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro import obs
from repro.cluster import (
    ClusterConfig,
    FleetResult,
    MigrationConfig,
    placement_names,
    run_cluster,
)
from repro.exec import Cell, ResultCache, run_cells
from repro.experiments import (
    ablations,
    breakdown,
    clean_slate,
    collocation,
    fig02_microbench,
    fig03_motivation,
    fleet_consolidation,
    interplay,
    overcommit,
    reused_vm,
    sweeps,
    validation,
)
from repro.pressure import victim_names
from repro.metrics.report import format_cache_stats, format_fleet_summary
from repro.policies.registry import PAPER_SYSTEMS, SYSTEMS
from repro.sim.config import SimulationConfig
from repro.workloads.suite import make_workload, workload_names

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulation-based reproduction of Gemini (EuroSys '23)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list systems and workloads")

    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument("workload", help="workload name (see `repro list`)")
    run.add_argument(
        "--system",
        "-s",
        action="append",
        dest="systems",
        help="system(s) to run; repeatable (default: Host-B-VM-B, THP, Gemini)",
    )
    run.add_argument("--epochs", type=int, default=16)
    run.add_argument("--fragment", type=float, default=0.8,
                     help="target FMFI at both layers (default 0.8)")
    run.add_argument("--guest-mib", type=int, default=256)
    run.add_argument("--host-mib", type=int, default=768)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--reused-vm", action="store_true",
                     help="prime the VM with a full SVM run first")
    _add_exec_args(run)

    experiment_choices = [
        "fig02", "fig03", "clean-slate", "reused-vm", "fig16",
        "collocation", "ablations", "validation", "sweeps",
        "interplay", "fleet", "overcommit",
    ]
    experiment = sub.add_parser("experiment", help="regenerate a paper table/figure")
    experiment.add_argument("name", choices=experiment_choices)
    experiment.add_argument("--epochs", type=int, default=None)
    experiment.add_argument("--unfragmented", action="store_true")
    experiment.add_argument(
        "--workload", "-w", action="append", dest="workloads",
        help="restrict to specific workloads; repeatable",
    )
    _add_exec_args(experiment)

    trace = sub.add_parser(
        "trace",
        help="run an experiment with telemetry on and export the trace",
    )
    trace.add_argument("name", choices=experiment_choices)
    trace.add_argument("--epochs", type=int, default=None)
    trace.add_argument("--unfragmented", action="store_true")
    trace.add_argument(
        "--workload", "-w", action="append", dest="workloads",
        help="restrict to specific workloads; repeatable",
    )
    _add_exec_args(trace)

    cluster = sub.add_parser(
        "cluster", help="simulate a fleet of hosts under VM churn"
    )
    cluster.add_argument("--hosts", type=int, default=8)
    cluster.add_argument("--host-mib", type=int, default=768)
    cluster.add_argument("--epochs", type=int, default=16)
    cluster.add_argument("--seed", type=int, default=42)
    cluster.add_argument("--system", default="Gemini",
                         help="coalescing policy on every host (see `repro list`)")
    cluster.add_argument(
        "--placement", default="first-fit", choices=placement_names(),
        help="VM placement policy (default first-fit)",
    )
    cluster.add_argument(
        "--fragment-host", type=float, default=0.0,
        help="FMFI target of the oldest host; hosts get a linear "
        "age gradient down to 0 on the newest (default 0)",
    )
    cluster.add_argument(
        "--check-invariants", action="store_true",
        help="verify page conservation after every migration (debug)",
    )
    cluster.add_argument(
        "--spool-epochs", type=int, default=None, metavar="K",
        help="drain worker record spools every K epochs "
        "(default: $REPRO_SPOOL_EPOCHS or 8)",
    )
    cluster.add_argument(
        "--no-adaptive", dest="adaptive", action="store_false",
        help="keep the worker pool even when serial would be faster",
    )
    _add_exec_args(cluster)

    pressure = sub.add_parser(
        "pressure",
        help="simulate an overcommitted fleet under memory pressure",
    )
    pressure.add_argument("--hosts", type=int, default=3)
    pressure.add_argument("--host-mib", type=int, default=128)
    pressure.add_argument("--epochs", type=int, default=10)
    pressure.add_argument("--seed", type=int, default=7)
    pressure.add_argument("--system", default="Gemini",
                          help="coalescing policy on every host")
    pressure.add_argument(
        "--overcommit", type=float, default=2.5,
        help="commitment admission multiple of physical memory "
        "(default 2.5)",
    )
    pressure.add_argument(
        "--victims", default="alignment-aware", choices=victim_names(),
        help="swap victim policy (default alignment-aware)",
    )
    pressure.add_argument(
        "--fragment-host", type=float, default=0.0,
        help="FMFI aging gradient of the fleet (default 0, clean hosts)",
    )
    _add_exec_args(pressure)

    diff = sub.add_parser(
        "diff",
        help="compare two exported trace directories (repro diff A B)",
    )
    diff.add_argument("dir_a", help="first export directory (baseline)")
    diff.add_argument("dir_b", help="second export directory")
    diff.add_argument(
        "--threshold", type=float, default=0.1, metavar="R",
        help="relative span self-time change treated as noise "
        "(default 0.1)",
    )
    diff.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when the deterministic state diverges",
    )

    bench = sub.add_parser(
        "bench", help="bench-history tools (repro bench compare)"
    )
    bench.add_argument("action", choices=["compare"])
    bench.add_argument(
        "--history", default="BENCH_history.jsonl", metavar="PATH",
        help="bench history JSONL (default BENCH_history.jsonl)",
    )
    bench.add_argument(
        "--fresh", default="BENCH_perf.json", metavar="PATH",
        help="fresh perf-smoke report to gate (default BENCH_perf.json)",
    )
    bench.add_argument(
        "--threshold", type=float, default=0.25, metavar="R",
        help="relative drift that flags a regression (default 0.25)",
    )
    bench.add_argument(
        "--window", type=int, default=5, metavar="K",
        help="history runs the baseline median is taken over (default 5)",
    )
    bench.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on regressions (default: fail-soft warnings)",
    )
    return parser


def _add_exec_args(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--workers", type=int, default=None,
        help="simulation worker processes (default: $REPRO_WORKERS or 1)",
    )
    command.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or no cache)",
    )
    command.add_argument(
        "--profile", nargs="?", const=25, default=None, type=int,
        metavar="N",
        help="profile the command with cProfile and print the top N "
        "cumulative hotspots (default N: 25; also $REPRO_PROFILE)",
    )
    command.add_argument(
        "--trace-out", default=None, metavar="DIR",
        help="enable telemetry and export traces to DIR "
        "(also $REPRO_TRACE_OUT)",
    )
    command.add_argument(
        "--trace-events", type=int, default=None, metavar="N",
        help="event ring capacity (default 65536; also $REPRO_TRACE_EVENTS)",
    )
    command.add_argument(
        "--trace-sample", type=float, default=None, metavar="R",
        help="event keep rate in (0, 1] (default 1.0; "
        "also $REPRO_TRACE_SAMPLE)",
    )


def _apply_exec_args(args: argparse.Namespace) -> None:
    """Publish --workers/--cache-dir/--trace-* where the experiment
    harness and forked workers read them (environment knobs)."""
    import os

    if args.workers is not None:
        os.environ["REPRO_WORKERS"] = str(args.workers)
    if args.cache_dir is not None:
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    if getattr(args, "trace_out", None) is not None:
        os.environ["REPRO_TRACE_OUT"] = args.trace_out
    if getattr(args, "trace_events", None) is not None:
        os.environ["REPRO_TRACE_EVENTS"] = str(args.trace_events)
    if getattr(args, "trace_sample", None) is not None:
        os.environ["REPRO_TRACE_SAMPLE"] = str(args.trace_sample)


def _cmd_list() -> int:
    print("Systems:")
    for name, spec in SYSTEMS.items():
        star = " (paper comparison set)" if name in PAPER_SYSTEMS else ""
        print(f"  {name}{star}")
    print()
    print("Workloads (Table 2):")
    for name in workload_names():
        workload = make_workload(name)
        print(f"  {name:<14s} {workload.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    systems = args.systems or ["Host-B-VM-B", "THP", "Gemini"]
    config = SimulationConfig(
        epochs=args.epochs,
        fragment_guest=args.fragment,
        fragment_host=args.fragment,
        guest_mib=args.guest_mib,
        host_mib=args.host_mib,
        seed=args.seed,
    )
    primer_factory = _svm_primer if args.reused_vm else None
    cells = [Cell(args.workload, system, config, primer_factory) for system in systems]
    cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache.from_env()
    results = run_cells(cells, workers=args.workers, cache=cache)
    header = (
        f"{'system':<20s} {'throughput':>10s} {'mean lat':>9s} {'p99':>9s} "
        f"{'TLB misses':>11s} {'aligned':>8s}"
    )
    print(header)
    print("-" * len(header))
    baseline = results[0]
    for system, result in zip(systems, results):
        print(
            f"{system:<20s} "
            f"{result.throughput / baseline.throughput:>9.2f}x "
            f"{result.mean_latency / baseline.mean_latency:>8.2f}x "
            f"{result.p99_latency / baseline.p99_latency:>8.2f}x "
            f"{result.tlb_misses:>11.2e} "
            f"{result.well_aligned_rate:>7.0%}"
        )
    if cache is not None and cache.stats.requests:
        print()
        print(format_cache_stats(cache.stats))
    return 0


def _svm_primer():
    """Module-level primer factory (picklable for worker processes)."""
    return make_workload("SVM")


def _cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name
    epochs = args.epochs
    if name == "fig02":
        print(fig02_microbench.format_fig02(fig02_microbench.run_fig02()))
    elif name == "fig03":
        results = fig03_motivation.run_fig03(epochs=epochs)
        print(fig03_motivation.format_fig03(results))
    elif name == "clean-slate":
        results = clean_slate.run_clean_slate(
            fragmented=not args.unfragmented,
            workloads=args.workloads,
            epochs=epochs,
        )
        label = " (unfragmented)" if args.unfragmented else " (fragmented)"
        print(clean_slate.format_clean_slate(results, label))
    elif name == "reused-vm":
        results = reused_vm.run_reused_vm(workloads=args.workloads, epochs=epochs)
        print(reused_vm.format_reused_vm(results))
    elif name == "fig16":
        results = breakdown.run_breakdown(workloads=args.workloads, epochs=epochs)
        print(breakdown.format_breakdown(results))
    elif name == "collocation":
        results = collocation.run_collocation(epochs=epochs)
        print(collocation.format_collocation(results))
    elif name == "validation":
        points = validation.run_validation()
        print(validation.format_validation(points))
    elif name == "sweeps":
        print(sweeps.format_sweep(
            sweeps.run_fragmentation_sweep(epochs=epochs),
            "Fragmentation sweep (Masstree)",
        ))
        print()
        print(sweeps.format_sweep(
            sweeps.run_tlb_sweep(epochs=epochs),
            "TLB capacity sweep (Masstree)",
        ))
    elif name == "interplay":
        print(interplay.format_balloon(interplay.run_balloon_interplay(epochs=epochs)))
        print()
        print(interplay.format_ksm(interplay.run_ksm_interplay(epochs=epochs)))
    elif name == "fleet":
        results = fleet_consolidation.run_fleet_consolidation(
            epochs=epochs, workers=args.workers
        )
        print(fleet_consolidation.format_fleet_consolidation(results))
    elif name == "overcommit":
        results = overcommit.run_overcommit(
            epochs=epochs, workers=args.workers
        )
        print(overcommit.format_overcommit(results))
    elif name == "ablations":
        print(ablations.format_ablation(
            ablations.run_timeout_ablation(epochs=epochs),
            "Booking timeout (Algorithm 1)",
        ))
        print()
        print(ablations.format_ablation(
            ablations.run_prealloc_sweep(epochs=epochs),
            "Huge preallocation threshold",
        ))
        print()
        print(ablations.format_ablation(
            ablations.run_bucket_hold_sweep(epochs=epochs),
            "Bucket hold time",
        ))
    return 0


def _profile_top(args: argparse.Namespace) -> int | None:
    """Hotspot count for --profile / $REPRO_PROFILE, or None (no profiling)."""
    import os

    top = getattr(args, "profile", None)
    if top is not None:
        return top
    raw = os.environ.get("REPRO_PROFILE", "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        return 25


def _cmd_cluster(args: argparse.Namespace) -> int:
    config = ClusterConfig(
        hosts=args.hosts,
        host_mib=args.host_mib,
        epochs=args.epochs,
        seed=args.seed,
        system=args.system,
        placement=args.placement,
        fragment_host=args.fragment_host,
        migration=MigrationConfig(check_invariants=args.check_invariants),
        spool_epochs=args.spool_epochs,
        adaptive_parallel=args.adaptive,
    )
    cache = (
        ResultCache(args.cache_dir, expected=FleetResult)
        if args.cache_dir
        else ResultCache.from_env(expected=FleetResult)
    )
    result = run_cluster(config, workers=args.workers, cache=cache)
    print(format_fleet_summary(result))
    if cache is not None and cache.stats.requests:
        print()
        print(format_cache_stats(cache.stats))
    return 0


def _cmd_pressure(args: argparse.Namespace) -> int:
    """``repro pressure``: an overcommitted fleet with the full reclaim
    ladder on, reported with swap-traffic and alignment-damage columns."""
    config = replace(
        overcommit.OVERCOMMIT_CONFIG,
        hosts=args.hosts,
        host_mib=args.host_mib,
        epochs=args.epochs,
        seed=args.seed,
        system=args.system,
        overcommit_ratio=args.overcommit,
        fragment_host=args.fragment_host,
        pressure=replace(
            overcommit.OVERCOMMIT_CONFIG.pressure,
            victim_policy=args.victims,
        ),
    )
    cache = (
        ResultCache(args.cache_dir, expected=FleetResult)
        if args.cache_dir
        else ResultCache.from_env(expected=FleetResult)
    )
    result = run_cluster(config, workers=args.workers, cache=cache)
    print(format_fleet_summary(result))
    print(f"  overcommit ratio     {config.overcommit_ratio:.2f}x "
          f"(victims: {config.pressure.victim_policy})")
    print(f"  swap traffic         {result.fleet_swap_out_pages} out / "
          f"{result.fleet_swap_in_pages} in / "
          f"{result.fleet_swapped_pages} resident pages")
    print(f"  pressure demotions   {result.fleet_pressure_demotions} huge "
          f"({result.fleet_pressure_aligned_demotions} well-aligned)")
    print(f"  aligned huge retained {result.fleet_aligned_huge}")
    final = {r.host: r for r in result.host_epochs
             if r.epoch == max(h.epoch for h in result.host_epochs)}
    rows = " ".join(
        f"host{index}={record.pressure:.2f}"
        for index, record in sorted(final.items())
    )
    print(f"  final pressure       {rows}")
    if cache is not None and cache.stats.requests:
        print()
        print(format_cache_stats(cache.stats))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace <experiment>``: experiment + telemetry + export.

    Forces collection on, defaults the export directory to
    ``trace/<name>``, and bypasses the result cache unless one was asked
    for explicitly — cache hits skip the runs that emit the events.
    """
    import os

    if not os.environ.get("REPRO_TRACE_OUT", "").strip():
        os.environ["REPRO_TRACE_OUT"] = os.path.join("trace", args.name)
    if args.cache_dir is None:
        os.environ["REPRO_CACHE_DIR"] = ""
    obs.configure_from_env()
    return _cmd_experiment(args)


def _cmd_diff(args: argparse.Namespace) -> int:
    """``repro diff A B``: differential analysis of two trace exports."""
    from repro.metrics.report import format_run_diff
    from repro.obs.analyze import diff_runs

    diff = diff_runs(args.dir_a, args.dir_b, threshold=args.threshold)
    print(format_run_diff(diff))
    if args.strict and not diff.deterministic_match:
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench compare``: gate a perf report against history."""
    import os
    import pathlib

    from repro.metrics.report import format_bench_compare
    from repro.obs import bench

    fresh_path = pathlib.Path(args.fresh)
    if not fresh_path.exists():
        print(f"bench report not found: {fresh_path}")
        return 1
    import json

    report = json.loads(fresh_path.read_text())
    history = bench.load_history(args.history)
    if not history:
        print(f"no bench history at {args.history}; nothing to compare")
        return 0
    comparison = bench.compare_history(
        history, report, threshold=args.threshold, window=args.window
    )
    print(format_bench_compare(comparison, args.threshold))
    if comparison.regressions and os.environ.get("GITHUB_ACTIONS"):
        for drift in comparison.regressions:
            print(
                f"::warning title=bench-history::{drift.name} "
                f"{drift.baseline:.4g} -> {drift.value:.4g} "
                f"({drift.drift:+.1%})"
            )
    if args.strict and not comparison.ok:
        return 1
    return 0


def _export_trace() -> None:
    """Write the collected telemetry to the requested trace directory."""
    out_dir = obs.trace_out_dir()
    telemetry = obs.get()
    if out_dir is None or telemetry is None:
        return
    paths = obs.export.export_run(telemetry, out_dir)
    print()
    print(f"trace exported to {out_dir}/ ({', '.join(sorted(paths))})")
    stats = telemetry.stats()
    if stats.get("spans_dropped"):
        print(
            f"warning: {stats['spans_dropped']} spans dropped — trace "
            f"truncated at {telemetry.span_capacity} closed spans"
        )
    from repro.metrics.report import format_critical_path, format_health_summary
    from repro.obs.analyze import critical_paths

    report = critical_paths(telemetry)
    if report.epochs and report.total_s > 0.0:
        print(format_critical_path(report))
    events = telemetry.events()
    if any(event.kind.startswith("health.") for event in events):
        print(format_health_summary(events))


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "pressure":
        return _cmd_pressure(args)
    return 1  # pragma: no cover - argparse enforces the choices


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "bench":
        return _cmd_bench(args)
    _apply_exec_args(args)
    obs.configure_from_env()
    top = _profile_top(args)
    if top is None:
        status = _dispatch(args)
        _export_trace()
        return status
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = _dispatch(args)
    finally:
        profiler.disable()
        buffer = io.StringIO()
        pstats.Stats(profiler, stream=buffer).sort_stats(
            "cumulative"
        ).print_stats(top)
        report = buffer.getvalue()
        print()
        print(report, end="")
        out_dir = obs.trace_out_dir()
        if out_dir is not None:
            # Keep the profile next to the trace it explains.
            import pathlib

            directory = pathlib.Path(out_dir)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "profile.txt").write_text(report)
        _export_trace()
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
