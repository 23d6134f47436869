"""Result export: CSV and Markdown writers for experiment matrices.

The experiment harness produces nested ``results[workload][system]``
dictionaries of :class:`~repro.sim.results.RunResult`; these helpers
flatten them for spreadsheets and docs (EXPERIMENTS.md is generated with
them).
"""

from __future__ import annotations

import csv
import io
from typing import Mapping

from repro.sim.results import RunResult

__all__ = [
    "results_to_rows",
    "write_csv",
    "matrix_to_markdown",
    "series_to_csv",
    "format_cache_stats",
    "format_bench_fleet",
    "fleet_summary_rows",
    "fleet_to_markdown",
    "format_fleet_summary",
    "format_top_spans",
    "telemetry_series_to_csv",
    "format_critical_path",
    "format_histograms",
    "format_health_summary",
    "format_run_diff",
    "format_bench_compare",
]

#: RunResult properties exported by default.
DEFAULT_METRICS = [
    "throughput",
    "mean_latency",
    "p99_latency",
    "tlb_misses",
    "well_aligned_rate",
    "huge_pages",
    "bloat_pages",
]


def results_to_rows(
    results: Mapping[str, Mapping[str, RunResult]],
    metrics: list[str] | None = None,
) -> list[dict[str, object]]:
    """Flatten a results matrix into one dict per (workload, system)."""
    metrics = metrics or DEFAULT_METRICS
    rows = []
    for workload, row in results.items():
        for system, result in row.items():
            record: dict[str, object] = {"workload": workload, "system": system}
            for metric in metrics:
                record[metric] = getattr(result, metric)
            rows.append(record)
    return rows


def write_csv(
    results: Mapping[str, Mapping[str, RunResult]],
    path: str,
    metrics: list[str] | None = None,
) -> None:
    """Write the flattened matrix to *path* as CSV."""
    rows = results_to_rows(results, metrics)
    if not rows:
        raise ValueError("empty results matrix")
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def matrix_to_markdown(
    table: Mapping[str, Mapping[str, float]],
    title: str = "",
    fmt: str = "{:.2f}",
) -> str:
    """Render a workload x system table of floats as GitHub Markdown."""
    if not table:
        return title
    systems = list(next(iter(table.values())).keys())
    lines = []
    if title:
        lines.append(f"**{title}**")
        lines.append("")
    lines.append("| workload | " + " | ".join(systems) + " |")
    lines.append("|---" * (len(systems) + 1) + "|")
    for workload, row in table.items():
        cells = " | ".join(fmt.format(row.get(s, float("nan"))) for s in systems)
        lines.append(f"| {workload} | {cells} |")
    means = {
        s: sum(row[s] for row in table.values() if s in row) / len(table)
        for s in systems
    }
    cells = " | ".join(fmt.format(means[s]) for s in systems)
    lines.append(f"| **average** | {cells} |")
    return "\n".join(lines)


def format_cache_stats(stats) -> str:
    """One-line summary of a result cache's hit/miss accounting.

    *stats* is a :class:`repro.exec.CacheStats` (duck-typed so reports can
    be rendered without importing the executor).
    """
    return (
        f"result cache: {stats.hits} hits / {stats.misses} misses "
        f"({stats.hit_rate:.0%} hit rate), {stats.stores} results stored"
    )


def fleet_summary_rows(result) -> list[dict[str, object]]:
    """Per-host rows of a fleet run's final state.

    *result* is a :class:`repro.cluster.FleetResult` (duck-typed; this
    module must not import the cluster package, which imports metrics).
    Each row carries the host's final FMFI, utilization, VM count and
    well-aligned huge-page rate (blank when the host backs no huge
    pages).
    """
    fmfi = result.host_fmfi()
    alignment = result.alignment_distribution()
    final = {record.host: record for record in result._final_host_epochs()}
    rows: list[dict[str, object]] = []
    for host in sorted(final):
        record = final[host]
        rows.append(
            {
                "host": host,
                "vms": record.vms,
                "utilization": record.utilization,
                "fmfi": fmfi.get(host, 0.0),
                "well_aligned_rate": alignment.get(host),
            }
        )
    return rows


def fleet_to_markdown(result, title: str = "") -> str:
    """Render a fleet run's per-host state as a GitHub Markdown table."""
    lines = []
    if title:
        lines.append(f"**{title}**")
        lines.append("")
    lines.append("| host | vms | utilization | FMFI | well-aligned |")
    lines.append("|---|---|---|---|---|")
    for row in fleet_summary_rows(result):
        aligned = row["well_aligned_rate"]
        aligned_cell = f"{aligned:.3f}" if aligned is not None else "-"
        lines.append(
            f"| {row['host']} | {row['vms']} | {row['utilization']:.2f} "
            f"| {row['fmfi']:.4f} | {aligned_cell} |"
        )
    lines.append(
        f"| **fleet** | | | {result.fleet_fmfi:.4f} "
        f"| {result.fleet_well_aligned_rate:.3f} |"
    )
    return "\n".join(lines)


def format_bench_fleet(bench: dict) -> str:
    """Markdown table of the fleet section of ``BENCH_perf.json``.

    Rendered into the CI job summary by the perf-smoke workflow, so the
    serial-versus-parallel trajectory is visible per run without digging
    the JSON artifact out.  Returns an empty string when the report
    carries no fleet section (old bench files).
    """
    fleet = bench.get("fleet")
    if not fleet:
        return ""
    serial_s = fleet.get("serial_seconds", 0.0)
    parallel_s = fleet.get("parallel_seconds", 0.0)
    lines = [
        f"**Fleet: {fleet.get('hosts', '?')} hosts x "
        f"{fleet.get('epochs', '?')} epochs** "
        f"({fleet.get('workers', '?')} workers, "
        f"{fleet.get('cores', '?')} cores, "
        f"adaptive mode: {fleet.get('parallel_mode', 'unknown')})",
        "",
        "| metric | serial | parallel |",
        "|---|---|---|",
        f"| wall clock | {serial_s:.2f} s | {parallel_s:.2f} s |",
        f"| speedup | 1.00x "
        f"| {fleet.get('speedup_parallel_vs_serial', 0.0):.2f}x |",
        "",
        "| controller IPC | bytes/epoch |",
        "|---|---|",
        f"| fused batches | {fleet.get('ipc_bytes_per_epoch_fused', 0):,.0f} |",
        f"| peer-pipe payloads (total) "
        f"| {fleet.get('ipc_peer_bytes_fused', 0):,} |",
    ]
    return "\n".join(lines)


def format_fleet_summary(result) -> str:
    """Multi-line plain-text summary of a fleet run, for the CLI."""
    lines = [
        f"fleet: {result.hosts} hosts x {result.epochs} epochs, "
        f"system={result.system}, placement={result.placement}, "
        f"seed={result.seed}",
        f"  fleet FMFI           {result.fleet_fmfi:.4f}",
        f"  well-aligned rate    {result.fleet_well_aligned_rate:.3f}",
        f"  mean throughput      {result.mean_throughput:.3e} ops/cycle",
        f"  p99 latency          {result.p99_latency:.1f} cycles",
        f"  migrations           {result.migration_count} "
        f"({result.migration_pages} pages, "
        f"{result.migration_cycles:.3e} cycles)",
        f"  placement failures   {result.placement_failures}",
        "  per-host (host: vms util fmfi aligned):",
    ]
    for row in fleet_summary_rows(result):
        aligned = row["well_aligned_rate"]
        aligned_text = f"{aligned:.3f}" if aligned is not None else "-"
        lines.append(
            f"    host{row['host']}: {row['vms']:>2} "
            f"{row['utilization']:.2f} {row['fmfi']:.4f} {aligned_text}"
        )
    return "\n".join(lines)


def series_to_csv(result: RunResult) -> str:
    """Per-epoch time series of one run, as CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        [
            "epoch", "throughput", "mean_latency", "p99_latency",
            "tlb_misses", "well_aligned_rate", "guest_huge_pages",
            "host_huge_pages", "fmfi_guest", "fmfi_host", "bloat_pages",
        ]
    )
    for record in result.epochs:
        perf = record.performance
        writer.writerow(
            [
                record.epoch,
                f"{perf.throughput:.6e}",
                f"{perf.mean_latency:.2f}",
                f"{perf.p99_latency:.2f}",
                f"{perf.tlb_misses:.1f}",
                f"{record.alignment.well_aligned_rate:.4f}",
                record.guest_huge_pages,
                record.host_huge_pages,
                f"{record.fmfi_guest:.3f}",
                f"{record.fmfi_host:.3f}",
                record.bloat_pages,
            ]
        )
    return buffer.getvalue()


def telemetry_series_to_csv(rows: list[Mapping[str, object]]) -> str:
    """Render :func:`repro.obs.export.timeseries_rows` output as CSV.

    Rows may carry different summary columns (controller rows have no
    FMFI, ``sim.epoch`` rows carry workload fields), so the header is
    the union: the fixed count columns first, extras sorted after.
    """
    fixed = [
        "epoch", "host", "bookings", "expirations",
        "guest_promotions", "host_promotions", "migrations",
    ]
    extras = sorted({key for row in rows for key in row} - set(fixed))
    columns = fixed + extras
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def format_top_spans(spans: Mapping[str, Mapping[str, float]], n: int = 5) -> str:
    """Markdown table of the *n* spans with the largest self time.

    *spans* is :meth:`repro.obs.Telemetry.span_stats` output (duck-typed
    ``name -> {"count", "total_s", "self_s"}``).
    """
    if not spans:
        return "no spans recorded"
    ranked = sorted(
        spans.items(), key=lambda item: (-item[1]["self_s"], item[0])
    )[:n]
    lines = [
        "| span | count | total (ms) | self (ms) |",
        "|---|---|---|---|",
    ]
    for name, stat in ranked:
        lines.append(
            f"| {name} | {int(stat['count'])} "
            f"| {stat['total_s'] * 1e3:.2f} | {stat['self_s'] * 1e3:.2f} |"
        )
    return "\n".join(lines)


def format_critical_path(report, n: int = 4) -> str:
    """Render a :class:`repro.obs.analyze.CriticalPathReport` as text.

    Top dominant-child walks first (with the share of root time each
    accounts for), then the per-span "where did the time go" self-time
    table over the matched trees.
    """
    if not report.epochs:
        return "no root spans matched"
    lines = [
        f"critical paths over {report.epochs} "
        f"{'/'.join(report.roots)} spans "
        f"({report.total_s * 1e3:.2f} ms total):"
    ]
    for path in report.paths[:n]:
        lines.append(
            f"  {path.share * 100:5.1f}%  {' > '.join(path.path)}  "
            f"({path.total_s * 1e3:.2f} ms, {path.count} epochs)"
        )
    ranked = sorted(
        report.attribution.items(),
        key=lambda item: (-item[1]["self_s"], item[0]),
    )[:n + 2]
    lines.append("where the time went (self time):")
    for name, stat in ranked:
        share = stat["self_s"] / report.total_s if report.total_s else 0.0
        lines.append(
            f"  {share * 100:5.1f}%  {name}  "
            f"({stat['self_s'] * 1e3:.2f} ms over {int(stat['count'])} spans)"
        )
    return "\n".join(lines)


def format_histograms(summary: Mapping[str, Mapping[str, float]],
                      n: int = 8) -> str:
    """Markdown table of histogram quantiles.

    *summary* is :meth:`repro.obs.Telemetry.histogram_summary` output.
    """
    if not summary:
        return "no histograms recorded"
    lines = [
        "| histogram | count | mean | p50 | p95 | p99 | max |",
        "|---|---|---|---|---|---|---|",
    ]
    for name in sorted(summary)[:n]:
        stat = summary[name]
        lines.append(
            f"| {name} | {int(stat['count'])} | {stat['mean']:.4g} "
            f"| {stat['p50']:.4g} | {stat['p95']:.4g} "
            f"| {stat['p99']:.4g} | {stat['max']:.4g} |"
        )
    return "\n".join(lines)


def format_health_summary(events) -> str:
    """One line per ``health.*`` kind found in the event stream."""
    from repro.obs.analyze import host_range_text
    from repro.obs.health import summarize_health

    summary = summarize_health(events)
    if not summary:
        return "health: no watchdog findings"
    lines = ["health findings:"]
    for kind in sorted(summary):
        entry = summary[kind]
        lines.append(
            f"  {kind}: {entry['count']} on {host_range_text(entry['hosts'])}"
        )
    return "\n".join(lines)


def format_run_diff(diff) -> str:
    """Render a :class:`repro.obs.analyze.RunDiff` for the CLI."""
    lines = [f"diff: {diff.a_label} vs {diff.b_label}"]
    if diff.deterministic_match:
        lines.append(
            "deterministic state: IDENTICAL "
            "(event streams and counters match)"
        )
    else:
        lines.append("deterministic state: DIVERGED")
        for name, value_a, value_b in diff.counter_deltas[:10]:
            lines.append(f"  counter {name}: {value_a:g} -> {value_b:g}")
        if len(diff.counter_deltas) > 10:
            lines.append(
                f"  ... {len(diff.counter_deltas) - 10} more counters"
            )
        for host in list(diff.divergence)[:10]:
            entry = diff.divergence[host]
            where = "controller" if host is None else f"host {host}"
            if entry.first_seq is not None:
                lines.append(
                    f"  events on {where}: first mismatch at seq "
                    f"{entry.first_seq} ({entry.first_kind}); "
                    f"{entry.len_a} vs {entry.len_b} events"
                )
            else:
                lines.append(
                    f"  events on {where}: "
                    f"{entry.len_a} vs {entry.len_b} events"
                )
    if diff.attributions:
        lines.append("attributed deltas:")
        for text in diff.attributions:
            lines.append(f"  {text}")
    elif not diff.span_deltas:
        lines.append(
            f"timing: span self-times within +/-{diff.threshold * 100:.0f}%"
        )
    return "\n".join(lines)


def format_bench_compare(comparison, threshold: float) -> str:
    """Render a :class:`repro.obs.bench.BenchComparison` for the CLI."""
    lines = [
        f"bench compare: {comparison.checked} gated metrics vs median of "
        f"{comparison.baseline_runs} recorded runs "
        f"(threshold {threshold * 100:.0f}%)"
    ]
    if comparison.ok:
        lines.append("no regressions beyond threshold")
    for drift in comparison.regressions:
        lines.append(
            f"  REGRESSION {drift.name}: {drift.baseline:.4g} -> "
            f"{drift.value:.4g} ({drift.drift:+.1%})"
        )
    for drift in comparison.improvements[:5]:
        lines.append(
            f"  improved {drift.name}: {drift.baseline:.4g} -> "
            f"{drift.value:.4g} ({drift.drift:+.1%})"
        )
    return "\n".join(lines)
