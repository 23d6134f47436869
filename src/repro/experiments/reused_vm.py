"""Reused-VM experiments: Figures 12-15 and Table 4 (Section 6.3).

Each workload runs after another workload — SVM, with a large working set —
has executed to completion in the *same* VM.  Because VMs do not return
freed memory to the host, the EPT (and the host frames behind it) still
hold the mappings SVM created, including any huge pages.  Gemini's huge
bucket keeps freed well-aligned huge pages intact for reuse, where baseline
systems let small allocations splinter them.
"""

from __future__ import annotations

from repro.experiments.clean_slate import (
    ALIGNMENT_SYSTEMS,
    fig08_throughput,
    fig09_mean_latency,
    fig10_tail_latency,
    fig11_tlb_misses,
)
from repro.experiments.common import (
    PAPER_SYSTEMS,
    UNFRAGMENTED,
    format_table,
    normalize,
    run_matrix,
)
from repro.sim.config import SimulationConfig
from repro.sim.results import RunResult
from repro.workloads.suite import TLB_SENSITIVE_SUITE, make_workload

__all__ = [
    "run_reused_vm",
    "fig12_throughput",
    "fig13_mean_latency",
    "fig14_tail_latency",
    "fig15_tlb_misses",
    "table4_alignment",
    "format_reused_vm",
]


def _svm_primer():
    """The ~30 GB-working-set primer of Section 6.3 (scaled)."""
    return make_workload("SVM")


def run_reused_vm(
    workloads: list[str] | None = None,
    systems: list[str] | None = None,
    epochs: int | None = None,
    config: SimulationConfig = UNFRAGMENTED,
) -> dict[str, dict[str, RunResult]]:
    """Run the reused-VM matrix: each workload primed by a full SVM run."""
    return run_matrix(
        workloads or TLB_SENSITIVE_SUITE,
        systems=systems or PAPER_SYSTEMS,
        config=config,
        primer_factory=_svm_primer,
        epochs=epochs,
    )


# The reused-VM figures are the same statistics as the clean-slate ones.
fig12_throughput = fig08_throughput
fig13_mean_latency = fig09_mean_latency
fig14_tail_latency = fig10_tail_latency
fig15_tlb_misses = fig11_tlb_misses


def table4_alignment(results: dict[str, dict[str, RunResult]]) -> dict[str, dict[str, float]]:
    """Table 4: rates of well-aligned huge pages in the reused VM."""
    return {
        workload: {
            system: row[system].well_aligned_rate
            for system in ALIGNMENT_SYSTEMS
            if system in row
        }
        for workload, row in results.items()
    }


def bucket_reuse_rates(results: dict[str, dict[str, RunResult]]) -> dict[str, float]:
    """Gemini's huge-bucket reuse rate per workload (Section 6.3 reports
    88% on average)."""
    rates = {}
    for workload, row in results.items():
        gemini = row.get("Gemini")
        if gemini is not None and gemini.gemini_stats:
            rates[workload] = gemini.gemini_stats.get("bucket_reuse_rate", 0.0)
    return rates


def format_reused_vm(results: dict[str, dict[str, RunResult]]) -> str:
    parts = [
        format_table(fig12_throughput(results), "Figure 12: reused-VM throughput (norm. to Host-B-VM-B)"),
        "",
        format_table(fig13_mean_latency(results), "Figure 13: reused-VM mean latency (norm. to Host-B-VM-B)"),
        "",
        format_table(fig14_tail_latency(results), "Figure 14: reused-VM p99 latency (norm. to Host-B-VM-B)"),
        "",
        format_table(fig15_tlb_misses(results), "Figure 15: reused-VM TLB misses (norm. to Gemini)", fmt="{:.1f}"),
        "",
        format_table(table4_alignment(results), "Table 4: reused-VM well-aligned huge page rates", fmt="{:.0%}"),
    ]
    reuse = bucket_reuse_rates(results)
    if reuse:
        parts += ["", "Gemini huge-bucket reuse rates (Section 6.3):"]
        parts += [f"  {workload}: {rate:.0%}" for workload, rate in reuse.items()]
        parts.append(f"  average: {sum(reuse.values()) / len(reuse):.0%}")
    return "\n".join(parts)
