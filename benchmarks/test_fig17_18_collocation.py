"""Benchmark: Figures 17-18 — applicability and overhead with collocated
VMs (TLB-sensitive paired with non-TLB-sensitive)."""

from conftest import write_result

from repro.experiments.collocation import (
    fig17_throughput,
    format_collocation,
    gemini_overhead,
)


def test_fig17_18_collocation(collocation_results):
    throughput = fig17_throughput(collocation_results)
    write_result("fig17_18_collocation", format_collocation(collocation_results))

    # Gemini performs best on the TLB-sensitive halves of each pair.
    for key, row in throughput.items():
        workload = key.split("/")[-1]
        if workload in ("Shore", "SP.D"):
            continue
        gemini = row["Gemini"]
        for system, value in row.items():
            assert gemini >= value - 0.05, f"{key}/{system}"

    # On non-TLB-sensitive workloads Gemini's overhead is negligible
    # (paper: performance change within a few percent).
    for key, delta in gemini_overhead(collocation_results).items():
        assert abs(delta) < 0.10, f"{key}: {delta:+.1%}"
