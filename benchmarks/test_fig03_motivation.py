"""Benchmark: Figure 3 / Table 1 — the huge page misalignment problem
(motivation study: 4 workloads x 8 systems, fragmented memory)."""

from conftest import average, write_result

from repro.experiments.fig03_motivation import format_fig03, table1_alignment
from repro.experiments.common import normalize


def test_fig03_and_table1(motivation_results):
    results = motivation_results
    write_result("fig03_table1_motivation", format_fig03(results))

    throughput = normalize(results, "throughput")
    alignment = table1_alignment(results)

    # Gemini achieves the highest well-aligned rate (Table 1: >= 50%
    # everywhere, above every baseline on average; a small per-workload
    # tolerance absorbs simulator noise).
    for workload, row in alignment.items():
        gemini = row["Gemini"]
        assert gemini >= 0.5, f"{workload}: Gemini aligned only {gemini:.0%}"
        for system, value in row.items():
            if system != "Gemini":
                assert gemini >= value - 0.05, f"{workload}: {system} out-aligned Gemini"
    gemini_avg = average(alignment, "Gemini")
    for system in alignment[next(iter(alignment))]:
        if system != "Gemini":
            assert gemini_avg > average(alignment, system), system

    # Performance: Gemini beats Ingens and HawkEye on average (Section 2.3
    # reports >20% higher throughput).
    gemini_avg = average(throughput, "Gemini")
    assert gemini_avg > average(throughput, "Ingens")
    assert gemini_avg > average(throughput, "HawkEye")
    # Misaligned huge pages improve performance only incrementally.
    assert average(throughput, "Misalignment") < 1.3
