"""Benchmark: Figure 9 — clean-slate mean latencies."""

from conftest import BENCH_LATENCY, average

from repro.experiments.clean_slate import fig09_mean_latency


def test_fig09_mean_latency(clean_fragmented):
    table = fig09_mean_latency(clean_fragmented)
    assert set(table) == set(BENCH_LATENCY)
    # Gemini cuts mean latency the most (paper: 57% reduction on average
    # vs Host-B-VM-B; baselines around 24%).
    gemini = average(table, "Gemini")
    assert gemini < 0.85
    for system in table[next(iter(table))]:
        assert gemini <= average(table, system) + 1e-9, system
