"""Benchmark: Figures 12-14 — throughput and latencies in a reused VM."""

from conftest import average

from repro.experiments.reused_vm import (
    fig12_throughput,
    fig13_mean_latency,
    fig14_tail_latency,
)


def test_fig12_throughput(reused_results):
    table = fig12_throughput(reused_results)
    gemini = average(table, "Gemini")
    assert gemini > 1.2
    for system in table[next(iter(table))]:
        assert gemini >= average(table, system), system
    # Translation-Ranger remains the worst huge-page system.
    ranger = average(table, "Translation-Ranger")
    assert ranger <= min(
        average(table, s) for s in ("Ingens", "HawkEye", "Gemini")
    )


def test_fig13_fig14_latencies(reused_results):
    mean_table = fig13_mean_latency(reused_results)
    tail_table = fig14_tail_latency(reused_results)
    # Gemini reduces both mean and tail latency vs the baseline and at
    # least matches every other system on average.
    assert average(mean_table, "Gemini") < 0.9
    assert average(tail_table, "Gemini") < 0.95
    for system in mean_table[next(iter(mean_table))]:
        assert average(mean_table, "Gemini") <= average(mean_table, system) + 1e-9
