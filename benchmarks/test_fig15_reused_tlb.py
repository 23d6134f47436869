"""Benchmark: Figure 15 — reused-VM TLB misses, normalised to Gemini."""

from conftest import average

from repro.experiments.reused_vm import fig15_tlb_misses


def test_fig15_reused_tlb(reused_results):
    table = fig15_tlb_misses(reused_results)
    # Other systems suffer far more misses than Gemini in the reused VM
    # (the paper reports 4.6x on average: splintered stale huge pages).
    for system in ("Host-B-VM-B", "THP", "Ingens", "HawkEye"):
        assert average(table, system) > 1.5, system
