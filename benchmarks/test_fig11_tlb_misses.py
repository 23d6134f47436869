"""Benchmark: Figure 11 — clean-slate TLB misses, normalised to Gemini."""

from conftest import average

from repro.experiments.clean_slate import fig11_tlb_misses


def test_fig11_tlb_misses(clean_fragmented):
    table = fig11_tlb_misses(clean_fragmented)
    # Every other system suffers substantially more TLB misses than Gemini
    # (the paper reports 2.39x on average across the suite).
    for system in ("Host-B-VM-B", "Misalignment", "THP", "Ingens", "HawkEye"):
        assert average(table, system) > 1.5, system
    # The base-page systems miss the most.
    assert average(table, "Host-B-VM-B") >= average(table, "Ingens")
