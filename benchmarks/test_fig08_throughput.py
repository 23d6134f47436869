"""Benchmark: Figure 8 — clean-slate throughput, fragmented and
unfragmented memory."""

from conftest import average

from repro.experiments.clean_slate import fig08_throughput


def test_fig08_fragmented(clean_fragmented):
    table = fig08_throughput(clean_fragmented)
    gemini = average(table, "Gemini")
    # Gemini delivers the best average throughput, well above baseline...
    assert gemini > 1.2
    for system in table[next(iter(table))]:
        if system not in ("Gemini",):
            assert gemini >= average(table, system), system
    # ...and Translation-Ranger is the weakest huge-page system (the paper
    # measures it below the base-page baseline on average).
    ranger = average(table, "Translation-Ranger")
    for system in ("THP", "Ingens", "HawkEye", "Gemini"):
        assert ranger <= average(table, system) + 0.05, system


def test_fig08_unfragmented(clean_unfragmented):
    table = fig08_throughput(clean_unfragmented)
    gemini = average(table, "Gemini")
    assert gemini > 1.3
    for system in table[next(iter(table))]:
        assert gemini >= average(table, system), system
