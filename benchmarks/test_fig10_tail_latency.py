"""Benchmark: Figure 10 — clean-slate 99th-percentile latencies."""

from conftest import average

from repro.experiments.clean_slate import fig10_tail_latency


def test_fig10_tail_latency(clean_fragmented):
    table = fig10_tail_latency(clean_fragmented)
    # Gemini reduces tail latency much more than the other systems
    # (paper: 60% vs 14% on average).
    gemini = average(table, "Gemini")
    assert gemini < 0.9
    others = [
        average(table, s)
        for s in ("THP", "Ingens", "HawkEye", "CA-paging", "Translation-Ranger")
    ]
    assert gemini < min(others)
    # Ranger's continuous migrations give it the worst tail of the
    # huge-page systems.
    ranger = average(table, "Translation-Ranger")
    assert ranger >= max(
        average(table, s) for s in ("THP", "Ingens", "HawkEye")
    ) - 0.05
