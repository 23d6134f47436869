"""Benchmark: ballooning interplay (Section 8 future-work extension).

Runs a workload in a VM whose balloon periodically inflates under host
memory pressure, comparing naive victim selection with Gemini's
alignment-aware rule (only mis-aligned / idle huge pages may be demoted).
"""

from conftest import write_result

from repro.experiments.interplay import format_balloon, run_balloon_interplay


def test_ablation_balloon():
    aware, naive = run_balloon_interplay("Masstree")
    write_result("ablation_balloon", format_balloon([aware, naive]))
    # The alignment-aware rule demotes no more well-aligned huge pages
    # than the naive policy and performs at least as well.
    assert aware.aligned_demotions <= naive.aligned_demotions
    assert aware.result.throughput >= 0.95 * naive.result.throughput
