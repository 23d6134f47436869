"""Benchmark: KSM interplay (Section 8 future-work extension).

Host-level same-page merging against a Gemini-managed VM: without
break-huge the merger finds almost nothing (Gemini's pages are huge);
breaking everything reclaims memory but destroys alignment and throughput;
the spare-aligned rule is the compromise the paper sketches.
"""

from conftest import write_result

from repro.experiments.interplay import format_ksm, run_ksm_interplay


def test_ablation_ksm():
    outcomes = run_ksm_interplay("Specjbb", epochs=10)
    write_result("ablation_ksm", format_ksm(outcomes))
    by_variant = {o.variant: o for o in outcomes}
    gentle = by_variant["no break-huge"]
    spare = by_variant["break, spare aligned"]
    brutal = by_variant["break everything"]

    # Breaking huge pages unlocks merging...
    assert brutal.merged_pages >= spare.merged_pages >= gentle.merged_pages
    # ...at the cost of alignment and throughput.
    assert brutal.result.well_aligned_rate < gentle.result.well_aligned_rate
    assert brutal.result.throughput < gentle.result.throughput
    # The spare-aligned rule keeps Gemini's alignment near-intact.
    assert (
        spare.result.well_aligned_rate
        >= gentle.result.well_aligned_rate - 0.1
    )
