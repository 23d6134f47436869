"""Benchmark: environment sweeps — where the paper's effect lives.

Fragmentation shrinks every system's gains while Gemini's alignment lead
persists; an ample TLB removes the translation bottleneck entirely (the
crossover where huge pages stop paying off).
"""

from conftest import write_result

from repro.experiments.sweeps import (
    format_sweep,
    run_fragmentation_sweep,
    run_tlb_sweep,
)


def test_sweeps():
    frag = run_fragmentation_sweep("Masstree", levels=[0.0, 0.6, 0.9], epochs=10)
    tlb = run_tlb_sweep("Masstree", entries=[96, 384, 6144], epochs=10)
    write_result(
        "sweeps",
        format_sweep(frag, "Fragmentation sweep (Masstree)")
        + "\n\n"
        + format_sweep(tlb, "TLB capacity sweep (Masstree)"),
    )

    frag_by = {(p.parameter, p.system): p for p in frag}
    # Gemini leads at every fragmentation level...
    for level in (0.0, 0.6, 0.9):
        assert (
            frag_by[(level, "Gemini")].throughput
            >= frag_by[(level, "Ingens")].throughput
        )
        assert (
            frag_by[(level, "Gemini")].well_aligned_rate
            >= frag_by[(level, "Ingens")].well_aligned_rate - 0.05
        )
    # ...but severe fragmentation compresses everyone's gains.
    base = frag_by[(0.0, "Host-B-VM-B")].throughput
    severe_base = frag_by[(0.9, "Host-B-VM-B")].throughput
    assert (
        frag_by[(0.9, "Gemini")].throughput / severe_base
        < frag_by[(0.0, "Gemini")].throughput / base
    )

    tlb_by = {(p.parameter, p.system): p for p in tlb}
    small = tlb_by[(96.0, "Gemini")].throughput / tlb_by[(96.0, "Host-B-VM-B")].throughput
    big = tlb_by[(6144.0, "Gemini")].throughput / tlb_by[(6144.0, "Host-B-VM-B")].throughput
    assert big < small  # crossover: huge pages matter less with a big TLB
