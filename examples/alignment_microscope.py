#!/usr/bin/env python3
"""Scenario: a microscope on the misalignment mechanism itself.

Reproduces Figure 2 interactively: a random-access microbenchmark sweeps
its data-set size under the four static page-size configurations, printing
normalised performance and TLB miss rates, then drills into one large
configuration to show the translation-unit accounting (how many TLB
entries each configuration needs for the same data).

Usage::

    python examples/alignment_microscope.py
"""

import os

from repro.experiments.fig02_microbench import FIG2_SYSTEMS, format_fig02, run_fig02
from repro.mem.layout import PAGES_PER_HUGE
from repro.os.mm import PROCESS
from repro.sim import Simulation, SimulationConfig
from repro.workloads.microbench import RandomAccessMicrobench

#: CI smoke mode (REPRO_SMOKE=1): shrink the run so every example is fast.
SMOKE = bool(os.environ.get("REPRO_SMOKE"))


def main() -> None:
    sizes = [1.0, 16.0] if SMOKE else [1.0, 4.0, 16.0, 64.0]
    points = run_fig02(sizes=sizes, epochs=3 if SMOKE else 5)
    print(format_fig02(points))
    print()

    # Drill-down: translation units needed for a 64 MiB data set.
    print("Why (64 MiB data set):")
    config = SimulationConfig(epochs=3, noise_rate=0.0)
    for system in FIG2_SYSTEMS:
        sim = Simulation(RandomAccessMicrobench(64.0), system=system, config=config)
        sim.run_single()
        vm = sim.tenants[0].vm
        guest = vm.guest.table(PROCESS)
        ept = sim.platform.ept(vm.id)
        aligned = sum(1 for _, gp in guest.huge_mappings() if ept.is_huge(gp))
        # Entries a TLB would need: one per aligned huge region, one per
        # base page otherwise.
        entries = aligned + (guest.mapped_pages - aligned * PAGES_PER_HUGE)
        print(
            f"  {system:<12s} guest huge={guest.huge_count:4d} "
            f"host huge={ept.huge_count:4d} aligned={aligned:4d} "
            f"-> TLB entries needed ~{entries}"
        )
    print()
    print("One well-aligned huge page covers 512 base translations with a")
    print("single TLB entry; a mis-aligned one still needs all 512.")


if __name__ == "__main__":
    main()
