"""Simulation configuration.

Scaling note (DESIGN.md section 3): the paper's workloads use tens of GiB
against a 1536-entry shared L2 TLB; this simulator runs tens-of-MiB
footprints, so the TLB capacity is scaled down by roughly the same factor
(default 384 entries) to keep the working-set : TLB-reach ratio in the
paper's regime.  The base:huge page-size ratio (512:1) is *not* scaled —
the coalescing mechanics depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runtime import GeminiConfig
from repro.pressure.config import PressureConfig
from repro.tlb.model import TLBConfig

__all__ = ["SimulationConfig"]

#: Default scaled-down TLB (see module docstring).
DEFAULT_TLB = TLBConfig(entries=384, utilization=0.85)


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of one simulation run."""

    #: Host physical memory (MiB) and NUMA nodes.
    host_mib: int = 768
    nodes: int = 1
    #: Guest-physical memory per VM (MiB).
    guest_mib: int = 256
    #: Number of epochs to run.
    epochs: int = 20
    #: TLB capacity model.
    tlb: TLBConfig = field(default_factory=lambda: DEFAULT_TLB)
    #: Target FMFI at each layer before the workload starts (Section 6.1's
    #: fragmenter program); 0.0 disables fragmentation.
    fragment_guest: float = 0.0
    fragment_host: float = 0.0
    #: OS background noise: small kernel/slab-style allocations interleaved
    #: with the workload's faults at both layers (one noise allocation per
    #: ``1/noise_rate`` faults), which shift physical placement off huge
    #: alignment the way real mixed allocation streams do.
    noise_rate: float = 0.03
    noise_free_fraction: float = 0.5
    #: Random seed (fragmenter, workload churn, noise).
    seed: int = 42
    #: Gemini runtime tunables, including the Figure 16 ablation switches
    #: (only used when the system is Gemini).
    gemini: GeminiConfig = field(default_factory=GeminiConfig)
    #: Memory-pressure subsystem (working-set estimation, ballooning,
    #: KSM, hypervisor swap); disabled by default.
    pressure: PressureConfig = field(default_factory=PressureConfig)

    def __post_init__(self) -> None:
        if self.host_mib <= 0 or self.guest_mib <= 0:
            raise ValueError("memory sizes must be positive")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        for value in (self.fragment_guest, self.fragment_host):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"fragmentation target out of [0, 1): {value}")
