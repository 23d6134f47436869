"""Model validation: analytic TLB capacity model vs. trace-driven TLB.

The epoch-level results rest on the analytic capacity model of
:mod:`repro.tlb.model`.  This experiment cross-checks it against the
trace-driven set-associative TLB on *actual simulator page-table states*:
a workload runs normally, then for one epoch its access phases are both

1. classified into translation segments and evaluated analytically, and
2. expanded into a concrete random access trace replayed through
   :class:`repro.tlb.cache.SetAssociativeTLB`, looking up the composed
   guest+host mapping of every access the way the hardware would.

The two miss rates should agree within a few points across systems (the
alignment structure — 1 entry per well-aligned huge region vs. 512
splintered entries — is what both must capture).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.mem.layout import PAGES_PER_HUGE
from repro.os.mm import PROCESS
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulation, build_segments
from repro.tlb.cache import SetAssociativeTLB
from repro.workloads.suite import make_workload

__all__ = ["ValidationPoint", "run_validation", "format_validation"]


@dataclass
class ValidationPoint:
    """Analytic vs. traced miss rate for one (workload, system) pair."""

    workload: str
    system: str
    analytic_miss_rate: float
    traced_miss_rate: float

    @property
    def error(self) -> float:
        return abs(self.analytic_miss_rate - self.traced_miss_rate)


def _trace_epoch(sim: Simulation, vm, workload, accesses: int, seed: int) -> float:
    """Replay one epoch's accesses through the trace-driven TLB."""
    rng = random.Random(seed)
    tlb = SetAssociativeTLB(
        entries=sim.config.tlb.entries,
        ways=max(1, sim.config.tlb.entries // 128),
    )
    guest_table = vm.guest.table(PROCESS)
    ept = sim.platform.ept(vm.id)

    phases = workload.access_phases(sim.config.epochs - 1)
    choices: list[tuple[int, int, float]] = []  # (vpn_lo, vpn_hi, weight)
    for phase in phases:
        if phase.vma not in vm.address_space:
            continue
        vma = vm.address_space.vma(phase.vma)
        hot = max(1, int(vma.npages * phase.hot_fraction))
        choices.append((vma.start, vma.start + hot, phase.weight))
    if not choices:
        return 0.0
    weights = [c[2] for c in choices]

    warmup = accesses // 4
    for index in range(accesses + warmup):
        lo, hi, _ = rng.choices(choices, weights=weights)[0]
        vpn = rng.randrange(lo, hi)
        gpn = guest_table.translate(vpn)
        if gpn is None:
            continue
        # The hardware can cache one entry per well-aligned huge page;
        # everything else splinters to 4 KiB entries.
        aligned = guest_table.is_huge(vpn // PAGES_PER_HUGE) and ept.is_huge(
            gpn // PAGES_PER_HUGE
        )
        if index == warmup:
            tlb.reset_stats()
        tlb.access(vpn, huge=aligned)
    return tlb.stats.miss_rate


def run_validation(
    workloads: list[str] | None = None,
    systems: list[str] | None = None,
    epochs: int = 8,
    trace_accesses: int = 60_000,
    seed: int = 42,
) -> list[ValidationPoint]:
    """Cross-validate the analytic model on final simulator states."""
    workloads = workloads or ["Masstree", "SVM"]
    systems = systems or ["Host-B-VM-B", "THP", "Gemini"]
    config = SimulationConfig(epochs=epochs, seed=seed)
    points = []
    for workload_name in workloads:
        for system in systems:
            workload = make_workload(workload_name)
            sim = Simulation(workload, system=system, config=config)
            sim.run_single()
            vm = sim.tenants[0].vm
            # Evaluate both models against the *final* page-table state
            # (the run's last recorded epoch predates the final daemon
            # pass, which would skew the comparison).
            segments = build_segments(
                sim.platform, vm, workload, config.epochs - 1
            )
            stats = sim.tlb_model.evaluate(segments)
            analytic = stats.miss_rate
            traced = _trace_epoch(sim, vm, workload, trace_accesses, seed)
            points.append(
                ValidationPoint(
                    workload=workload_name,
                    system=system,
                    analytic_miss_rate=analytic,
                    traced_miss_rate=traced,
                )
            )
    return points


def format_validation(points: list[ValidationPoint]) -> str:
    lines = [
        "TLB model validation: analytic capacity model vs trace-driven TLB",
        f"{'workload':<12s} {'system':<14s} {'analytic':>9s} {'traced':>8s} {'error':>7s}",
    ]
    for point in points:
        lines.append(
            f"{point.workload:<12s} {point.system:<14s} "
            f"{point.analytic_miss_rate:>8.3f} {point.traced_miss_rate:>8.3f} "
            f"{point.error:>7.3f}"
        )
    worst = max(point.error for point in points) if points else 0.0
    lines.append(f"max |error| = {worst:.3f}")
    return "\n".join(lines)
