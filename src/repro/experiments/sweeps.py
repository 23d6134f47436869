"""Parameter sweeps: sensitivity of the paper's results to the environment.

Two sweeps characterise *where* the paper's effect lives:

* :func:`run_fragmentation_sweep` — FMFI from pristine to severe.  Huge
  pages get scarcer for every system; Gemini's relative lead over the best
  uncoordinated baseline persists while all absolute gains shrink.
* :func:`run_tlb_sweep` — TLB capacity from starved to ample.  With a huge
  TLB even base pages fit, translation stops mattering, and all systems
  converge to the baseline (the crossover where huge pages stop paying).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulation
from repro.tlb.model import TLBConfig
from repro.workloads.suite import make_workload

__all__ = [
    "SweepPoint",
    "run_fragmentation_sweep",
    "run_tlb_sweep",
    "format_sweep",
]

_BASE = SimulationConfig(epochs=12)


@dataclass
class SweepPoint:
    """One (parameter value, system) measurement, normalised in-format."""

    parameter: float
    system: str
    throughput: float
    well_aligned_rate: float


def run_fragmentation_sweep(
    workload_name: str = "Masstree",
    levels: list[float] | None = None,
    systems: list[str] | None = None,
    config: SimulationConfig = _BASE,
    epochs: int | None = None,
) -> list[SweepPoint]:
    """Sweep the fragmenter's FMFI target at both layers."""
    levels = levels if levels is not None else [0.0, 0.3, 0.6, 0.9]
    systems = systems or ["Host-B-VM-B", "Ingens", "Gemini"]
    if epochs is not None:
        config = replace(config, epochs=epochs)
    points = []
    for level in levels:
        level_config = replace(config, fragment_guest=level, fragment_host=level)
        for system in systems:
            result = Simulation(
                make_workload(workload_name), system=system, config=level_config
            ).run_single()
            points.append(
                SweepPoint(
                    parameter=level,
                    system=system,
                    throughput=result.throughput,
                    well_aligned_rate=result.well_aligned_rate,
                )
            )
    return points


def run_tlb_sweep(
    workload_name: str = "Masstree",
    entries: list[int] | None = None,
    systems: list[str] | None = None,
    config: SimulationConfig = _BASE,
    epochs: int | None = None,
) -> list[SweepPoint]:
    """Sweep the modelled TLB capacity."""
    entries = entries if entries is not None else [96, 384, 1536, 6144, 24576]
    systems = systems or ["Host-B-VM-B", "Ingens", "Gemini"]
    if epochs is not None:
        config = replace(config, epochs=epochs)
    points = []
    for capacity in entries:
        tlb_config = replace(
            config, tlb=TLBConfig(entries=capacity, utilization=0.85)
        )
        for system in systems:
            result = Simulation(
                make_workload(workload_name), system=system, config=tlb_config
            ).run_single()
            points.append(
                SweepPoint(
                    parameter=float(capacity),
                    system=system,
                    throughput=result.throughput,
                    well_aligned_rate=result.well_aligned_rate,
                )
            )
    return points


def format_sweep(
    points: list[SweepPoint], title: str, baseline: str = "Host-B-VM-B"
) -> str:
    """Render a sweep with throughput normalised to *baseline* per level."""
    systems = list(dict.fromkeys(point.system for point in points))
    levels = sorted({point.parameter for point in points})
    by_key = {(p.parameter, p.system): p for p in points}
    lines = [title]
    lines.append(
        f"{'param':>8s}  "
        + "  ".join(f"{s:>12s}" for s in systems)
        + "   (throughput vs baseline | aligned rate)"
    )
    for level in levels:
        base = by_key[(level, baseline)].throughput
        cells = []
        for system in systems:
            point = by_key[(level, system)]
            ratio = point.throughput / base if base else 0.0
            cells.append(f"{ratio:5.2f}/{point.well_aligned_rate:4.0%}")
        lines.append(f"{level:>8g}  " + "  ".join(f"{c:>12s}" for c in cells))
    return "\n".join(lines)
