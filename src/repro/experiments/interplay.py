"""Future-work interplay studies (Section 8): ballooning and KSM.

The paper's conclusion flags deduplication, ballooning and swapping as
mechanisms that may demote Gemini's huge pages under memory pressure, and
describes the current rule — only mis-aligned and infrequently used huge
pages may be demoted.  These experiments quantify the interplay:

* :func:`run_balloon_interplay` — periodic balloon inflation with naive
  vs. alignment-aware victim selection;
* :func:`run_ksm_interplay` — host-level same-page merging with
  ``break_huge`` off / on / on-but-sparing-aligned-pages, measuring the
  memory saved against the well-aligned huge pages destroyed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hypervisor.balloon import BalloonDriver
from repro.hypervisor.ksm import KsmDaemon
from repro.mem.layout import PAGES_PER_HUGE
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulation
from repro.sim.results import RunResult
from repro.workloads.suite import make_workload

__all__ = [
    "BalloonOutcome",
    "KsmOutcome",
    "run_balloon_interplay",
    "run_ksm_interplay",
    "format_balloon",
    "format_ksm",
]

_DEFAULT = SimulationConfig(epochs=12, fragment_guest=0.3, fragment_host=0.3)


@dataclass
class BalloonOutcome:
    variant: str
    result: RunResult
    aligned_demotions: int
    reclaimed_pages: int


def _run_with_balloon(
    workload_name: str,
    alignment_aware: bool,
    config: SimulationConfig,
    inflate_regions: int,
) -> BalloonOutcome:
    sim = Simulation(make_workload(workload_name), system="Gemini", config=config)
    balloon = BalloonDriver(
        sim.platform, sim.tenants[0].vm, alignment_aware=alignment_aware
    )
    reclaimed = 0
    for epoch in range(config.epochs):
        sim.step_epoch(epoch)
        if epoch % 3 == 1:
            reclaimed += balloon.inflate(inflate_regions * PAGES_PER_HUGE)
        elif epoch % 3 == 2:
            balloon.deflate()
    return BalloonOutcome(
        variant="alignment-aware" if alignment_aware else "naive",
        result=sim.results[0],
        aligned_demotions=balloon.demoted_aligned_huge_pages,
        reclaimed_pages=reclaimed,
    )


def run_balloon_interplay(
    workload_name: str = "Masstree",
    config: SimulationConfig = _DEFAULT,
    inflate_regions: int = 2,
    epochs: int | None = None,
) -> list[BalloonOutcome]:
    if epochs is not None:
        config = replace(config, epochs=epochs)
    return [
        _run_with_balloon(workload_name, True, config, inflate_regions),
        _run_with_balloon(workload_name, False, config, inflate_regions),
    ]


def format_balloon(outcomes: list[BalloonOutcome]) -> str:
    lines = ["Ballooning interplay (Gemini, periodic inflation):"]
    for outcome in outcomes:
        lines.append(
            f"  {outcome.variant:<16s} thr={outcome.result.throughput:.3e} "
            f"aligned={outcome.result.well_aligned_rate:.0%} "
            f"aligned-demotions={outcome.aligned_demotions} "
            f"reclaimed={outcome.reclaimed_pages}p"
        )
    return "\n".join(lines)


@dataclass
class KsmOutcome:
    variant: str
    result: RunResult
    merged_pages: int
    demoted_huge_pages: int


def _run_with_ksm(
    workload_name: str,
    config: SimulationConfig,
    mergeable: float,
    break_huge: bool,
    spare_aligned: bool,
    variant: str,
) -> KsmOutcome:
    sim = Simulation(make_workload(workload_name), system="Gemini", config=config)
    daemon = KsmDaemon(
        sim.platform,
        mergeable_fraction=mergeable,
        break_huge=break_huge,
        spare_aligned=spare_aligned,
        seed=config.seed,
    )
    for epoch in range(config.epochs):
        sim.step_epoch(epoch)
        daemon.scan()
    return KsmOutcome(
        variant=variant,
        result=sim.results[0],
        merged_pages=daemon.merged_pages,
        demoted_huge_pages=daemon.demoted_huge_pages,
    )


def run_ksm_interplay(
    workload_name: str = "Specjbb",
    config: SimulationConfig = _DEFAULT,
    mergeable: float = 0.15,
    epochs: int | None = None,
) -> list[KsmOutcome]:
    if epochs is not None:
        config = replace(config, epochs=epochs)
    return [
        _run_with_ksm(workload_name, config, mergeable, False, True, "no break-huge"),
        _run_with_ksm(
            workload_name, config, mergeable, True, True, "break, spare aligned"
        ),
        _run_with_ksm(
            workload_name, config, mergeable, True, False, "break everything"
        ),
    ]


def format_ksm(outcomes: list[KsmOutcome]) -> str:
    lines = ["KSM interplay (Gemini, host-level same-page merging):"]
    for outcome in outcomes:
        lines.append(
            f"  {outcome.variant:<22s} thr={outcome.result.throughput:.3e} "
            f"aligned={outcome.result.well_aligned_rate:.0%} "
            f"merged={outcome.merged_pages}p "
            f"huge-demotions={outcome.demoted_huge_pages}"
        )
    return "\n".join(lines)
