"""Output checks: a canonical result digest and index-vs-rescan agreement."""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro import ClusterSimulation, Simulation, alignment_report
from repro.hypervisor.vm import PROCESS

__all__ = ["digest", "index_mismatches"]


def digest(results: list) -> str:
    """SHA-256 prefix of the results as sorted-key JSON.

    Not pickle bytes: two results that compare equal can pickle
    differently (the serial and 2-worker pressured fleets do), while
    their field values serialise identically.
    """
    canonical = json.dumps(
        [dataclasses.asdict(result) for result in results],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _platforms(simulation):
    if isinstance(simulation, Simulation):
        return [simulation.platform]
    if isinstance(simulation, ClusterSimulation):
        return [host.platform for host in simulation.hosts]
    raise TypeError(f"not a simulation: {simulation!r}")


def index_mismatches(simulations: list) -> list[str]:
    """Live VMs whose incremental translation index disagrees with a
    fresh rescan of their guest table and EPT, one line per VM."""
    mismatches = []
    for simulation in simulations:
        for platform in _platforms(simulation):
            for vm in platform.iter_vms():
                index = platform.index_of(vm)
                if index is None:
                    continue
                indexed = index.report()
                rescanned = alignment_report(
                    vm.guest.table(PROCESS), platform.ept(vm)
                )
                if indexed != rescanned:
                    mismatches.append(
                        f"vm {vm.id}: index {indexed} != rescan {rescanned}"
                    )
    return mismatches
