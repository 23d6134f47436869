"""The benchmark's four workloads.

Each workload is a fixed configuration run as a few *instances*: the
benchmark's ``--seed`` derives one simulation seed per instance, so a
run averages over several independent inputs instead of timing a single
seed whose churn trace or fragmentation pattern happens to be cheap or
expensive.  All four are closed loops: the simulator runs as fast as it
can.  They reach the simulator only through its public entry points
(``run_cells``, ``Simulation``, ``ClusterSimulation``).
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Callable

from repro import (
    ClusterConfig,
    ClusterSimulation,
    FleetResult,
    Simulation,
    SimulationConfig,
    make_workload,
)
from repro.cluster.config import ChurnConfig
from repro.exec import Cell, run_cells
from repro.pressure import PressureConfig

__all__ = [
    "SIMULATED_UNITS",
    "WORKLOADS",
    "Outcome",
    "Workload",
    "instance_seeds",
    "simulated_stats",
]

#: The six coalescing systems of the paper's Fig. 8 / Table 3 cells.
MATRIX_SYSTEMS = (
    "THP", "Ingens", "HawkEye", "CA-paging", "Translation-Ranger", "Gemini",
)


@dataclass
class Outcome:
    """What one instance's run call produced."""

    #: RunResult / FleetResult objects, digested by the output check.
    results: list
    #: Simulated tenant-epochs completed (one VM for one epoch).
    tenant_epochs: int
    #: Fleet epochs run and controller<->worker bytes over them.
    epochs: int = 0
    ipc_bytes: int = 0
    #: Bytes moved over direct worker-to-worker pipes.
    peer_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Independent instances per run, each with its own derived seed.
    instances: int
    #: Simulation seed -> the instance's config.
    config: Callable[[int], object]
    #: Builds and runs one instance (constructors included; the caller
    #: times them apart).
    run: Callable[[object], Outcome]
    #: The runner of the traced run's rounds, when it differs.
    traced_run: Callable[[object], Outcome] | None = None


def _matrix_config(seed: int) -> SimulationConfig:
    return SimulationConfig(
        epochs=12, fragment_guest=0.8, fragment_host=0.8, seed=seed
    )


def _run_matrix(config: SimulationConfig) -> Outcome:
    cells = [Cell("Redis", system, config) for system in MATRIX_SYSTEMS]
    results = run_cells(cells, workers=1, cache=None)
    return Outcome(results, tenant_epochs=len(cells) * config.epochs)


def _svm_config(seed: int) -> SimulationConfig:
    return SimulationConfig(
        epochs=200, fragment_guest=0.8, fragment_host=0.8, seed=seed
    )


def _run_svm(config: SimulationConfig) -> Outcome:
    simulation = Simulation(make_workload("SVM"), system="Gemini", config=config)
    return Outcome(simulation.run(), tenant_epochs=config.epochs)


def _churn_config(seed: int) -> ClusterConfig:
    # Twenty same-size key-value tenants: a run averages over many
    # tenants of similar cost and footprint, where the default pool's
    # large static-array tenants would make time and peak memory swing
    # with the seed.  Five epochs include the consolidation at epoch 4.
    return ClusterConfig(
        hosts=8,
        host_mib=768,
        epochs=5,
        seed=seed,
        system="Gemini",
        placement="first-fit",
        churn=ChurnConfig(
            initial_vms=20,
            departure_rate=0.03,
            guest_mib_choices=(192,),
            workload_pool=("Redis", "Memcached", "Masstree"),
        ),
    )


def _pressure_config(seed: int) -> ClusterConfig:
    return ClusterConfig(
        hosts=4,
        host_mib=80,
        epochs=6,
        seed=seed,
        system="Gemini",
        overcommit_ratio=2.5,
        placement_headroom=1.0,
        # Keep the traced run's worker pool engaged: it exists to measure
        # real IPC, which adaptive retraction would switch off.
        adaptive_parallel=False,
        churn=ChurnConfig(
            initial_vms=12,
            arrivals_per_epoch=0.5,
            departure_rate=0.03,
            max_vms=16,
            guest_mib_choices=(48, 64),
            workload_pool=("Shore", "SP.D", "Sphinx", "Moses"),
        ),
        pressure=PressureConfig(enabled=True),
    )


def _fleet_runner(workers: int) -> Callable[[ClusterConfig], Outcome]:
    def run(config: ClusterConfig) -> Outcome:
        simulation = ClusterSimulation(config)
        result = simulation.run(workers=workers)
        return Outcome(
            [result],
            tenant_epochs=len(result.tenant_epochs),
            epochs=config.epochs,
            ipc_bytes=sum(simulation.ipc_bytes_epochs),
            peer_bytes=simulation.ipc_peer_bytes,
        )

    return run


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "matrix_fault",
            "Redis on memory fragmented to FMFI 0.8 in both layers under six "
            "systems: the demand-fault path and every policy's scan dominate",
            instances=2,
            config=_matrix_config,
            run=_run_matrix,
        ),
        Workload(
            "svm_steady",
            "long fragmented SVM/Gemini runs that stop faulting after setup: "
            "daemon re-scans, classification and the TLB model dominate",
            instances=4,
            config=_svm_config,
            run=_run_svm,
        ),
        Workload(
            "fleet_churn",
            "8 large Gemini hosts of key-value tenants with arrivals, "
            "departures, resizes, placement and live migration, in-process",
            instances=2,
            config=_churn_config,
            run=_fleet_runner(workers=1),
        ),
        Workload(
            "fleet_pressure",
            "4 small hosts overcommitted 2.5x: the only balloon, KSM and swap "
            "traffic; its traced run alone steps hosts on 2 worker processes",
            instances=16,
            config=_pressure_config,
            # Timed in-process: on 2 cores the 2-worker timings swing with
            # the machine's other load.  The traced run measures the pool.
            run=_fleet_runner(workers=1),
            traced_run=_fleet_runner(workers=2),
        ),
    )
}


def instance_seeds(workload: Workload, seed: int) -> list[int]:
    """One simulation seed per instance, fixed by the benchmark seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(workload.instances)]


def _steady_fleet_misses(result: FleetResult) -> float:
    """Steady-state (second-half) TLB misses summed over tenants."""
    by_tenant: dict[int, list] = {}
    for record in result.tenant_epochs:
        by_tenant.setdefault(record.ordinal, []).append(record)
    return sum(
        record.performance.tlb_misses
        for records in by_tenant.values()
        for record in records[len(records) // 2:]
    )


SIMULATED_UNITS = {
    "well_aligned_rate": "fraction",
    "sim_ops_per_mcycle": "ops/Mcycle",
    "tlb_misses_m": "Mmisses",
}


def simulated_stats(results: list) -> dict[str, float]:
    """The deterministic simulated statistics over every result of a run:
    mean well-aligned rate and throughput, summed steady-state misses."""
    if isinstance(results[0], FleetResult):
        aligned = [r.fleet_well_aligned_rate for r in results]
        throughput = [r.mean_throughput for r in results]
        misses = sum(_steady_fleet_misses(r) for r in results)
    else:
        aligned = [r.well_aligned_rate for r in results]
        throughput = [r.throughput for r in results]
        misses = sum(r.tlb_misses for r in results)
    return {
        "well_aligned_rate": statistics.fmean(aligned),
        "sim_ops_per_mcycle": statistics.fmean(throughput) * 1e6,
        "tlb_misses_m": misses / 1e6,
    }
