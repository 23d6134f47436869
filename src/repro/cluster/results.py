"""Fleet simulation result records.

Mirrors :mod:`repro.sim.results` one level up: a tenant's epoch record is
an :class:`~repro.sim.results.EpochRecord` tagged with the fleet epoch,
the VM ordinal and the host it ran on, and :class:`FleetResult` aggregates
the cluster-level statistics the paper's problem is about — host-side
fragmentation (FMFI) across the fleet, the distribution of well-aligned
huge-page rates over hosts, migration cost accounting, and per-tenant
throughput/latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.alignment import AlignmentReport
from repro.metrics.performance import EpochPerformance

__all__ = [
    "FleetResult",
    "HostEpochRecord",
    "MigrationRecord",
    "TenantEpochRecord",
]


@dataclass
class TenantEpochRecord:
    """One tenant's measurements for one fleet epoch."""

    epoch: int  # fleet epoch
    ordinal: int  # fleet-unique VM id
    host: int  # host index the epoch ran on
    workload: str
    tenant_epoch: int  # the tenant's own epoch count (age)
    performance: EpochPerformance
    alignment: AlignmentReport
    fmfi_guest: float


@dataclass
class HostEpochRecord:
    """One host's state after one fleet epoch."""

    epoch: int
    host: int
    fmfi: float
    free_pages: int
    aligned_free_pages: int  # free pages inside huge-aligned buddy blocks
    total_pages: int
    vms: int
    # Pressure-subsystem fields (all zero while the subsystem is off).
    pressure: float = 0.0  # normalised watermark pressure in [0, 1]
    swapped_pages: int = 0  # pages resident on the swap device now
    swap_out_pages: int = 0  # cumulative device write-out traffic
    swap_in_pages: int = 0  # cumulative demand swap-in traffic
    pressure_demotions: int = 0  # cumulative ladder huge-page demotions
    pressure_aligned_demotions: int = 0  # ...of well-aligned huge pages

    @property
    def utilization(self) -> float:
        return 1.0 - self.free_pages / self.total_pages


@dataclass
class MigrationRecord:
    """Accounting of one live migration."""

    epoch: int
    ordinal: int
    source: int
    destination: int
    reason: str  # "overload" | "underload"
    resident_pages: int
    rounds: int  # pre-copy rounds before stop-and-copy
    copied_pages: int  # total pages moved, re-sends included
    downtime_pages: int  # dirty set moved during stop-and-copy
    precopy_cycles: float
    stopcopy_cycles: float
    shootdown_cycles: float

    @property
    def total_cycles(self) -> float:
        return self.precopy_cycles + self.stopcopy_cycles + self.shootdown_cycles


@dataclass
class FleetResult:
    """Aggregated outcome of one fleet simulation."""

    system: str
    placement: str
    hosts: int
    epochs: int
    seed: int
    tenant_epochs: list[TenantEpochRecord] = field(default_factory=list)
    host_epochs: list[HostEpochRecord] = field(default_factory=list)
    migrations: list[MigrationRecord] = field(default_factory=list)
    placement_failures: int = 0

    # ------------------------------------------------------------------
    # Fleet fragmentation
    # ------------------------------------------------------------------

    def _final_host_epochs(self) -> list[HostEpochRecord]:
        if not self.host_epochs:
            return []
        last = max(record.epoch for record in self.host_epochs)
        return [record for record in self.host_epochs if record.epoch == last]

    @property
    def fleet_fmfi(self) -> float:
        """Mean host FMFI at the final epoch."""
        final = self._final_host_epochs()
        return sum(r.fmfi for r in final) / len(final) if final else 0.0

    def host_fmfi(self) -> dict[int, float]:
        """Final-epoch FMFI per host."""
        return {r.host: r.fmfi for r in self._final_host_epochs()}

    # ------------------------------------------------------------------
    # Alignment
    # ------------------------------------------------------------------

    def _final_tenant_epochs(self) -> list[TenantEpochRecord]:
        if not self.tenant_epochs:
            return []
        last = max(record.epoch for record in self.tenant_epochs)
        return [record for record in self.tenant_epochs if record.epoch == last]

    def alignment_distribution(self) -> dict[int, float]:
        """Final-epoch well-aligned huge-page rate per host.

        Tenant alignment reports are merged per host, so the rate weighs
        every huge page on the host equally; hosts with no huge pages at
        the final epoch are omitted.
        """
        merged: dict[int, AlignmentReport] = {}
        for record in self._final_tenant_epochs():
            report = merged.setdefault(record.host, AlignmentReport())
            report.merge(record.alignment)
        return {
            host: report.well_aligned_rate
            for host, report in sorted(merged.items())
            if report.total_huge > 0
        }

    @property
    def fleet_well_aligned_rate(self) -> float:
        """Final-epoch well-aligned rate over every huge page in the fleet."""
        total = AlignmentReport()
        for record in self._final_tenant_epochs():
            total.merge(record.alignment)
        return total.well_aligned_rate if total.total_huge > 0 else 0.0

    # ------------------------------------------------------------------
    # Pressure / swap accounting
    # ------------------------------------------------------------------

    @property
    def fleet_swap_out_pages(self) -> int:
        """Cumulative swap write-out traffic across the fleet."""
        return sum(r.swap_out_pages for r in self._final_host_epochs())

    @property
    def fleet_swap_in_pages(self) -> int:
        """Cumulative demand swap-in traffic across the fleet."""
        return sum(r.swap_in_pages for r in self._final_host_epochs())

    @property
    def fleet_swapped_pages(self) -> int:
        """Pages resident on swap devices at the final epoch."""
        return sum(r.swapped_pages for r in self._final_host_epochs())

    @property
    def fleet_pressure_demotions(self) -> int:
        """Huge pages the pressure ladder demoted, fleet-wide."""
        return sum(r.pressure_demotions for r in self._final_host_epochs())

    @property
    def fleet_pressure_aligned_demotions(self) -> int:
        """Well-aligned huge pages the ladder destroyed, fleet-wide —
        the damage the alignment-aware victim policy minimises."""
        return sum(
            r.pressure_aligned_demotions for r in self._final_host_epochs()
        )

    @property
    def fleet_aligned_huge(self) -> int:
        """Well-aligned huge pages alive at the final epoch, fleet-wide."""
        return sum(
            r.alignment.aligned_total for r in self._final_tenant_epochs()
        )

    # ------------------------------------------------------------------
    # Migration accounting
    # ------------------------------------------------------------------

    @property
    def migration_count(self) -> int:
        return len(self.migrations)

    @property
    def migration_pages(self) -> int:
        return sum(m.copied_pages for m in self.migrations)

    @property
    def migration_cycles(self) -> float:
        return sum(m.total_cycles for m in self.migrations)

    # ------------------------------------------------------------------
    # Tenant performance
    # ------------------------------------------------------------------

    def _by_tenant(self) -> dict[int, list[TenantEpochRecord]]:
        grouped: dict[int, list[TenantEpochRecord]] = {}
        for record in self.tenant_epochs:
            grouped.setdefault(record.ordinal, []).append(record)
        return grouped

    @staticmethod
    def _steady(records: list[TenantEpochRecord]) -> list[TenantEpochRecord]:
        return records[len(records) // 2 :]

    def tenant_throughput(self, ordinal: int) -> float:
        """Ops per cycle over the tenant's steady-state (second-half) epochs."""
        records = self._by_tenant().get(ordinal, [])
        steady = self._steady(records)
        cycles = sum(r.performance.total_cycles for r in steady)
        ops = sum(r.performance.ops for r in steady)
        return ops / cycles if cycles > 0 else 0.0

    @property
    def mean_throughput(self) -> float:
        """Mean of per-tenant steady-state throughputs."""
        grouped = self._by_tenant()
        if not grouped:
            return 0.0
        return sum(self.tenant_throughput(o) for o in grouped) / len(grouped)

    @property
    def p99_latency(self) -> float:
        """Ops-weighted p99 latency over all steady-state tenant epochs."""
        weighted = 0.0
        ops = 0.0
        for records in self._by_tenant().values():
            for record in self._steady(records):
                if record.performance.p99_latency <= 0.0:
                    continue
                weighted += record.performance.p99_latency * record.performance.ops
                ops += record.performance.ops
        return weighted / ops if ops > 0 else 0.0

    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, float | int | str]:
        """Flat summary, for report tables."""
        return {
            "system": self.system,
            "placement": self.placement,
            "hosts": self.hosts,
            "epochs": self.epochs,
            "fleet_fmfi": self.fleet_fmfi,
            "well_aligned_rate": self.fleet_well_aligned_rate,
            "mean_throughput": self.mean_throughput,
            "p99_latency": self.p99_latency,
            "migrations": self.migration_count,
            "migration_pages": self.migration_pages,
            "migration_cycles": self.migration_cycles,
            "placement_failures": self.placement_failures,
            "swap_out_pages": self.fleet_swap_out_pages,
            "swap_in_pages": self.fleet_swap_in_pages,
            "swapped_pages": self.fleet_swapped_pages,
            "pressure_demotions": self.fleet_pressure_demotions,
            "pressure_aligned_demotions": self.fleet_pressure_aligned_demotions,
            "aligned_huge": self.fleet_aligned_huge,
        }
