"""One fleet host: the shared per-host stack of
:class:`repro.sim.engine.HostStack` plus its tenants, their lifecycle and
the views and records the fleet controller reads.

A :class:`Host` is fully self-contained and picklable: the cluster engine
can ship it to a worker process, step it there, and take the mutated copy
back — with results identical to stepping in place, because every source
of randomness a host touches (its noise stream, its tenants' workload
RNGs) lives inside the host and `random.Random` pickles its exact state.

``step_epoch`` runs the same epoch step as the single-host
:class:`~repro.sim.engine.Simulation`; only the records it keeps differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.cluster.results import HostEpochRecord, TenantEpochRecord
from repro.hypervisor.balloon import BalloonDriver
from repro.hypervisor.vm import PROCESS, VM
from repro.mem.layout import HUGE_ORDER, PAGES_PER_HUGE
from repro.sim.engine import HostStack, Tenant
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.config import ClusterConfig

__all__ = [
    "Host",
    "HostView",
    "Tenant",
    "resident_pages",
    "resident_runs",
]


def resident_runs(vm: VM) -> list[tuple[int, int]]:
    """The VM's resident set as sorted ``(start_gpn, count)`` runs.

    Resident means guest-mapped: pages the guest considers in use.  Stale
    EPT backing under guest-freed pages (the Section 6.3 leftovers) holds
    no data — live migration does not copy it, which makes migration one
    of the few events that sheds it.
    """
    table = vm.guest.table(PROCESS)
    # Huge mappings are already aligned 512-page runs and their
    # guest-physical blocks never overlap base-mapped frames (both come
    # from disjoint gpa-space allocations), so the sorted union of pages
    # equals the sorted merge of the two run lists.
    runs = [
        (gpregion * PAGES_PER_HUGE, PAGES_PER_HUGE)
        for _, gpregion in table.huge_mappings()
    ]
    start = count = 0
    gpns = {
        gpn
        for vregion in table.populated_regions()
        for _, gpn in table.region_items(vregion)
    }
    for gpn in sorted(gpns):
        if count and gpn == start + count:
            count += 1
            continue
        if count:
            runs.append((start, count))
        start, count = gpn, 1
    if count:
        runs.append((start, count))
    runs.sort()
    merged: list[tuple[int, int]] = []
    for rstart, rcount in runs:
        if merged and rstart == merged[-1][0] + merged[-1][1]:
            merged[-1] = (merged[-1][0], merged[-1][1] + rcount)
        else:
            merged.append((rstart, rcount))
    return merged


def resident_pages(vm: VM) -> int:
    return sum(count for _, count in resident_runs(vm))


@dataclass(frozen=True)
class HostView:
    """Snapshot of the scheduler-relevant state of one host.

    The cluster controller makes every placement and consolidation
    decision from these views — never from live host objects — so the
    decisions are identical whether the hosts live in-process or on
    pool workers (where only views travel, not hosts).
    """

    index: int
    total_pages: int
    free_pages: int
    #: Placement capacity left (commitment-based, headroom included).
    available_pages: int
    #: Free pages sitting in huge-aligned buddy blocks.
    aligned_free_pages: int
    #: Size of the largest free physical region.
    largest_free_region: int
    #: Huge pages the host's translation indices report as misaligned.
    misaligned_huge: int
    #: ``(ordinal, resident_pages)`` per tenant, ordinal-sorted.
    residents: tuple[tuple[int, int], ...]
    #: Normalised memory pressure in [0, 1] (0 above the low watermark,
    #: 1 at/below critical; always 0 with the subsystem disabled).
    #: Appended with a default so existing view constructions stay valid.
    pressure: float = 0.0
    #: Pages currently on the host's swap device.
    swapped_pages: int = 0

    @property
    def vms(self) -> int:
        return len(self.residents)

    @property
    def utilization(self) -> float:
        return 1.0 - self.free_pages / self.total_pages


class Host(HostStack):
    """A fleet host: the per-host stack, its tenants, and the views and
    records the controller reads."""

    def __init__(self, index: int, config: "ClusterConfig") -> None:
        self.index = index
        super().__init__(
            config.system,
            config,
            # Distinct noise stream per host: a large odd stride keeps
            # the per-host seeds disjoint from the per-tenant workload
            # seeds.
            noise_seed=config.seed + 7919 * index + 13,
            # Fragmentation gradient: host 0 is the oldest (most
            # fragmented) machine, the last host is freshly racked.  The
            # gradient is what makes placement interesting — a fleet of
            # identically-fragmented hosts gives every policy the same
            # aligned capacity everywhere.
            fragment_host=config.fragment_host * (config.hosts - index) / config.hosts,
            # Hosts draw independent swap-latency streams and fragmenter
            # pins from the same config seed.
            salt=index,
        )
        self.tenants: dict[int, Tenant] = {}
        #: Pages pinned before any tenant existed (the fragmentation
        #: pins): capacity the scheduler can never promise to a VM.
        self._pinned_pages = (
            self.platform.memory.total_pages - self.platform.memory.free_pages
        )
        # Records accumulate here (also while stepping inside a worker
        # process) until the engine drains them.
        self._tenant_records: list[TenantEpochRecord] = []
        self._host_records: list[HostEpochRecord] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def free_pages(self) -> int:
        return self.platform.memory.free_pages

    @property
    def utilization(self) -> float:
        memory = self.platform.memory
        return 1.0 - memory.free_pages / memory.total_pages

    @property
    def committed_pages(self) -> int:
        """Host pages promised to tenants (their full guest sizes).

        Guests fault their memory lazily, so physical ``free_pages`` says
        nothing about what is already spoken for — the scheduler places
        against commitments, the way real clouds reserve a flavour's RAM
        at boot rather than overcommitting."""
        return sum(tenant.vm.guest_pages for tenant in self.tenants.values())

    @property
    def available_pages(self) -> int:
        """Placement capacity left: total minus pre-pinned pages minus
        committed (with the configured per-VM headroom for noise and
        page-table bloat).  ``overcommit_ratio`` scales the advertised
        total above physical capacity; the pressure subsystem absorbs the
        difference when commitments are actually touched."""
        total = int(
            (self.platform.memory.total_pages - self._pinned_pages)
            * self.config.overcommit_ratio
        )
        return total - int(self.committed_pages * self.config.placement_headroom)

    def summary(self) -> HostView:
        """The scheduler-facing snapshot of this host."""
        memory = self.platform.memory
        largest = memory.max_free_region()
        misaligned = 0
        for index in self.platform.indices.values():
            report = index.report()
            misaligned += report.guest_huge - report.aligned_guest
            misaligned += report.host_huge - report.aligned_host
        return HostView(
            index=self.index,
            total_pages=memory.total_pages,
            free_pages=memory.free_pages,
            available_pages=self.available_pages,
            aligned_free_pages=memory.free_pages_at_or_above(HUGE_ORDER),
            largest_free_region=largest[1] if largest is not None else 0,
            misaligned_huge=misaligned,
            residents=tuple(
                (ordinal, resident_pages(self.tenants[ordinal].vm))
                for ordinal in sorted(self.tenants)
            ),
            pressure=(
                self.pressure.pressure_signal()
                if self.pressure is not None
                else 0.0
            ),
            swapped_pages=(
                self.pressure.device.total_swapped
                if self.pressure is not None
                else 0
            ),
        )

    def drain_records(self) -> tuple[list[HostEpochRecord], list[TenantEpochRecord]]:
        host_records, self._host_records = self._host_records, []
        tenant_records, self._tenant_records = self._tenant_records, []
        return host_records, tenant_records

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------

    def add_tenant(
        self, ordinal: int, guest_mib: int, workload: Workload, epoch: int
    ) -> Tenant:
        """Place a new VM (the arrival half of the churn generator)."""
        tenant = self._admit(ordinal, guest_mib, workload, name=f"vm{ordinal}")
        tenant.balloon = BalloonDriver(self.platform, tenant.vm, alignment_aware=True)
        tenant.arrived_epoch = epoch
        self.tenants[ordinal] = tenant
        return tenant

    def detach_tenant(self, ordinal: int) -> tuple[Tenant, object]:
        """Remove a tenant keeping its guest-side state (migration source).

        Returns the tenant and its cross-layer runtime state (None for
        non-Gemini systems); host frames are freed, EPT and index torn
        down, noise bookkeeping dropped.
        """
        tenant = self.tenants.pop(ordinal)
        state = None
        if self.pressure is not None:
            # While the VM is still attached: deflates the controller's
            # balloon and discards swap slots (swapped state does not
            # travel; the destination re-faults the resident set).
            self.pressure.forget_vm(tenant.vm.id)
        if self.runtime is not None:
            state = self.runtime.unregister_vm(tenant.vm.id)
        self.platform.detach_vm(tenant.vm)
        self.noise.forget_vm(tenant.vm.id)
        return tenant, state

    def adopt_tenant(self, tenant: Tenant, state: object = None) -> None:
        """Attach a migrated-in tenant (migration destination)."""
        self.platform.attach_vm(tenant.vm)
        if self.runtime is not None:
            self.runtime.adopt_vm(tenant.vm, state)
        tenant.ctx.platform = self.platform
        tenant.balloon.platform = self.platform
        self.tenants[tenant.ordinal] = tenant

    def destroy_tenant(self, ordinal: int) -> None:
        """Departure: free everything, drop the VM (its guest-side state
        dies with it).  What the departure does *not* free — noise
        allocations made while the tenant ran, neighbours' pages — is the
        fragmentation the churn leaves behind."""
        self.detach_tenant(ordinal)

    def resize_tenant(self, ordinal: int, grow: bool, fraction: float) -> int:
        """Balloon the tenant: shrink inflates (releasing host backing,
        demoting huge EPT entries per the balloon's alignment policy),
        grow deflates a previous inflation.  Returns pages moved."""
        tenant = self.tenants[ordinal]
        if grow:
            return tenant.balloon.deflate()
        return tenant.balloon.inflate(int(tenant.vm.guest_pages * fraction))

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step_epoch(self, epoch: int) -> None:
        """Run one fleet epoch on this host, tenants in ordinal order."""
        obs.set_context(host=self.index, epoch=epoch)
        with obs.span("host.step"):
            self._step(
                epoch, [self.tenants[ordinal] for ordinal in sorted(self.tenants)]
            )

    def _record_tenant(
        self, tenant, epoch, performance, alignment, fmfi_guest, fmfi_host
    ) -> None:
        self._tenant_records.append(
            TenantEpochRecord(
                epoch=epoch,
                ordinal=tenant.ordinal,
                host=self.index,
                workload=tenant.workload.name,
                tenant_epoch=tenant.epochs_run,
                performance=performance,
                alignment=alignment,
                fmfi_guest=fmfi_guest,
            )
        )

    def _record_host(
        self, epoch: int, fmfi_host: float, aligned_free_pages: int, vms: int
    ) -> None:
        memory = self.platform.memory
        controller = self.pressure
        self._host_records.append(
            HostEpochRecord(
                epoch=epoch,
                host=self.index,
                fmfi=fmfi_host,
                free_pages=memory.free_pages,
                aligned_free_pages=aligned_free_pages,
                total_pages=memory.total_pages,
                vms=vms,
                pressure=(
                    controller.pressure_signal() if controller else 0.0
                ),
                swapped_pages=(
                    controller.device.total_swapped if controller else 0
                ),
                swap_out_pages=(
                    controller.device.pages_out if controller else 0
                ),
                swap_in_pages=(
                    controller.device.pages_in if controller else 0
                ),
                pressure_demotions=(
                    controller.demoted_huge_pages if controller else 0
                ),
                pressure_aligned_demotions=(
                    controller.demoted_aligned_huge_pages if controller else 0
                ),
            )
        )
