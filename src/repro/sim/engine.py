"""The simulation engine: runs workloads on a virtualized platform under a
chosen huge-page system and produces :class:`~repro.sim.results.RunResult`
records.

:class:`HostStack` is one host — platform, TLB model, noise agent, Gemini
runtime, pressure controller — and the epoch step every host runs.  Two
engines extend it: :class:`Simulation`, one host with one VM per workload
(the paper runs one workload per VM, and the collocation study of
Section 6.5 puts several VMs on the server), and the fleet's
:class:`repro.cluster.host.Host`.  Each epoch:

1. the workloads allocate/touch/free memory (demand faults drive both
   translation layers, with OS noise interleaved);
2. the epoch's accesses are classified region by region against both page
   tables (well-aligned / splintered / base) and evaluated by the TLB
   capacity model;
3. costs accrued by both layers are folded with the translation behaviour
   into each tenant's performance record;
4. background daemons run — the per-layer policy scans, for Gemini the
   cross-layer runtime (MHPS, booking, promoters, bucket), and the
   pressure ladder.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.core.runtime import GeminiRuntime
from repro.hypervisor.balloon import BalloonDriver
from repro.hypervisor.platform import Platform
from repro.hypervisor.vm import PROCESS, VM
from repro.mem.fragmentation import Fragmenter, fmfi
from repro.mem.layout import HUGE_ORDER, PAGES_PER_HUGE, contiguous_runs
from repro.metrics.alignment import AlignmentReport, classify_region
from repro.metrics.performance import EpochPerformance, epoch_performance
from repro.policies.base import EpochTelemetry
from repro.policies.registry import system_spec
from repro.pressure.controller import PressureController
from repro.sim.config import SimulationConfig
from repro.sim.noise import NoiseAgent
from repro.sim.results import EpochRecord, RunResult
from repro.tlb import costs
from repro.tlb.model import TLBModel, TranslationSegment
from repro.workloads.base import Workload, WorkloadContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.config import ClusterConfig

__all__ = [
    "HostStack",
    "Simulation",
    "Tenant",
    "backfill_host",
    "build_segments",
    "charge_dedup_cow",
    "run_workload",
]


def build_segments(
    platform: Platform, vm: VM, workload: Workload, epoch: int
) -> list[TranslationSegment]:
    """Classify one epoch's accesses into TLB-model segments.

    Walks the workload's access phases, classifies each touched 2 MiB
    region against both page tables (cached in the VM's translation
    index), and spreads the epoch's accesses over the resulting
    translation kinds.
    """
    segments: list[TranslationSegment] = []
    guest_table = vm.guest.table(PROCESS)
    ept = platform.ept(vm.id)
    vm_index = platform.index_of(vm.id)
    total_accesses = workload.accesses_per_epoch
    for phase in workload.access_phases(epoch):
        if phase.vma not in vm.address_space:
            continue
        vma = vm.address_space.vma(phase.vma)
        hot_pages = max(1, int(vma.npages * phase.hot_fraction))
        first_region = vma.start // PAGES_PER_HUGE
        last_region = (vma.start + hot_pages - 1) // PAGES_PER_HUGE
        entries: dict = {}
        pages: dict = {}
        walk: dict = {}
        for vregion in range(first_region, last_region + 1):
            # A valid cached classification implies every guest-physical
            # page the region depends on is still EPT-translated (any
            # removal invalidates the cache), so backfill_host would be
            # a pure no-op — skip both on a hit.
            classes = vm_index.cached_classes(vregion)
            if classes is None:
                backfill_host(platform, vm, vregion)
                classes = classify_region(guest_table, ept, vregion)
                vm_index.store_classes(vregion, classes)
            for cls in classes:
                entries[cls.kind] = entries.get(cls.kind, 0) + cls.entries
                pages[cls.kind] = pages.get(cls.kind, 0) + cls.pages
                walk[cls.kind] = cls.walk_cycles
        total_pages = sum(pages.values())
        if total_pages == 0:
            continue
        phase_accesses = total_accesses * phase.weight
        for kind, kind_entries in entries.items():
            segments.append(
                TranslationSegment(
                    entries=kind_entries,
                    accesses=phase_accesses * pages[kind] / total_pages,
                    walk_cycles=walk[kind],
                    label=f"{vma.name}:{kind.value}",
                )
            )
    return segments


def backfill_host(platform: Platform, vm: VM, vregion: int) -> None:
    """Fault any host backing that accesses to *vregion* would demand.

    After a guest-side migration the data lives at new guest-physical
    addresses that the EPT has not backed yet; real accesses would
    EPT-fault, so the engine faults them before evaluating the epoch.
    """
    guest_table = vm.guest.table(PROCESS)
    ept = platform.ept(vm.id)
    if guest_table.is_huge(vregion):
        gpregion = guest_table.huge_target(vregion)
        if ept.is_huge(gpregion):
            return
        # Contiguous ascending range, no fault hook on this path: the
        # batched walk makes the identical per-page decisions.
        platform.host.fault_range(vm.id, gpregion * PAGES_PER_HUGE, PAGES_PER_HUGE)
        return
    # Runs of consecutive guest frames, in mapping order: the order
    # decides which host frames the faults receive, so it must not be
    # sorted.  ``fault_range`` skips the backed pages itself.
    gpns = [gpn for _, gpn in guest_table.region_items(vregion)]
    for start, count in contiguous_runs(gpns):
        platform.host.fault_range(vm.id, start, count)


def charge_dedup_cow(vm: VM, workload: Workload) -> None:
    """HawkEye's zero-page deduplication backfires on workloads that
    write their deduplicated pages (Section 6.2, Specjbb)."""
    policy = vm.guest.policy
    if not getattr(policy, "deduplicates_zero_pages", False):
        return
    if workload.zero_page_dedup_rate <= 0.0:
        return
    faults = workload.zero_page_dedup_rate * workload.ops_per_epoch
    vm.guest.ledger.charge(
        "cow_fault", costs.COW_FAULT_CYCLES * faults, count=int(faults)
    )


@dataclass
class Tenant:
    """One VM, its workload and the per-VM state the epoch step keeps.

    Everything here travels with the VM when a fleet migrates it.
    """

    ordinal: int
    vm: VM
    workload: Workload
    ctx: WorkloadContext
    #: Guest-ledger snapshot the next epoch's cost delta is taken against.
    guest_snapshot: object
    #: Fleet tenants own a balloon; single-host VMs have none.
    balloon: BalloonDriver | None = None
    arrived_epoch: int = 0
    #: Epochs the workload has run: its own clock, which a fleet tenant
    #: starts at arrival.
    epochs_run: int = 0
    #: Guest-physical fragmenter pins (kept referenced so the pinned
    #: pages stay allocated for the VM's lifetime).
    fragmenter: Fragmenter | None = field(default=None, repr=False)


class HostStack:
    """One host and the epoch step both engines run on it.

    Builds the platform, TLB model, noise agent, Gemini runtime (for
    Gemini) and pressure controller (when enabled) from the fields
    :class:`SimulationConfig` and ``ClusterConfig`` share.  Subclasses
    pass what differs — the noise seed, the *salt* that offsets the
    swap-device and host-fragmenter seeds, the NUMA nodes and the host
    fragmentation target — and keep their own per-tenant record through
    :meth:`_record_tenant`.
    """

    def __init__(
        self,
        system: str,
        config: SimulationConfig | ClusterConfig,
        *,
        noise_seed: int,
        fragment_host: float,
        salt: int = 0,
        nodes: int = 1,
    ) -> None:
        self.system = system
        self.config = config
        self.spec = system_spec(system)
        self.platform = Platform.with_mib(
            config.host_mib, self.spec.make_host(), nodes=nodes
        )
        self.tlb_model = TLBModel(config.tlb)
        self.noise = NoiseAgent(
            self.platform,
            rate=config.noise_rate,
            free_fraction=config.noise_free_fraction,
            seed=noise_seed,
        )
        self.noise.install()
        self.runtime: GeminiRuntime | None = None
        if self.spec.uses_gemini_runtime:
            self.runtime = GeminiRuntime(self.platform, config.gemini)
        self.pressure: PressureController | None = None
        if config.pressure.enabled:
            self.pressure = PressureController(
                self.platform, config.pressure, salt=salt
            )
        #: Host-memory fragmenter pins (None on unfragmented hosts).
        self._fragmenter: Fragmenter | None = None
        if fragment_host > 0.0:
            self._fragmenter = Fragmenter(self.platform.memory, seed=config.seed + salt)
            self._fragmenter.fragment(fragment_host)
        self._last_misses = 0.0
        # Persistent ledger snapshot: each epoch's cost delta is taken
        # against it and it is advanced at delta time, so work done by
        # the between-epoch daemons is charged to the *next* epoch
        # instead of disappearing between snapshots.
        self._host_snapshot = self.platform.host.ledger.snapshot()

    def _admit(
        self, ordinal: int, guest_mib: int, workload: Workload, name: str
    ) -> Tenant:
        """Create one tenant VM on this host: attached, registered with
        the runtime, its guest-physical memory fragmented as configured."""
        config = self.config
        vm = VM.with_mib(ordinal, guest_mib, self.spec.make_guest(), name=name)
        self.platform.attach_vm(vm)
        if self.runtime is not None:
            self.runtime.register_vm(vm)
        fragmenter = None
        if config.fragment_guest > 0.0:
            fragmenter = Fragmenter(vm.gpa_space, seed=config.seed + ordinal)
            fragmenter.fragment(config.fragment_guest)
        # Differentiate the per-workload RNG stream by name so that
        # same-family workloads (e.g. Redis vs RocksDB) do not replay
        # identical churn sequences.  CRC32 keys on byte order, so
        # anagram names (unlike a plain byte sum) get distinct salts.
        name_salt = zlib.crc32(workload.name.encode()) % 997
        return Tenant(
            ordinal=ordinal,
            vm=vm,
            workload=workload,
            ctx=WorkloadContext(
                self.platform, vm, seed=config.seed + ordinal + name_salt
            ),
            guest_snapshot=vm.guest.ledger.snapshot(),
            fragmenter=fragmenter,
        )

    # ------------------------------------------------------------------
    # One epoch
    # ------------------------------------------------------------------

    def _step(self, epoch: int, tenants: list[Tenant]) -> None:
        """Run *tenants* through host epoch *epoch*."""
        with obs.span("host.workloads"):
            for tenant in tenants:
                if tenant.epochs_run == 0:
                    tenant.workload.setup(tenant.ctx)
                tenant.workload.run_epoch(tenant.ctx, tenant.epochs_run)

        epoch_misses = 0.0
        ledger = self.platform.host.ledger
        host_delta = ledger.delta_since(self._host_snapshot)
        self._host_snapshot = ledger.snapshot()
        host_share = 1.0 / len(tenants) if tenants else 0.0
        host_fmfi = fmfi(self.platform.memory)

        with obs.span("host.classify"):
            for tenant in tenants:
                vm, workload = tenant.vm, tenant.workload
                tenant_epoch = tenant.epochs_run
                charge_dedup_cow(vm, workload)
                if self.pressure is not None:
                    # Dirty sets follow the tenant's own epoch (its access
                    # phases), heat decays in host-epoch time.
                    self.pressure.log_dirty(vm, workload, epoch, tenant_epoch)
                segments = build_segments(self.platform, vm, workload, tenant_epoch)
                stats = self.tlb_model.evaluate(segments)
                epoch_misses += stats.misses

                guest_delta = vm.guest.ledger.delta_since(tenant.guest_snapshot)
                tenant.guest_snapshot = vm.guest.ledger.snapshot()
                performance = epoch_performance(
                    tlb_sensitivity=workload.tlb_sensitivity,
                    ops=workload.ops_per_epoch,
                    stats=stats,
                    sync_mm_cycles=guest_delta.sync_cycles
                    + host_delta.sync_cycles * host_share,
                    background_cycles=guest_delta.background_cycles
                    + host_delta.background_cycles * host_share,
                )
                report = self.platform.index_of(vm.id).report()
                guest_fmfi = fmfi(vm.gpa_space)
                self._record_tenant(
                    tenant, epoch, performance, report, guest_fmfi, host_fmfi
                )
                obs.emit(
                    "tenant.epoch",
                    ordinal=tenant.ordinal,
                    workload=workload.name,
                    tenant_epoch=tenant_epoch,
                    tlb_misses=round(stats.misses, 3),
                    well_aligned_rate=round(report.well_aligned_rate, 6),
                    fmfi_guest=round(guest_fmfi, 6),
                )
                vm.guest.policy.on_epoch(
                    EpochTelemetry(tenant_epoch, stats.misses, guest_fmfi)
                )
                tenant.epochs_run += 1

        self.platform.host.policy.on_epoch(
            EpochTelemetry(epoch, epoch_misses, host_fmfi)
        )
        self._last_misses = epoch_misses
        # Daemons run *between* epochs: promotions and bookings made now
        # take effect for the next epoch's accesses, so repair mechanisms
        # carry a one-epoch lag while fault-time mechanisms (huge faults
        # from booked/bucketed regions) act immediately.
        with obs.span("host.daemons"):
            self._run_daemons(epoch, tenants)

        memory = self.platform.memory
        aligned_free = memory.free_pages_at_or_above(HUGE_ORDER)
        self._record_host(epoch, host_fmfi, aligned_free, len(tenants))
        obs.emit(
            "host.epoch",
            fmfi=round(host_fmfi, 6),
            free_pages=memory.free_pages,
            aligned_free_pages=aligned_free,
            vms=len(tenants),
        )

    def _run_daemons(self, epoch: int, tenants: list[Tenant]) -> None:
        for tenant in tenants:
            tenant.vm.guest.policy.scan(None)
        self.platform.host.policy.scan(None)
        if self.runtime is not None:
            self.runtime.epoch(now=float(epoch), tlb_misses=self._last_misses)
        if self.pressure is not None and epoch >= 0:
            self.pressure.run(epoch)

    def _record_tenant(
        self,
        tenant: Tenant,
        epoch: int,
        performance: EpochPerformance,
        alignment: AlignmentReport,
        fmfi_guest: float,
        fmfi_host: float,
    ) -> None:
        """Keep one tenant's epoch record; each engine keeps its own kind."""
        raise NotImplementedError

    def _record_host(
        self, epoch: int, fmfi_host: float, aligned_free_pages: int, vms: int
    ) -> None:
        """Keep the host's epoch record; the single-host engine keeps none."""


class Simulation(HostStack):
    """One simulation: a host, one VM per workload, one system."""

    def __init__(
        self,
        workloads: Workload | list[Workload],
        system: str = "Gemini",
        config: SimulationConfig | None = None,
        primer: Workload | None = None,
    ) -> None:
        """*primer* is a workload executed to completion (and unmapped)
        inside the first VM before the main workload starts — the reused-VM
        setting of Section 6.3."""
        config = config or SimulationConfig()
        workloads = [workloads] if isinstance(workloads, Workload) else list(workloads)
        if not workloads:
            raise ValueError("at least one workload required")
        super().__init__(
            system,
            config,
            noise_seed=config.seed,
            fragment_host=config.fragment_host,
            nodes=config.nodes,
        )
        self.primer = primer
        self.tenants: list[Tenant] = [
            self._admit(index, config.guest_mib, workload, name=workload.name)
            for index, workload in enumerate(workloads)
        ]
        #: One result per tenant, filled in epoch by epoch.
        self.results = [
            RunResult(system=system, workload=workload.name)
            for workload in workloads
        ]

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self) -> list[RunResult]:
        """Run the configured number of epochs; one result per workload."""
        if self.primer is not None:
            self._run_primer()
            # The primer's costs belong to the previous tenant, not to the
            # measured workload's first epoch.
            self._host_snapshot = self.platform.host.ledger.snapshot()
            for tenant in self.tenants:
                tenant.guest_snapshot = tenant.vm.guest.ledger.snapshot()
        with obs.health.armed(self.config):
            for epoch in range(self.config.epochs):
                self.step_epoch(epoch)
        if self.runtime is not None:
            stats = self.runtime.stats()
            for result in self.results:
                result.gemini_stats = stats
        return self.results

    def run_single(self) -> RunResult:
        """Run and return the (single) workload's result."""
        if len(self.tenants) != 1:
            raise ValueError("run_single requires exactly one workload")
        return self.run()[0]

    def step_epoch(self, epoch: int) -> None:
        """Run one epoch, appending one record to each result."""
        obs.set_context(host=None, epoch=epoch)
        with obs.span("sim.epoch"):
            self._step(epoch, self.tenants)

    def _run_primer(self) -> None:
        """Execute the primer workload to completion in VM 0, then unmap
        everything it allocated (guest frames freed, EPT state retained)."""
        vm = self.tenants[0].vm
        ctx = WorkloadContext(self.platform, vm, seed=self.config.seed + 1000)
        primer = self.primer
        assert primer is not None
        primer.setup(ctx)
        for epoch in range(primer.default_epochs):
            primer.run_epoch(ctx, epoch)
            self._run_daemons(-primer.default_epochs + epoch, self.tenants)
        for name in list(ctx.vma_names()):
            ctx.munmap(name)

    def _record_tenant(
        self, tenant, epoch, performance, alignment, fmfi_guest, fmfi_host
    ) -> None:
        vm = tenant.vm
        self.results[tenant.ordinal].epochs.append(
            EpochRecord(
                epoch=epoch,
                performance=performance,
                alignment=alignment,
                fmfi_guest=fmfi_guest,
                fmfi_host=fmfi_host,
                guest_huge_pages=vm.guest.huge_mapping_count(),
                host_huge_pages=self.platform.ept(vm.id).huge_count,
                bloat_pages=vm.guest.bloat_pages,
            )
        )


def run_workload(
    workload: Workload,
    system: str,
    config: SimulationConfig | None = None,
    primer: Workload | None = None,
) -> RunResult:
    """Convenience wrapper: simulate one workload under one system."""
    return Simulation(workload, system=system, config=config, primer=primer).run_single()
