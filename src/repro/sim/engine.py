"""The simulation engine: runs workloads on a virtualized platform under a
chosen huge-page system and produces :class:`~repro.sim.results.RunResult`
records.

One :class:`Simulation` hosts one or more workloads (one VM each — the
paper runs one workload per VM, and the collocation study of Section 6.5
puts several VMs on the server).  Each epoch:

1. the workloads allocate/touch/free memory (demand faults drive both
   translation layers, with OS noise interleaved);
2. background daemons run — the per-layer policy scans, and for Gemini the
   cross-layer runtime (MHPS, booking, promoters, bucket);
3. the epoch's accesses are classified region by region against both page
   tables (well-aligned / splintered / base) and evaluated by the TLB
   capacity model;
4. costs accrued by both layers are folded with the translation behaviour
   into the epoch's performance record.
"""

from __future__ import annotations

import zlib

from repro import obs
from repro.core.runtime import GeminiRuntime
from repro.hypervisor.platform import Platform
from repro.hypervisor.vm import PROCESS, VM
from repro.mem.fragmentation import Fragmenter, fmfi
from repro.mem.layout import PAGES_PER_HUGE
from repro.metrics.alignment import classify_region
from repro.metrics.performance import epoch_performance
from repro.policies.base import EpochTelemetry
from repro.policies.registry import system_spec
from repro.pressure.controller import PressureController
from repro.sim.config import SimulationConfig
from repro.sim.noise import NoiseAgent
from repro.sim.results import EpochRecord, RunResult
from repro.tlb import costs
from repro.tlb.model import TLBModel, TranslationSegment
from repro.workloads.base import Workload, WorkloadContext

__all__ = [
    "Simulation",
    "backfill_host",
    "build_segments",
    "charge_dedup_cow",
    "run_workload",
]


def build_segments(
    platform: Platform, vm: VM, workload: Workload, epoch: int
) -> list[TranslationSegment]:
    """Classify one epoch's accesses into TLB-model segments.

    Shared by :class:`Simulation` and the cluster's per-host stepping:
    walks the workload's access phases, classifies each touched 2 MiB
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
    for _, gpn in guest_table.region_items(vregion):
        if ept.translate(gpn) is None:
            platform.host.fault(vm.id, gpn, full_region=True)


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


class Simulation:
    """One simulation: a platform, one VM per workload, one system."""

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
        self.config = config or SimulationConfig()
        self.system = system
        self.spec = system_spec(system)
        self.workloads = [workloads] if isinstance(workloads, Workload) else list(workloads)
        if not self.workloads:
            raise ValueError("at least one workload required")
        self.primer = primer

        self.platform = Platform.with_mib(
            self.config.host_mib, self.spec.make_host(), nodes=self.config.nodes
        )
        self.tlb_model = TLBModel(self.config.tlb)
        self.noise = NoiseAgent(
            self.platform,
            rate=self.config.noise_rate,
            free_fraction=self.config.noise_free_fraction,
            seed=self.config.seed,
        )
        self.noise.install()

        self.runtime: GeminiRuntime | None = None
        if self.spec.uses_gemini_runtime:
            self.runtime = GeminiRuntime(self.platform, self.config.gemini)

        self._vms: list[VM] = []
        self._contexts: list[WorkloadContext] = []
        for index, workload in enumerate(self.workloads):
            vm = self.platform.create_vm_mib(
                self.config.guest_mib, self.spec.make_guest(), name=workload.name
            )
            if self.runtime is not None:
                self.runtime.register_vm(vm)
            self._vms.append(vm)
            # Differentiate the per-workload RNG stream by name so that
            # same-family workloads (e.g. Redis vs RocksDB) do not replay
            # identical churn sequences.  CRC32 keys on byte order, so
            # anagram names (unlike a plain byte sum) get distinct salts.
            name_salt = zlib.crc32(workload.name.encode()) % 997
            self._contexts.append(
                WorkloadContext(
                    self.platform, vm, seed=self.config.seed + index + name_salt
                )
            )

        self._fragmenters: list[Fragmenter] = []
        if self.config.fragment_host > 0.0:
            fragmenter = Fragmenter(self.platform.memory, seed=self.config.seed)
            fragmenter.fragment(self.config.fragment_host)
            self._fragmenters.append(fragmenter)
        if self.config.fragment_guest > 0.0:
            for vm in self._vms:
                fragmenter = Fragmenter(vm.gpa_space, seed=self.config.seed + vm.id)
                fragmenter.fragment(self.config.fragment_guest)
                self._fragmenters.append(fragmenter)

        self.pressure: PressureController | None = None
        if self.config.pressure.enabled:
            self.pressure = PressureController(
                self.platform, self.config.pressure
            )

        self._last_misses = 0.0
        # Persistent ledger snapshots: each epoch's cost delta is taken
        # against these and they are advanced at delta time, so work done
        # by the between-epoch daemons is charged to the *next* epoch
        # instead of disappearing between snapshots.
        self._host_snapshot = self.platform.host.ledger.snapshot()
        self._guest_snapshots = [vm.guest.ledger.snapshot() for vm in self._vms]

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
            self._guest_snapshots = [
                vm.guest.ledger.snapshot() for vm in self._vms
            ]
        results = [
            RunResult(system=self.system, workload=w.name) for w in self.workloads
        ]
        telemetry, recorder, installed_monitor = self._attach_health()
        try:
            for epoch in range(self.config.epochs):
                self._epoch(epoch, results)
        except BaseException as error:
            if recorder is not None:
                recorder.dump("exception", config=self.config, error=error)
            raise
        finally:
            if installed_monitor and telemetry is not None:
                telemetry.monitor = None
        if self.runtime is not None:
            stats = self.runtime.stats()
            for result in results:
                result.gemini_stats = stats
        return results

    def _attach_health(self):
        """Arm the watchdog monitor (and flight recorder, when a trace
        directory is configured) for this run; single-process, so the
        monitor sees every event as it is emitted."""
        telemetry = obs.get()
        if telemetry is None:
            return None, None, False
        from repro.obs.health import FlightRecorder, HealthMonitor

        installed = False
        if telemetry.monitor is None:
            telemetry.monitor = HealthMonitor()
            installed = True
        recorder = None
        out_dir = obs.trace_out_dir()
        if out_dir is not None:
            recorder = FlightRecorder(telemetry, out_dir)
            config = self.config
            telemetry.monitor.on_breach = (
                lambda finding: recorder.breach(finding, config=config)
            )
        return telemetry, recorder, installed

    def run_single(self) -> RunResult:
        """Run and return the (single) workload's result."""
        results = self.run()
        if len(results) != 1:
            raise ValueError("run_single requires exactly one workload")
        return results[0]

    def _run_primer(self) -> None:
        """Execute the primer workload to completion in VM 0, then unmap
        everything it allocated (guest frames freed, EPT state retained)."""
        vm = self._vms[0]
        ctx = WorkloadContext(self.platform, vm, seed=self.config.seed + 1000)
        primer = self.primer
        assert primer is not None
        primer.setup(ctx)
        for epoch in range(primer.default_epochs):
            primer.run_epoch(ctx, epoch)
            self._run_daemons(epoch=-primer.default_epochs + epoch)
        for name in list(ctx.vma_names()):
            ctx.munmap(name)

    # ------------------------------------------------------------------
    # One epoch
    # ------------------------------------------------------------------

    def _epoch(self, epoch: int, results: list[RunResult]) -> None:
        obs.set_context(host=None, epoch=epoch)
        with obs.span("sim.epoch"):
            self._epoch_body(epoch, results)

    def _epoch_body(self, epoch: int, results: list[RunResult]) -> None:
        with obs.span("sim.workloads"):
            for workload, ctx in zip(self.workloads, self._contexts):
                if epoch == 0:
                    workload.setup(ctx)
                workload.run_epoch(ctx, epoch)

        epoch_misses = 0.0
        host_delta = self.platform.host.ledger.delta_since(self._host_snapshot)
        self._host_snapshot = self.platform.host.ledger.snapshot()
        host_share = 1.0 / len(self._vms)
        host_fmfi = fmfi(self.platform.memory)

        with obs.span("sim.classify"):
            for index, (workload, vm) in enumerate(
                zip(self.workloads, self._vms)
            ):
                self._charge_dedup_cow(workload, vm)
                if self.pressure is not None:
                    self.pressure.log_dirty(vm, workload, epoch)
                segments = self._build_segments(workload, vm, epoch)
                stats = self.tlb_model.evaluate(segments)
                epoch_misses += stats.misses

                guest_delta = vm.guest.ledger.delta_since(
                    self._guest_snapshots[index]
                )
                self._guest_snapshots[index] = vm.guest.ledger.snapshot()
                sync_mm = (
                    guest_delta.sync_cycles + host_delta.sync_cycles * host_share
                )
                background = (
                    guest_delta.background_cycles
                    + host_delta.background_cycles * host_share
                )
                performance = epoch_performance(
                    tlb_sensitivity=workload.tlb_sensitivity,
                    ops=workload.ops_per_epoch,
                    stats=stats,
                    sync_mm_cycles=sync_mm,
                    background_cycles=background,
                )
                report = self.platform.index_of(vm.id).report()
                guest_fmfi = fmfi(vm.gpa_space)
                results[index].epochs.append(
                    EpochRecord(
                        epoch=epoch,
                        performance=performance,
                        alignment=report,
                        fmfi_guest=guest_fmfi,
                        fmfi_host=host_fmfi,
                        guest_huge_pages=vm.guest.huge_mapping_count(),
                        host_huge_pages=self.platform.ept(vm.id).huge_count,
                        bloat_pages=vm.guest.bloat_pages,
                    )
                )
                obs.emit(
                    "sim.epoch",
                    workload=workload.name,
                    tlb_misses=round(stats.misses, 3),
                    well_aligned_rate=round(report.well_aligned_rate, 6),
                    fmfi_guest=round(guest_fmfi, 6),
                    fmfi_host=round(host_fmfi, 6),
                )
                vm.guest.policy.on_epoch(
                    EpochTelemetry(epoch, stats.misses, guest_fmfi)
                )
        self.platform.host.policy.on_epoch(
            EpochTelemetry(epoch, epoch_misses, host_fmfi)
        )
        self._last_misses = epoch_misses
        # Daemons run *between* epochs: promotions and bookings made now
        # take effect for the next epoch's accesses, so repair mechanisms
        # carry a one-epoch lag while fault-time mechanisms (huge faults
        # from booked/bucketed regions) act immediately.
        with obs.span("sim.daemons"):
            self._run_daemons(epoch)

    def _run_daemons(self, epoch: int) -> None:
        for vm in self._vms:
            vm.guest.policy.scan(None)
        self.platform.host.policy.scan(None)
        if self.runtime is not None:
            self.runtime.epoch(now=float(epoch), tlb_misses=self._last_misses)
        if self.pressure is not None and epoch >= 0:
            self.pressure.run(epoch)

    def _charge_dedup_cow(self, workload: Workload, vm: VM) -> None:
        charge_dedup_cow(vm, workload)

    # ------------------------------------------------------------------
    # Access classification
    # ------------------------------------------------------------------

    def _build_segments(
        self, workload: Workload, vm: VM, epoch: int
    ) -> list[TranslationSegment]:
        return build_segments(self.platform, vm, workload, epoch)


def run_workload(
    workload: Workload,
    system: str,
    config: SimulationConfig | None = None,
    primer: Workload | None = None,
) -> RunResult:
    """Convenience wrapper: simulate one workload under one system."""
    return Simulation(workload, system=system, config=config, primer=primer).run_single()
