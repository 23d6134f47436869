"""Host memory-pressure controller: the escalation ladder.

The paper's Section 8 names three memory-pressure mechanisms that can
demote the huge pages Gemini builds — ballooning, deduplication and
swapping — and gives the rule that keeps them from undoing Gemini's work:
*"we only allow misaligned huge pages and infrequently used huge pages to
be demoted when system is under memory pressure."*  This module is the
policy engine that drives all three from free-memory watermarks:

1. **Watermarks** — below ``watermark_low`` the ladder engages and
   reclaims toward ``watermark_high``; above ``watermark_high`` any
   controller balloon is deflated again.
2. **Balloon** — ask each guest for free pages first (cheapest: nothing
   is lost, the pages were unused).
3. **KSM** — a bounded dedup scan (break_huge off: the scan itself never
   splinters huge pages under pressure).
4. **Swap-out** — evict working-set-cold regions to the swap device,
   ordered by the configured victim policy.  The *last-resort rung* —
   demoting well-aligned, hot huge pages — is the ``critical`` mode of
   this same rung: only below ``watermark_critical`` does the
   alignment-aware policy release tier-3 victims.

Classification of "infrequently used" comes from the PML-style
working-set estimator (:mod:`repro.pressure.wse`), fed each epoch by the
engines with the dirty guest-physical set of every workload.

Determinism: every VM iteration is in sorted vm-id order, the swap
device's latency RNG is seeded per host, and all telemetry *events* are
emitted from :meth:`PressureController.run` only — which executes inside
``step_epoch`` where the observability context (host, epoch) is correct
under both serial and parallel execution.  The emergency-reclaim path
(invoked from inside a failing host allocation) emits counters only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import obs
from repro.mem.layout import PAGES_PER_HUGE
from repro.mem.swap import SwapDevice
from repro.os.mm import PROCESS
from repro.hypervisor.balloon import BalloonDriver
from repro.hypervisor.ksm import KsmDaemon
from repro.pressure.config import PressureConfig
from repro.pressure.victims import (
    BACKING_ALIGNED_HUGE,
    BACKING_BASE,
    BACKING_MISALIGNED_HUGE,
    VictimCandidate,
    make_victim_policy,
)
from repro.pressure.wse import WorkingSetEstimator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hypervisor.platform import Platform
    from repro.hypervisor.vm import VM
    from repro.workloads.base import Workload

__all__ = ["PressureController", "dirty_regions"]


def dirty_regions(
    platform: Platform, vm: VM, workload: Workload, epoch: int
) -> set[int]:
    """The guest-physical regions *workload* dirties in *epoch* — the
    epoch-sampled equivalent of draining a PML log.

    Mirrors :func:`repro.sim.engine.build_segments`: each access phase
    touches the first ``hot_fraction`` of its VMA, so the dirty GVA range
    is known without replaying accesses; it is folded through the guest
    page table to guest-physical regions.
    """
    table = vm.guest.table(PROCESS)
    regions: set[int] = set()
    for phase in workload.access_phases(epoch):
        if phase.vma not in vm.address_space:
            continue
        vma = vm.address_space.vma(phase.vma)
        hot_pages = max(1, int(vma.npages * phase.hot_fraction))
        first = vma.start // PAGES_PER_HUGE
        last = (vma.start + hot_pages - 1) // PAGES_PER_HUGE
        for vregion in range(first, last + 1):
            if table.is_huge(vregion):
                target = table.huge_target(vregion)
                if target is not None:
                    regions.add(target)
                continue
            for _, gpn in table.region_items(vregion):
                regions.add(gpn // PAGES_PER_HUGE)
    return regions


class PressureController:
    """One host's watermark-driven reclaim ladder."""

    def __init__(
        self, platform: Platform, config: PressureConfig, salt: int = 0
    ) -> None:
        self.platform = platform
        self.config = config
        self.wse = WorkingSetEstimator(
            decay=config.wse_decay, hot_threshold=config.hot_threshold
        )
        self.device = SwapDevice(
            seed=config.seed + salt, jitter=config.swap_jitter
        )
        self.victims = make_victim_policy(config.victim_policy)
        #: Controller-owned balloons, separate from any tenant-owned
        #: driver; victim selection matches the swap policy so the
        #: lru-cold vs alignment-aware contrast is coherent end to end.
        self._alignment_aware = config.victim_policy != "lru-cold"
        self._balloons: dict[int, BalloonDriver] = {}
        self._ksm = (
            KsmDaemon(
                platform,
                mergeable_fraction=config.ksm_mergeable_fraction,
                break_huge=False,
                seed=config.seed,
            )
            if config.ksm_budget > 0
            else None
        )
        self._epoch = 0
        self.pressured_epochs = 0
        self._was_pressured = False
        self.emergency_reclaims = 0
        self.swap_demotions = 0
        self.swap_aligned_demotions = 0
        #: Emergency hook: a failing host base-frame allocation calls
        #: back into the ladder's swap rung before giving up.
        platform.host.reclaimer = self._emergency_reclaim

    # ------------------------------------------------------------------
    # Dirty logging (engine-facing)
    # ------------------------------------------------------------------

    def log_dirty(
        self,
        vm: VM,
        workload: Workload,
        epoch: int,
        workload_epoch: int,
    ) -> None:
        """Fold one workload-epoch's dirty set into the estimator.

        *workload_epoch* selects the access phases (a fleet tenant's own
        epoch count differs from the fleet epoch); heat is stamped with
        *epoch*, the clock decay runs on.
        """
        self.wse.log_dirty_regions(
            vm.id,
            dirty_regions(self.platform, vm, workload, workload_epoch),
            epoch,
        )

    # ------------------------------------------------------------------
    # Aggregate accounting (record/view-facing)
    # ------------------------------------------------------------------

    @property
    def ballooned_pages(self) -> int:
        return sum(b.inflated_pages for b in self._balloons.values())

    @property
    def demoted_huge_pages(self) -> int:
        """Huge EPT entries the ladder splintered (balloon + swap rungs)."""
        return self.swap_demotions + sum(
            b.demoted_huge_pages for b in self._balloons.values()
        )

    @property
    def demoted_aligned_huge_pages(self) -> int:
        """Well-aligned huge pages the ladder destroyed — the cost the
        alignment-aware policy exists to minimise."""
        return self.swap_aligned_demotions + sum(
            b.demoted_aligned_huge_pages for b in self._balloons.values()
        )

    @property
    def merged_pages(self) -> int:
        return 0 if self._ksm is None else self._ksm.merged_pages

    def pressure_signal(self) -> float:
        """Normalised pressure in [0, 1] for :class:`HostView`: 0 above
        the low watermark, 1 at or below critical, linear between."""
        memory = self.platform.memory
        frac = memory.free_pages / memory.total_pages
        config = self.config
        if frac >= config.watermark_low:
            return 0.0
        if frac <= config.watermark_critical:
            return 1.0
        span = config.watermark_low - config.watermark_critical
        return (config.watermark_low - frac) / span

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def forget_vm(self, vm_id: int) -> None:
        """Drop a departing VM's pressure state (call while the VM is
        still attached so balloon deflation can return its pages)."""
        balloon = self._balloons.pop(vm_id, None)
        if balloon is not None:
            balloon.deflate()
        self.device.drop_vm(vm_id)
        self.wse.forget_vm(vm_id)

    # ------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------

    def run(self, epoch: int) -> None:
        """One pressured-epoch pass; called from the engines' daemon
        phase, after workloads have run."""
        if not self.config.enabled:
            return
        self._epoch = epoch
        with obs.span("pressure.scan"):
            self._run(epoch)

    def _run(self, epoch: int) -> None:
        with obs.span("swap.in"):
            swapped_in = self._reconcile_swap_ins()
        if swapped_in:
            obs.emit("swap.in", pages=swapped_in)
        memory = self.platform.memory
        config = self.config
        total = memory.total_pages
        if memory.free_pages >= int(config.watermark_low * total):
            if self._was_pressured:
                # Transition-only recovery record, so stream consumers
                # (the oscillation watchdog) see the ladder disengage.
                self._was_pressured = False
                obs.emit(
                    "pressure.watermark",
                    level="ok",
                    free_pages=memory.free_pages,
                )
            if memory.free_pages >= int(config.watermark_high * total):
                self._deflate_all()
            return
        self._was_pressured = True
        self.pressured_epochs += 1
        critical = memory.free_pages < int(config.watermark_critical * total)
        obs.count("pressure.epochs")
        obs.emit(
            "pressure.watermark",
            level="critical" if critical else "low",
            free_pages=memory.free_pages,
        )
        target = int(config.watermark_high * total)
        self._balloon_rung(target)
        if self._ksm is not None and memory.free_pages < target:
            merged = self._ksm.scan(budget=config.ksm_budget)
            if merged:
                obs.count("pressure.ksm_merged_pages", merged)
        if memory.free_pages < target:
            with obs.span("swap.out"):
                pages, demoted, aligned = self._swap_rung(
                    epoch, target, critical
                )
            if pages:
                obs.emit(
                    "swap.out",
                    pages=pages,
                    demoted_huge=demoted,
                    demoted_aligned=aligned,
                )
            if aligned:
                obs.emit("pressure.demote", aligned=aligned)

    def _reconcile_swap_ins(self) -> int:
        """Demand swap-ins: any swapped page the guest re-touched this
        epoch (it is EPT-translated again) came back through a synchronous
        device read; charge the stall to the tenant."""
        total = 0
        for vm_id in sorted(self.platform.vms):
            ept = self.platform.ept(vm_id)
            vm = self.platform.vms[vm_id]
            cycles = 0.0
            pages = 0
            for gpn in self.device.swapped(vm_id):
                if ept.translate(gpn) is not None:
                    cycles += self.device.swap_in(vm_id, gpn)
                    pages += 1
            if pages:
                vm.guest.ledger.charge("swap_in", cycles, count=pages)
                obs.count("pressure.swap_in_pages", pages)
                total += pages
        return total

    def _deflate_all(self) -> None:
        for vm_id in sorted(self._balloons):
            released = self._balloons[vm_id].deflate()
            if released:
                obs.count("pressure.balloon_deflated_pages", released)

    def _balloon_rung(self, target: int) -> None:
        memory = self.platform.memory
        config = self.config
        for vm_id in sorted(self.platform.vms):
            deficit = target - memory.free_pages
            if deficit <= 0:
                return
            vm = self.platform.vms[vm_id]
            balloon = self._balloons.get(vm_id)
            if balloon is None:
                balloon = BalloonDriver(
                    self.platform, vm, alignment_aware=self._alignment_aware
                )
                self._balloons[vm_id] = balloon
            cap = int(vm.guest_pages * config.balloon_cap)
            room = cap - balloon.inflated_pages
            want = min(config.balloon_step, room, deficit)
            if want <= 0:
                continue
            reclaimed = balloon.inflate(want)
            if reclaimed:
                obs.count("pressure.balloon_reclaimed_pages", reclaimed)

    def _swap_rung(
        self, epoch: int, target: int, critical: bool
    ) -> tuple[int, int, int]:
        memory = self.platform.memory
        budget = self.config.swap_batch
        pages = demoted = aligned = 0
        ordered = self.victims.order(self._candidates(epoch), critical)
        for candidate in ordered:
            if memory.free_pages >= target or pages >= budget:
                break
            freed, was_huge, was_aligned = self._swap_out_region(candidate)
            pages += freed
            demoted += was_huge
            aligned += was_aligned
        if pages:
            obs.count("pressure.swap_out_pages", pages)
        return pages, demoted, aligned

    def _candidates(self, epoch: int) -> list[VictimCandidate]:
        """Every EPT-backed guest-physical region, classified."""
        out: list[VictimCandidate] = []
        for vm_id in sorted(self.platform.vms):
            vm = self.platform.vms[vm_id]
            ept = self.platform.ept(vm_id)
            guest_table = vm.guest.table(PROCESS)
            guest_huge_targets = {
                gp for _, gp in guest_table.huge_mappings()
            }
            huge_regions = {region for region, _ in ept.huge_mappings()}
            backed: dict[int, int] = {
                region: PAGES_PER_HUGE for region in huge_regions
            }
            for region in ept.populated_regions():
                backed[region] = ept.region_population(region)
            for region in sorted(backed):
                if region in huge_regions:
                    backing = (
                        BACKING_ALIGNED_HUGE
                        if region in guest_huge_targets
                        else BACKING_MISALIGNED_HUGE
                    )
                else:
                    backing = BACKING_BASE
                heat = self.wse.heat(vm_id, region, epoch)
                out.append(
                    VictimCandidate(
                        vm_id=vm_id,
                        gpregion=region,
                        backing=backing,
                        heat=heat,
                        hot=heat >= self.wse.hot_threshold,
                        backed_pages=backed[region],
                    )
                )
        return out

    def _swap_out_region(
        self, candidate: VictimCandidate
    ) -> tuple[int, int, int]:
        """Evict one region to the swap device; returns (pages freed,
        huge entries demoted, well-aligned entries demoted)."""
        host = self.platform.host
        vm_id, gpregion = candidate.vm_id, candidate.gpregion
        if vm_id not in self.platform.vms:  # departed mid-pass
            return 0, 0, 0
        ept = self.platform.ept(vm_id)
        demoted = aligned = 0
        if ept.is_huge(gpregion):
            host.demote(vm_id, gpregion)
            demoted = 1
            self.swap_demotions += 1
            if candidate.backing == BACKING_ALIGNED_HUGE:
                aligned = 1
                self.swap_aligned_demotions += 1
        mappings = host.release_base(vm_id, gpregion)
        if not mappings:
            return 0, demoted, aligned
        # The device sees the pages in ascending order, one at a time, so
        # its latency draws and the ledgers' sums keep their order.
        device = self.device
        guest_ledger = self.platform.vms[vm_id].guest.ledger
        cycles = 0.0
        for gpn in sorted(mappings):
            if device.contains(vm_id, gpn):
                # Swapped out earlier, demand-faulted back in, and the
                # swap-in has not been reconciled yet (this pass can run
                # mid-epoch via emergency reclaim): settle the pending
                # swap-in before writing the page out again.
                guest_ledger.charge("swap_in", device.swap_in(vm_id, gpn))
                obs.count("pressure.swap_in_pages")
            cycles += device.swap_out(vm_id, gpn)
        freed = len(mappings)
        host.ledger.charge("swap_out", cycles, count=freed, sync=False)
        return freed, demoted, aligned

    # ------------------------------------------------------------------
    # Emergency reclaim (allocation-failure callback)
    # ------------------------------------------------------------------

    def _emergency_reclaim(self, npages: int) -> int:
        """Called by the host memory layer when a base-frame allocation
        fails and the placement policy has nothing to give back.  Runs
        the swap rung in critical mode until *npages* are free.  Counters
        only — no events or spans: this can fire from arbitrary fault
        contexts where the telemetry (host, epoch) context is stale.
        """
        if not self.config.enabled:
            return 0
        freed = 0
        ordered = self.victims.order(
            self._candidates(self._epoch), critical=True
        )
        for candidate in ordered:
            if freed >= npages:
                break
            pages, _, _ = self._swap_out_region(candidate)
            freed += pages
        if freed:
            self.emergency_reclaims += 1
            obs.count("pressure.emergency_reclaim_pages", freed)
        return freed
