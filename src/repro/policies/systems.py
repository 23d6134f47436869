"""Concrete huge-page systems the paper evaluates (Section 2.3 / 6.1).

Each paper "system" is a (guest policy, host policy) pair; this module
defines the per-layer policy classes.  The pairings live in
:mod:`repro.policies.registry`.
"""

from __future__ import annotations

from repro.mem.layout import PAGES_PER_HUGE
from repro.policies.base import HugePagePolicy
from repro.policies.coalescing import CoalescingPolicy
from repro.policies.placement import OffsetPlacer
from repro.tlb import costs

__all__ = [
    "BasePagesOnly",
    "HugeAlways",
    "THPPolicy",
    "IngensPolicy",
    "HawkEyePolicy",
    "CAPagingPolicy",
    "RangerPolicy",
]


class BasePagesOnly(HugePagePolicy):
    """Never creates huge pages (one layer of the Host-B-VM-B baseline)."""

    name = "base-only"


class HugeAlways(HugePagePolicy):
    """Backs every eligible fault with a huge page, no coalescing.

    Used as the host side of the *Misalignment* scenario (host allocates
    only huge pages while the guest uses base pages) and, paired with
    itself, for the Host-H-VM-H configuration of Figure 2.
    """

    name = "huge-always"

    def wants_huge_fault(self, client: int, vregion: int) -> bool:
        assert self.layer is not None
        return self.layer.is_region_eligible(client, vregion)


class THPPolicy(CoalescingPolicy):
    """Linux Transparent Huge Pages.

    Synchronous huge faults (``always`` mode) that stall on direct
    compaction when memory is fragmented, plus a slow khugepaged daemon
    that promotes even sparsely-populated regions (``max_ptes_none`` is
    511 by default) by copying into freshly allocated huge pages.
    """

    name = "thp"

    def __init__(self, scan_budget: int = 1, sync_fault_budget: int = 1) -> None:
        super().__init__(
            sync_huge_faults=True,
            util_threshold=1.0 / PAGES_PER_HUGE,  # promote any population
            scan_budget=scan_budget,
            allow_migration=True,
            benefit_sorted=False,
            compaction_stalls=True,
            sync_fault_budget=sync_fault_budget,
            scan_period=2,
        )


class IngensPolicy(CoalescingPolicy):
    """Ingens (OSDI '16): asynchronous, utilization-based promotion.

    No synchronous huge faults (removing THP's fault latency); a dedicated
    daemon promotes regions whose utilization crosses 90%.
    """

    name = "ingens"

    def __init__(self, scan_budget: int = 3, util_threshold: float = 0.9) -> None:
        super().__init__(
            sync_huge_faults=False,
            util_threshold=util_threshold,
            scan_budget=scan_budget,
            allow_migration=True,
            benefit_sorted=False,
        )


class HawkEyePolicy(CoalescingPolicy):
    """HawkEye (ASPLOS '19): benefit-ordered asynchronous promotion.

    Promotes the regions with the highest expected translation benefit
    first (access coverage measured with performance counters; region
    population is the simulator's proxy), at a lower utilization threshold
    than Ingens.  Also deduplicates zero-filled pages, which backfires on
    workloads that later write those pages (the Specjbb anomaly of
    Section 6.2) — modelled by the engine charging copy-on-write faults
    when this flag is set.
    """

    name = "hawkeye"

    def __init__(self, scan_budget: int = 4, util_threshold: float = 0.5) -> None:
        super().__init__(
            sync_huge_faults=False,
            util_threshold=util_threshold,
            scan_budget=scan_budget,
            allow_migration=True,
            benefit_sorted=True,
            deduplicates_zero_pages=True,
        )


class CAPagingPolicy(CoalescingPolicy):
    """CA-paging (ISCA '20), software component.

    Contiguity-aware placement: each VMA is anchored to a large free
    physical region and subsequent faults extend the run contiguously.
    The anchor offset follows the first fault address, so it is generally
    *not* huge-aligned: the contiguity would pay off with range-TLB
    hardware, but yields few in-place-promotable huge regions, which is
    why the paper measures low well-aligned rates for it (Tables 1/3/4).
    Promotion behaviour is THP-like (it runs atop vanilla khugepaged).
    """

    name = "ca-paging"

    def __init__(
        self,
        scan_budget: int = 1,
        host_chunk_regions: int = 16,
        sync_fault_budget: int = 1,
    ) -> None:
        super().__init__(
            sync_huge_faults=True,
            util_threshold=1.0 / PAGES_PER_HUGE,
            scan_budget=scan_budget,
            allow_migration=True,
            compaction_stalls=True,
            sync_fault_budget=sync_fault_budget,
            scan_period=2,
        )
        self.host_chunk_regions = host_chunk_regions
        self._placer: OffsetPlacer | None = None

    def attach(self, layer) -> None:
        super().attach(layer)
        self._placer = OffsetPlacer(
            layer, align_huge=False, range_of=self._range_of
        )

    def _range_of(self, client: int, vpn: int) -> tuple[int, int] | None:
        """The contiguity scope: the VMA in a guest, a fixed chunk of
        guest-physical space in the host."""
        assert self.layer is not None
        if self.layer.virtualized:
            finder = getattr(self.layer, "vma_bounds", None)
            if finder is None:
                return None
            return finder(client, vpn)
        chunk = self.host_chunk_regions * PAGES_PER_HUGE
        start = (vpn // chunk) * chunk
        return (start, start + chunk)

    def choose_base_frames(
        self, client: int, vpn: int, max_pages: int
    ) -> tuple[int | None, int]:
        assert self._placer is not None
        return self._placer.place_run(client, vpn, max_pages)

    def on_unmap(self, client: int, vstart: int, vend: int) -> None:
        if self._placer is not None:
            self._placer.drop_client(client, vstart, vend)


class RangerPolicy(CoalescingPolicy):
    """Translation Ranger (ISCA '19): aggressive contiguity through
    continuous page migration.

    Promotes anything it can reach with a large budget and additionally
    keeps migrating pages to coalesce contiguous runs, paying copy and
    TLB-shoot-down costs that the paper finds negate its benefits in VMs
    (Section 6.2: the only system that *lowers* throughput vs. the
    base-page baseline).
    """

    name = "ranger"

    #: Fraction of the layer's mapped pages re-migrated per scan purely
    #: for contiguity maintenance (Translation Ranger continuously
    #: rearranges memory; the copies and shoot-downs compete with the
    #: workload for memory bandwidth and run synchronously).
    CONTIGUITY_MOVE_FRACTION = 1.0

    def __init__(self, scan_budget: int = 8) -> None:
        super().__init__(
            sync_huge_faults=False,
            util_threshold=1.0 / PAGES_PER_HUGE,
            scan_budget=scan_budget,
            allow_migration=True,
            benefit_sorted=False,
        )

    #: Fraction of huge mappings relocated per scan while assembling
    #: contiguous ranges (minimum a handful).
    HUGE_RELOCATION_FRACTION = 0.35
    HUGE_RELOCATIONS_MIN = 8

    def scan(self, budget: int | None = None) -> int:
        assert self.layer is not None
        promoted = super().scan(budget)
        self._reshuffle_huge_mappings()
        # Contiguity maintenance: migrate pages between regions even when
        # no promotion results.  These moves run while the workload
        # executes, so their shoot-downs and copies are synchronous costs.
        mapped = self.layer.mapped_pages()
        if mapped == 0:
            return promoted
        moves = int(mapped * self.CONTIGUITY_MOVE_FRACTION)
        self.layer.ledger.charge(
            "ranger_contiguity_moves", costs.PAGE_COPY_CYCLES * moves, count=moves
        )
        factor = costs.VIRT_SHOOTDOWN_FACTOR if self.layer.virtualized else 1.0
        self.layer.ledger.charge(
            "tlb_shootdown",
            costs.TLB_SHOOTDOWN_CYCLES * factor * max(1, moves // 64),
            count=max(1, moves // 64),
        )
        return promoted

    def _reshuffle_huge_mappings(self) -> None:
        """Relocate a few huge mappings per scan to grow contiguous runs.

        The relocation keeps this layer's huge page but decouples it from
        whatever the other layer had formed underneath/above it — one
        reason the paper measures the lowest well-aligned rates for
        Ranger.
        """
        assert self.layer is not None
        total_huge = self.layer.huge_mapping_count()
        quota = max(
            self.HUGE_RELOCATIONS_MIN,
            int(total_huge * self.HUGE_RELOCATION_FRACTION),
        )
        moved = 0
        for client in list(self.layer.clients()):
            table = self.layer.table(client)
            for vregion, _ in list(table.huge_mappings()):
                if moved >= quota:
                    return
                if self.layer.relocate_huge(client, vregion):
                    moved += 1
