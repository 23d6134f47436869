"""Gemini's per-layer huge-page policies.

The guest policy combines the enhanced memory allocator (EMA) — huge-aligned
offset placement preferring booked and bucketed regions — with low-overhead
coalescing (in-place promotion and huge preallocation only; Gemini avoids
migration except through the targeted promoter).  The host policy is
KVM/THP-like on the EPT but serves booked guest-physical regions with their
reserved huge pages first, so type-1 mis-aligned guest huge pages become
well-aligned the moment the EPT fault arrives.
"""

from __future__ import annotations

from repro.core.booking import BookingTable
from repro.core.bucket import HugeBucket
from repro.mem.layout import PAGES_PER_HUGE, is_huge_aligned
from repro.policies.base import EpochTelemetry
from repro.policies.coalescing import CoalescingPolicy
from repro.policies.placement import OffsetPlacer

__all__ = ["GeminiGuestPolicy", "GeminiHostPolicy"]


class GeminiGuestPolicy(CoalescingPolicy):
    """Guest layer: EMA placement + booking/bucket-backed huge faults +
    in-place-only background promotion with huge preallocation."""

    name = "gemini-guest"

    def __init__(
        self,
        scan_budget: int = 8,
        prealloc_threshold: int = 256,
        prealloc_fmfi: float = 0.5,
        migration_budget: int = 1,
    ) -> None:
        super().__init__(
            sync_huge_faults=True,
            util_threshold=1.0,
            scan_budget=scan_budget,
            allow_migration=True,
            benefit_sorted=False,
            sync_fault_budget=1,
        )
        self.prealloc_threshold = prealloc_threshold
        self.prealloc_fmfi = prealloc_fmfi
        self.migration_budget = migration_budget
        self._migrations_this_scan = 0
        #: Cross-layer hint, refreshed each epoch by the Gemini runtime:
        #: can the host currently form new huge pages (free huge regions
        #: available)?  When it cannot, promoting guest regions whose
        #: guest-physical target is not already host-huge would only mint
        #: mis-aligned huge pages — Gemini holds back instead (Section 3:
        #: "Gemini does not create huge pages excessively").
        self.host_can_align = True
        self.booking: BookingTable | None = None
        self.bucket: HugeBucket | None = None
        self._placer: OffsetPlacer | None = None
        self._fmfi = 0.0
        self.preallocated_pages = 0

    def bind(self, booking: BookingTable | None, bucket: HugeBucket | None) -> None:
        """Attach the Gemini runtime's per-VM components; either may be
        None when the corresponding mechanism is ablated (Figure 16)."""
        self.booking = booking
        self.bucket = bucket

    def attach(self, layer) -> None:
        super().attach(layer)
        self._placer = OffsetPlacer(
            layer,
            align_huge=True,
            range_of=self._vma_bounds,
            preferred_anchor=self._preferred_anchor,
            claim_hook=self._claim_reserved,
        )

    # ------------------------------------------------------------------
    # Fault path: huge faults only from aligned-by-construction regions
    # ------------------------------------------------------------------

    def wants_huge_fault(self, client: int, vregion: int) -> bool:
        assert self.layer is not None
        if not self.layer.is_region_eligible(client, vregion):
            return False
        if self._reserved_region_available():
            # Aligned-by-construction huge pages (booked/bucketed regions)
            # are always worth serving -- no budget applies.
            return True
        # Otherwise fall back to the THP behaviour Gemini runs on top of
        # (rate-limited fault-time huge allocation from the buddy).
        return super().wants_huge_fault(client, vregion)

    def _reserved_region_available(self) -> bool:
        if self.booking is not None and self.booking.untouched_regions():
            return True
        return self.bucket is not None and bool(self.bucket.untouched_regions())

    def alloc_huge_region(self, client: int, vregion: int) -> int | None:
        # Prefer regions that are already backed by host huge pages (booked
        # targets and bucketed well-aligned pages): huge pages formed there
        # are well-aligned by construction.  Only then fall back to the
        # rate-limited THP path Gemini runs on top of.
        if self.booking is not None:
            pregion = self.booking.claim_region()
            if pregion is not None:
                return pregion
        if self.bucket is not None:
            pregion = self.bucket.take()
            if pregion is not None:
                return pregion
        return super().alloc_huge_region(client, vregion)

    # ------------------------------------------------------------------
    # EMA placement
    # ------------------------------------------------------------------

    def choose_base_frames(
        self, client: int, vpn: int, max_pages: int
    ) -> tuple[int | None, int]:
        assert self._placer is not None
        if self.booking is None:
            # EMA/HB ablated: every page takes the default allocator.
            return (None, max_pages)
        return self._placer.place_run(client, vpn, max_pages)

    def _vma_bounds(self, client: int, vpn: int) -> tuple[int, int] | None:
        assert self.layer is not None
        if self.layer.vma_bounds is None:
            return None
        return self.layer.vma_bounds(client, vpn)

    def _preferred_anchor(self, client: int, vpn: int) -> int | None:
        if self.booking is not None:
            untouched = self.booking.untouched_regions()
            if untouched:
                return untouched[0]
        if self.bucket is not None:
            untouched = self.bucket.untouched_regions()
            if untouched:
                return untouched[0]
        return None

    def _claim_reserved(self, frame: int) -> bool:
        if self.booking is not None and self.booking.claim_page(frame):
            return True
        return self.bucket is not None and self.bucket.claim_page(frame)

    # ------------------------------------------------------------------
    # Background promotion: in-place plus huge preallocation
    # ------------------------------------------------------------------

    def _promote(self, client: int, vregion: int) -> bool:
        assert self.layer is not None
        if not self._alignable(client, vregion):
            return False
        if self.layer.try_promote_in_place(client, vregion):
            return True
        # Stray compaction and huge preallocation are EMA machinery: they
        # only run when EMA/HB is enabled (Figure 16 ablation accounting).
        if self.booking is not None:
            if self._try_stray_fix(client, vregion):
                return True
            if self._try_prealloc_promote(client, vregion):
                return True
        # Gemini runs on top of the kernel's page coalescing: regions the
        # EMA could not lay out alignably are still promoted by migration
        # (rate-limited); MHPS then directs the host to back them with
        # huge pages, turning them into well-aligned pairs.
        if self._migrations_this_scan < self.migration_budget:
            if self.layer.promote_with_migration(client, vregion):
                self._migrations_this_scan += 1
                return True
        return False

    def _alignable(self, client: int, vregion: int) -> bool:
        """Would a huge page formed here become well-aligned?

        True when the region's guest-physical target is already backed by
        a host huge page, or when the host still has capacity to form one
        (MHPS will direct it there).  Otherwise promotion would only mint
        a permanently mis-aligned huge page.
        """
        assert self.layer is not None
        if self.host_can_align:
            return True
        probe = self.layer.alignment_probe
        if probe is None:
            return True
        target = self._majority_region(client, vregion)
        if target is None:
            table = self.layer.table(client)
            mappings = table.region_items(vregion)
            if not mappings:
                return False
            regions = {pfn // PAGES_PER_HUGE for _, pfn in mappings}
            return any(probe(pregion) for pregion in regions)
        return probe(target)

    def scan(self, budget: int | None = None) -> int:
        self._migrations_this_scan = 0
        return super().scan(budget)

    def _candidates(self) -> list[tuple[int, int, int]]:
        assert self.layer is not None
        found = []
        for client in self.layer.clients():
            table = self.layer.table(client)
            for vregion in list(table.populated_regions()):
                population = table.region_population(vregion)
                if population < self.prealloc_threshold:
                    continue
                if not self.layer.is_region_eligible(client, vregion):
                    continue
                found.append((client, vregion, population))
        return found

    #: Maximum stray pages worth compacting back per region.
    miss_fix_limit = 24

    def _try_stray_fix(self, client: int, vregion: int) -> bool:
        """Compact stray pages back to their EMA-intended frames.

        The EMA tolerates occupied target frames (transient kernel
        objects) by letting the default allocator place those pages; once
        the transient holder releases the frame, pulling the strays back
        restores an in-place-promotable layout.
        """
        assert self.layer is not None
        pregion = self._majority_region(client, vregion)
        if pregion is None:
            return False
        if not self.layer.compact_region(client, vregion, pregion):
            return False
        table = self.layer.table(client)
        if table.region_population(vregion) == PAGES_PER_HUGE:
            return self.layer.try_promote_in_place(client, vregion)
        return self._try_prealloc_promote(client, vregion)

    def _majority_region(self, client: int, vregion: int) -> int | None:
        """The aligned physical region most of this virtual region's pages
        already occupy at consistent offsets, if a clear majority exists.
        A tie goes to the candidate of the earliest-mapped page."""
        assert self.layer is not None
        table = self.layer.table(client)
        vbase = vregion * PAGES_PER_HUGE
        # pbase = pfn - (vpn - vbase) = vbase + delta, so each huge-aligned
        # delta names one candidate region and its count is the page count.
        counts = {
            delta: count
            for delta, count in table.region_deltas(vregion).items()
            if delta % PAGES_PER_HUGE == 0 and delta >= -vbase
        }
        if not counts:
            return None
        best_count = max(counts.values())
        if best_count < table.region_population(vregion) - self.miss_fix_limit:
            return None
        tied = [delta for delta, count in counts.items() if count == best_count]
        best = tied[0]
        if len(tied) > 1:
            # The summary does not record which page came first: scan the
            # region in mapping order for the first page at a tied delta.
            best = next(
                pfn - vpn for vpn, pfn in table.region_items(vregion)
                if pfn - vpn in tied
            )
        return (vbase + best) // PAGES_PER_HUGE

    def _try_prealloc_promote(self, client: int, vregion: int) -> bool:
        """EMA huge preallocation: when the mapped pages already sit at
        consistent huge-aligned offsets and only a few are missing,
        pre-install the missing pages and promote in place."""
        assert self.layer is not None
        if self._fmfi > self.prealloc_fmfi:
            return False
        table = self.layer.table(client)
        deltas = table.region_deltas(vregion)
        # One delta means every mapped page sits at one offset; an aligned,
        # non-negative one puts them all in place inside region pbase.
        if len(deltas) != 1:
            return False
        ((delta, population),) = deltas.items()
        if population < self.prealloc_threshold or population >= PAGES_PER_HUGE:
            return False
        vbase = vregion * PAGES_PER_HUGE
        pbase = vbase + delta
        if pbase < 0 or not is_huge_aligned(pbase):
            return False
        mapped = table.region_mappings(vregion)
        missing = [
            vpn for vpn in range(vbase, vbase + PAGES_PER_HUGE) if vpn not in mapped
        ]
        if not all(self.layer.memory.is_free(vpn + delta) for vpn in missing):
            return False
        for vpn in missing:
            if not self.layer.map_prealloc(client, vpn, vpn + delta):
                return False
            self.preallocated_pages += 1
        return self.layer.try_promote_in_place(client, vregion)

    # ------------------------------------------------------------------
    # Free / pressure / feedback
    # ------------------------------------------------------------------

    def on_region_freed(self, client: int, pregion: int, aligned: bool) -> bool:
        if aligned and self.bucket is not None:
            return self.bucket.offer(pregion)
        return False

    def on_pressure(self) -> int:
        released = 0
        if self.bucket is not None:
            released += self.bucket.release_all()
        if self.booking is not None:
            released += self.booking.release_all()
        return released

    def on_epoch(self, telemetry: EpochTelemetry) -> None:
        super().on_epoch(telemetry)
        self._fmfi = telemetry.fmfi

    def on_unmap(self, client: int, vstart: int, vend: int) -> None:
        if self._placer is not None:
            self._placer.drop_client(client, vstart, vend)


class GeminiHostPolicy(CoalescingPolicy):
    """Host layer: KVM/THP-style EPT backing that honours bookings.

    A booked guest-physical region (a type-1 mis-aligned guest huge page)
    is served with its reserved huge host page on the first EPT fault,
    aligning it immediately; everything else follows THP behaviour.
    """

    name = "gemini-host"

    def __init__(self, scan_budget: int = 3) -> None:
        super().__init__(
            sync_huge_faults=False,  # only booked regions huge-fault
            util_threshold=0.9,
            scan_budget=scan_budget,
            allow_migration=True,
            # Benefit-sorted: fully-populated EPT regions first.  Scarce
            # huge host pages then go to the guest's dense regions (which a
            # guest huge page can match) instead of to stale or pinned
            # regions that no guest huge page will ever cover; the
            # MHPS-steered promoter handles the precisely-targeted cases.
            benefit_sorted=True,
            compaction_stalls=False,
        )
        self.booking: BookingTable | None = None
        #: Live guest-physical regions per VM (fed by MHPS each epoch):
        #: the generic scan skips stale EPT regions whose guest memory was
        #: freed, so huge host pages are not wasted where no guest huge
        #: page can ever form.
        self.live_regions: dict[int, set[int]] = {}
        #: Cross-layer movability probe (wired by the Gemini runtime):
        #: can the guest-physical region ever be covered by one guest huge
        #: page?  Regions holding unmovable guest frames (kernel objects,
        #: the fragmenter's pins) cannot, so backing them with a huge host
        #: page would waste it.
        self.guest_alignable = None

    def bind(self, booking: BookingTable) -> None:
        self.booking = booking

    def _candidates(self):
        candidates = super()._candidates()
        filtered = []
        for client, vregion, population in candidates:
            live = self.live_regions.get(client) if self.live_regions else None
            if live is not None and vregion not in live:
                continue
            if self.guest_alignable is not None and not self.guest_alignable(
                client, vregion
            ):
                continue
            filtered.append((client, vregion, population))
        return filtered

    def wants_huge_fault(self, client: int, vregion: int) -> bool:
        # Huge EPT faults are taken only for booked regions (type-1
        # mis-aligned guest huge pages): blind fault-time huge backing
        # would waste scarce huge host pages on guest-physical regions
        # that can never form a guest huge page.
        return bool(
            self.booking is not None
            and self.booking.has_purpose((client, vregion))
        )

    def alloc_huge_region(self, client: int, vregion: int) -> int | None:
        if self.booking is not None:
            pregion = self.booking.claim_region(purpose=(client, vregion))
            if pregion is not None:
                return pregion
        return super().alloc_huge_region(client, vregion)

    def on_pressure(self) -> int:
        if self.booking is not None:
            return self.booking.release_all()
        return 0
