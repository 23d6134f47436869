"""MemoryLayer: one level of address-translation management.

The simulator runs two instances of :class:`MemoryLayer`:

* the **guest layer** — per-VM: maps guest-virtual pages (GVA) to
  guest-physical frames (GPA) through process page tables, allocating GPAs
  from the VM's guest-physical memory;
* the **host layer** — maps guest-physical frames (GPA) to host-physical
  frames (HPA) through per-VM tables (the EPT), allocating HPAs from host
  memory.

Both layers run a :class:`repro.policies.base.HugePagePolicy` that decides
huge-page faults, frame placement and background promotion.  The layer
provides the mechanism — demand faults, in-place promotion, migration-based
promotion (khugepaged-style copy into a fresh huge page), compaction into a
*specific* target region (the primitive Gemini's promoter needs), demotion
and unmapping — and charges every action to a :class:`CostLedger`.

A reverse map (frame -> mapping) is maintained so policies and the
misaligned-huge-page scanner can attribute physical regions to their users,
mirroring the kernel's rmap.  Huge mappings have one entry per physical
region.  Base mappings are kept as one record per physical 2 MiB region
(:class:`_FrameRegion`), never per frame:

* **512 owner slots** — each frame's owner as the key ``(client, vpn -
  pfn)``, which every frame of a mapped run shares, or None.  Mapping a
  run and demoting a region are slice writes;
* **the occupancy word** — bit ``pfn - pregion * 512`` set iff the frame
  has an owner, which promoter scans walk instead of probing 512 frames;
* **the owner counts** ``{(client, vregion): frames}``, which give
  Gemini's promoters a region's dominant owner without a scan.

A KSM-shared frame keeps the owner it had when other pages were merged
into it.  In-place promotion refuses a region holding a shared frame, as
khugepaged refuses KSM pages, so a huge mapping never covers one; it maps
exactly one physical region's frames, so it drops that region's record
whole.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro import obs
from repro.mem.buddy import AllocationError
from repro.mem.layout import HUGE_ORDER, PAGES_PER_HUGE, contiguous_runs
from repro.mem.physmem import PhysicalMemory
from repro.metrics.counters import CostLedger
from repro.paging.pagetable import PageTable
from repro.policies.base import HugePagePolicy
from repro.tlb import costs

__all__ = ["PROCESS", "OutOfMemory", "MemoryLayer"]

#: Client id of the single simulated process inside each VM (the paper runs
#: one workload per VM).
PROCESS = 0

#: Shared empty owner bucket for regions with no base-mapped frames.
_EMPTY_COUNTS: dict[tuple[int, int], int] = {}


class _FrameRegion:
    """The base reverse map of one physical region."""

    __slots__ = ("owners", "bits", "counts")

    def __init__(self) -> None:
        #: per frame offset: the owning run's ``(client, vpn - pfn)``, or
        #: None
        self.owners: list[tuple[int, int] | None] = [None] * PAGES_PER_HUGE
        #: bit ``pfn - pregion * 512`` set iff the frame has an owner
        self.bits = 0
        #: ``{(client, vregion): frames owned}``
        self.counts: dict[tuple[int, int], int] = {}


class OutOfMemory(Exception):
    """Raised when an allocation fails even after reclaim."""


class MemoryLayer:
    """One translation layer: page tables + allocator + policy + accounting."""

    def __init__(
        self,
        name: str,
        memory: PhysicalMemory,
        policy: HugePagePolicy,
        ledger: CostLedger | None = None,
        virtualized: bool = False,
    ) -> None:
        self.name = name
        self.memory = memory
        self.policy = policy
        self.ledger = ledger if ledger is not None else CostLedger(name)
        #: True when TLB shoot-downs on this layer suffer virtualization
        #: amplification (vCPU preemption delaying IPIs; Section 6.2).
        self.virtualized = virtualized
        #: Optional cross-layer callback: is physical region *pregion*
        #: part of a well-aligned huge page?  Wired by the platform; used
        #: to tag freed regions for Gemini's huge bucket.
        self.alignment_probe: Callable[[int], bool] | None = None
        #: Optional eligibility callback: may virtual region (client,
        #: vregion) legitimately be huge-mapped?  In the guest this is "the
        #: region lies fully inside one VMA"; the host backs the whole
        #: guest-physical space, so every region is eligible there.
        self.region_eligible: Callable[[int, int], bool] | None = None
        #: Optional VMA lookup for placement policies: (client, vpn) ->
        #: (vstart, vend) of the enclosing VMA.  Wired by the VM on its
        #: guest layer; stays None in the host layer.
        self.vma_bounds: Callable[[int, int], tuple[int, int] | None] | None = None
        #: Optional last-chance reclaim callback: given a page deficit,
        #: free at least that many frames and return how many were freed.
        #: Wired to the pressure controller's emergency swap-out on host
        #: layers; tried only after the policy's own reclaim fails.
        self.reclaimer: Callable[[int], int] | None = None
        self._tables: dict[int, PageTable] = {}
        #: reverse map for base mappings: physical region -> its record
        #: (regions with at least one owned frame)
        self._rmap: dict[int, _FrameRegion] = {}
        #: reverse map for huge mappings: pregion -> (client, vregion)
        self._rmap_huge: dict[int, tuple[int, int]] = {}
        #: zero-filled bloat introduced by promoting partially-populated
        #: regions: (client, vregion) -> pages
        self._bloat: dict[tuple[int, int], int] = {}
        #: extra references on shared frames (KSM-merged pages): pfn ->
        #: count of *additional* mappings beyond the first.  A shared frame
        #: is only freed when its last reference is released.
        self._frame_refs: dict[int, int] = {}
        #: last refused compaction per virtual region: (client, vregion)
        #: -> (target pregion, blocking vpn).  A hint only: every call
        #: re-checks the page before trusting it.
        self._compact_witness: dict[tuple[int, int], tuple[int, int]] = {}
        policy.attach(self)

    # ------------------------------------------------------------------
    # Tables and translation
    # ------------------------------------------------------------------

    def table(self, client: int) -> PageTable:
        """The page table of *client* (a process in the guest, a VM in the
        host), created on first use."""
        if client not in self._tables:
            self._tables[client] = PageTable(name=f"{self.name}:{client}")
        return self._tables[client]

    def clients(self) -> Iterator[int]:
        yield from self._tables.keys()

    def translate(self, client: int, vpn: int) -> int | None:
        return self.table(client).translate(vpn)

    def owner_of_frame(self, pfn: int) -> tuple[int, int] | None:
        """(client, vpn) base-mapping the frame, if any."""
        pregion = pfn // PAGES_PER_HUGE
        rec = self._rmap.get(pregion)
        if rec is None:
            return None
        key = rec.owners[pfn - pregion * PAGES_PER_HUGE]
        return None if key is None else (key[0], pfn + key[1])

    def owner_of_region(self, pregion: int) -> tuple[int, int] | None:
        """(client, vregion) huge-mapping the physical region, if any."""
        return self._rmap_huge.get(pregion)

    def add_frame_ref(self, pfn: int) -> None:
        """Register an additional mapping of *pfn* (page sharing/KSM)."""
        self._frame_refs[pfn] = self._frame_refs.get(pfn, 0) + 1

    def frame_referenced(self, pfn: int) -> bool:
        """Does *pfn* have a base reverse-map owner or an extra reference?

        False for a shared frame whose owner has unmapped it while one
        merged page still maps it: the owner's entry is gone, and the
        last merged page holds the frame without an extra reference.
        """
        return self.owner_of_frame(pfn) is not None or pfn in self._frame_refs

    def merge_page(self, client: int, vpn: int, shared: int) -> None:
        """KSM merge: remap base page *vpn* onto frame *shared*, which
        keeps its owner and gains a reference, and release the page's own
        frame."""
        table = self.table(client)
        pfn = table.unmap_base(vpn)
        self._drop_rmap(pfn, client, vpn)
        self.release_frame(pfn)
        table.map_base(vpn, shared)
        self.add_frame_ref(shared)

    def release_frame(self, pfn: int) -> None:
        """Drop one reference to *pfn*; free it when none remain."""
        refs = self._frame_refs.get(pfn)
        if refs is not None:
            if refs <= 1:
                del self._frame_refs[pfn]
            else:
                self._frame_refs[pfn] = refs - 1
            return
        self.memory.free(pfn, 0)

    def _free_frames_batch(self, pfns) -> None:
        """Batch of :meth:`release_frame`: shared frames drop a reference
        one by one, everything else goes to the buddy batch kernel (buddy
        coalescing is order-independent, so the final state matches the
        sequential releases)."""
        refs = self._frame_refs
        if refs:
            direct: list[int] = []
            for pfn in pfns:
                if pfn in refs:
                    self.release_frame(pfn)
                else:
                    direct.append(pfn)
            self.memory.free_frames(direct)
        else:
            self.memory.free_frames(list(pfns))

    def rmap_bits(self, pregion: int) -> int:
        """512-bit occupancy word of *pregion*: bit set iff the frame has a
        base reverse-map entry."""
        rec = self._rmap.get(pregion)
        return 0 if rec is None else rec.bits

    def region_owner_counts(self, pregion: int) -> dict[tuple[int, int], int]:
        """Read-only ``{(client, vregion): frames}`` owner summary of
        physical region *pregion*."""
        rec = self._rmap.get(pregion)
        return _EMPTY_COUNTS if rec is None else rec.counts

    def base_owned_in_region(self, pregion: int) -> int:
        """Frames of *pregion* with a base reverse-map entry."""
        rec = self._rmap.get(pregion)
        return 0 if rec is None else sum(rec.counts.values())

    def _set_rmap(self, pfn: int, client: int, vpn: int) -> None:
        self._set_rmap_run(pfn, client, vpn, 1)

    def _set_rmap_run(self, pfn: int, client: int, vpn: int, count: int) -> None:
        """Make ``(client, vpn + i)`` the owner of frame ``pfn + i`` for
        the contiguous, same-virtual-region run: one slice write per
        physical region."""
        key = (client, vpn - pfn)
        owner = (client, vpn // PAGES_PER_HUGE)
        rmap = self._rmap
        pos = pfn
        end = pfn + count
        while pos < end:
            pregion = pos // PAGES_PER_HUGE
            first = pregion * PAGES_PER_HUGE
            lo = pos - first
            hi = min(end, first + PAGES_PER_HUGE) - first
            rec = rmap.get(pregion)
            if rec is None:
                rec = rmap[pregion] = _FrameRegion()
            rec.owners[lo:hi] = [key] * (hi - lo)
            rec.bits |= ((1 << (hi - lo)) - 1) << lo
            counts = rec.counts
            counts[owner] = counts.get(owner, 0) + hi - lo
            pos = first + hi

    def _drop_rmap_region(
        self, client: int, vregion: int, mappings: dict[int, int]
    ) -> None:
        """Remove the reverse-map entries that name one of *mappings*
        (base mappings of ``(client, vregion)``; shared frames keep their
        original owner's entry).  Each run of consecutive pages on
        consecutive frames is compared and cleared as a slice, and each
        physical region's word and counts are updated once."""
        cleared: dict[int, int] = {}
        run_vpn = run_pfn = length = 0
        for vpn, pfn in mappings.items():
            if length and vpn == run_vpn + length and pfn == run_pfn + length:
                length += 1
                continue
            if length:
                self._clear_run(client, run_vpn, run_pfn, length, cleared)
            run_vpn, run_pfn, length = vpn, pfn, 1
        if length:
            self._clear_run(client, run_vpn, run_pfn, length, cleared)
        owner = (client, vregion)
        rmap = self._rmap
        for pregion, word in cleared.items():
            rec = rmap[pregion]
            left = rec.counts[owner] - word.bit_count()
            if left:
                rec.counts[owner] = left
            else:
                del rec.counts[owner]
            rec.bits ^= word
            if not rec.bits:
                del rmap[pregion]

    def _clear_run(
        self, client: int, vpn: int, pfn: int, count: int, cleared: dict[int, int]
    ) -> None:
        """Clear the owner slots of frames ``pfn + i`` that name ``(client,
        vpn + i)``, adding the cleared bits to each physical region's
        word in *cleared*."""
        key = (client, vpn - pfn)
        rmap = self._rmap
        pos = pfn
        end = pfn + count
        while pos < end:
            pregion = pos // PAGES_PER_HUGE
            first = pregion * PAGES_PER_HUGE
            lo = pos - first
            hi = min(end, first + PAGES_PER_HUGE) - first
            pos = first + hi
            rec = rmap.get(pregion)
            if rec is None:
                continue
            owners = rec.owners
            if owners[lo:hi] == [key] * (hi - lo):
                owners[lo:hi] = [None] * (hi - lo)
                word = ((1 << (hi - lo)) - 1) << lo
            else:
                word = 0
                for offset in range(lo, hi):
                    if owners[offset] == key:
                        owners[offset] = None
                        word |= 1 << offset
            if word:
                cleared[pregion] = cleared.get(pregion, 0) | word

    def _drop_rmap(self, pfn: int, client: int, vpn: int) -> None:
        """Remove the reverse-map entry if it names this mapping (shared
        frames keep their original owner's entry)."""
        self._drop_rmap_region(client, vpn // PAGES_PER_HUGE, {vpn: pfn})

    def is_region_eligible(self, client: int, vregion: int) -> bool:
        """May (client, vregion) be covered by one huge mapping?"""
        if self.region_eligible is None:
            return True
        return self.region_eligible(client, vregion)

    # ------------------------------------------------------------------
    # Fault path
    # ------------------------------------------------------------------

    def fault(self, client: int, vpn: int, full_region: bool = True) -> int:
        """Demand-fault *vpn*; return the frame it is mapped to.

        *full_region* says whether the whole surrounding 2 MiB virtual
        region is fault-eligible (inside one VMA), which gates huge faults.
        """
        table = self.table(client)
        pfn = table.translate(vpn)
        if pfn is not None:
            return pfn
        vregion = vpn // PAGES_PER_HUGE
        if full_region:
            pregion = self._huge_fault(table, client, vregion)
            if pregion is not None:
                self.ledger.charge("huge_fault", costs.HUGE_FAULT_CYCLES)
                return pregion * PAGES_PER_HUGE + vpn % PAGES_PER_HUGE
        frame, _ = self.policy.choose_base_frames(client, vpn, 1)
        if frame is None:
            frame = self.alloc_base_frame()
        table.map_base(vpn, frame)
        self._set_rmap(frame, client, vpn)
        self.ledger.charge("base_fault", costs.BASE_FAULT_CYCLES)
        return frame

    def _huge_fault(self, table: PageTable, client: int, vregion: int) -> int | None:
        """Serve a fault on *vregion* with a whole huge page when the
        region is still empty and the policy wants and provides one;
        return the mapped physical region, or None for a base fault."""
        if table.region_population(vregion) or not self.policy.wants_huge_fault(
            client, vregion
        ):
            return None
        pregion = self.policy.alloc_huge_region(client, vregion)
        if pregion is not None:
            table.map_huge(vregion, pregion)
            self._rmap_huge[pregion] = (client, vregion)
        return pregion

    def fault_range(
        self,
        client: int,
        start: int,
        npages: int,
        full_region_of: Callable[[int], bool] | None = None,
    ) -> list[tuple[int, int, int, str]]:
        """Batched :meth:`fault` over ``[start, start + npages)``.

        Produces the exact same mappings, allocator state and ledger totals
        as *npages* successive ``fault`` calls, but in O(spans) Python-level
        work instead of O(pages).  *full_region_of* maps a virtual region to
        the ``full_region`` flag a per-page fault would have received
        (defaults to True everywhere, matching the host layer).

        Returns ascending spans ``(vpn, pfn, count, kind)`` covering every
        page of the range.  *kind* tells the caller which pages would have
        *triggered* a per-page fault (and hence a fault notification):

        * ``"mapped"`` — pre-existing mappings, no page triggers;
        * ``"base"`` — demand base faults, every page triggers;
        * ``"huge"`` — one huge fault: only the span's first page triggers
          (per-page faulting would find the rest already mapped).  Huge
          spans are never merged so each one is exactly one trigger.
        """
        table = self.table(client)
        end = start + npages
        spans: list[tuple[int, int, int, str]] = []

        def emit(vpn: int, pfn: int, count: int, kind: str) -> None:
            if spans and kind != "huge":
                lvpn, lpfn, lcount, lkind = spans[-1]
                if (
                    lkind == kind
                    and lvpn + lcount == vpn
                    and lpfn + lcount == pfn
                ):
                    spans[-1] = (lvpn, lpfn, lcount + count, kind)
                    return
            spans.append((vpn, pfn, count, kind))

        base_faults = 0
        huge_faults = 0
        pos = start
        while pos < end:
            run = table.mapped_run(pos, end)
            if run is not None:
                emit(pos, run[0], run[1], "mapped")
                pos += run[1]
                continue
            vregion = pos // PAGES_PER_HUGE
            region_end = min(end, (vregion + 1) * PAGES_PER_HUGE)
            # The huge-fault gate can only open on the first fault of a
            # region: every later page of the segment sees a non-zero
            # population, exactly as the per-page path would.
            if full_region_of is None or full_region_of(vregion):
                pregion = self._huge_fault(table, client, vregion)
                if pregion is not None:
                    huge_faults += 1
                    first = pregion * PAGES_PER_HUGE + (
                        pos - vregion * PAGES_PER_HUGE
                    )
                    emit(pos, first, region_end - pos, "huge")
                    pos = region_end
                    continue
            while pos < region_end:
                run = table.mapped_run(pos, region_end)
                if run is not None:
                    emit(pos, run[0], run[1], "mapped")
                    pos += run[1]
                    continue
                run_end = table.unmapped_run_end(pos, region_end)
                while pos < run_end:
                    frame, count = self.policy.choose_base_frames(
                        client, pos, run_end - pos
                    )
                    if frame is None:
                        if self.memory.free_pages >= count:
                            # Order-0 allocation cannot fail while frames
                            # remain, so the batch kernel reproduces the
                            # per-page alloc sequence exactly; the frames
                            # arrive in allocation order and pair with
                            # ascending vpns just as the loop would.
                            # Short of frames, the per-page loop below
                            # runs the reclaim path at the exact page.
                            frames = self.memory.alloc_frames(count)
                            for rstart, rcount in contiguous_runs(frames):
                                table.map_base_run(pos, rstart, rcount)
                                self._set_rmap_run(rstart, client, pos, rcount)
                                emit(pos, rstart, rcount, "base")
                                pos += rcount
                        else:
                            for _ in range(count):
                                frame = self.alloc_base_frame()
                                table.map_base(pos, frame)
                                self._set_rmap(frame, client, pos)
                                emit(pos, frame, 1, "base")
                                pos += 1
                    else:
                        table.map_base_run(pos, frame, count)
                        self._set_rmap_run(frame, client, pos, count)
                        emit(pos, frame, count, "base")
                        pos += count
                    base_faults += count
        if huge_faults:
            self.ledger.charge(
                "huge_fault",
                costs.HUGE_FAULT_CYCLES * huge_faults,
                count=huge_faults,
            )
        if base_faults:
            self.ledger.charge(
                "base_fault",
                costs.BASE_FAULT_CYCLES * base_faults,
                count=base_faults,
            )
        return spans

    def alloc_base_frame(self) -> int:
        """Allocate one frame, invoking policy reclaim under pressure."""
        try:
            return self.memory.alloc(0)
        except AllocationError:
            released = self.policy.on_pressure()
            if released <= 0 and self.reclaimer is not None:
                released = self.reclaimer(PAGES_PER_HUGE)
            if released <= 0:
                raise OutOfMemory(f"{self.name}: out of memory") from None
            try:
                return self.memory.alloc(0)
            except AllocationError:
                raise OutOfMemory(f"{self.name}: out of memory") from None

    def alloc_huge_region(self) -> int | None:
        """Allocate one huge-aligned 2 MiB region; None when unavailable."""
        try:
            start = self.memory.alloc(HUGE_ORDER)
        except AllocationError:
            return None
        return start // PAGES_PER_HUGE

    # ------------------------------------------------------------------
    # Promotion / demotion primitives
    # ------------------------------------------------------------------

    def try_promote_in_place(self, client: int, vregion: int) -> bool:
        """Zero-copy promotion when the region is contiguous and aligned
        and none of its frames is KSM-shared."""
        table = self.table(client)
        pregion = table.promotable(vregion)
        if pregion is None:
            return False
        first = pregion * PAGES_PER_HUGE
        if self._frame_refs and not self._frame_refs.keys().isdisjoint(
            range(first, first + PAGES_PER_HUGE)
        ):
            return False
        # The region maps exactly the frames of *pregion*: every base
        # entry there goes.
        self._rmap.pop(pregion, None)
        table.promote_in_place(vregion)
        self._rmap_huge[pregion] = (client, vregion)
        self.ledger.charge("inplace_promotion", costs.INPLACE_PROMOTION_CYCLES)
        self._shootdown()
        return True

    def promote_with_migration(self, client: int, vregion: int) -> bool:
        """khugepaged-style promotion: copy the region into a fresh huge page.

        Works on partially-populated regions (the unpopulated tail is
        zero-filled, i.e. memory bloat) and charges per-page copy costs plus
        a TLB shoot-down.
        """
        table = self.table(client)
        # A huge region has no base mappings, so this also refuses it.
        if not table.region_population(vregion):
            return False
        pregion = self.alloc_huge_region()
        if pregion is None:
            return False
        populated = len(self.release_base(client, vregion))
        table.map_huge(vregion, pregion)
        self._rmap_huge[pregion] = (client, vregion)
        bloat = PAGES_PER_HUGE - populated
        if bloat:
            self._bloat[(client, vregion)] = bloat
        self.ledger.charge(
            "migration_promotion", costs.PAGE_COPY_CYCLES * populated
        )
        self.ledger.charge("pages_copied", 0.0, count=populated)
        self._shootdown()
        return True

    def compact_region(self, client: int, vregion: int, pregion: int) -> bool:
        """Migrate the region's pages *into* physical region *pregion* so
        every page sits at its huge-aligned offset.

        This is the primitive Gemini's promoter uses to turn a type-2
        mis-aligned huge page at the other layer into a well-aligned one:
        the target region is dictated by the other layer's huge page.  The
        move succeeds only if each destination frame is free or already
        holds the right page.

        A refusal leaves the simulated state unchanged and records the
        region's *witness*: the target and the first page found off-target
        with a non-free destination.  Gemini's promoter retries the same
        infeasible move every epoch, so a call for that target first
        re-checks the witness page alone and refuses in O(1) while it still
        blocks.  A witness that no longer blocks falls back to the scan, so
        every answer is the one a full scan would give.
        """
        table = self.table(client)
        if table.is_huge(vregion):
            return False
        shift = (pregion - vregion) * PAGES_PER_HUGE  # destination - vpn
        key = (client, vregion)
        witness = self._compact_witness.get(key)
        if witness is not None and witness[0] == pregion:
            vpn = witness[1]
            pfn = table.translate(vpn)
            if (
                pfn is not None
                and pfn != vpn + shift
                and not self.memory.is_free(vpn + shift)
            ):
                obs.count("compact.refuted_by_witness")
                return False
        items = table.region_items(vregion)
        if not items:
            return False
        is_free = self.memory.is_free
        for vpn, pfn in items:
            if pfn != vpn + shift and not is_free(vpn + shift):
                self._compact_witness[key] = (pregion, vpn)
                obs.count("compact.refuted_by_scan")
                return False
        self._compact_witness.pop(key, None)
        desired = {vpn: vpn + shift for vpn, _ in items}
        moves = [vpn + shift for vpn, pfn in items if pfn != vpn + shift]
        for dst in moves:
            self.memory.alloc_at(dst, 0)
        old = table.remap_region(vregion, desired)
        for vpn, dst in desired.items():
            old_pfn = old[vpn]
            if old_pfn == dst:
                continue
            self._drop_rmap(old_pfn, client, vpn)
            self._set_rmap(dst, client, vpn)
            self.release_frame(old_pfn)
        if moves:
            self.ledger.charge(
                "compaction_moves", costs.PAGE_COPY_CYCLES * len(moves)
            )
            self.ledger.charge("pages_copied", 0.0, count=len(moves))
            self._shootdown()
        return True

    def relocate_huge(self, client: int, vregion: int) -> bool:
        """Migrate a whole huge mapping to a freshly allocated region.

        Translation Ranger's contiguity maintenance moves even huge pages
        to assemble larger contiguous ranges; at the other translation
        layer the old backing no longer matches, so such moves *break*
        cross-layer alignment (one reason the paper measures the lowest
        well-aligned rates for Ranger).
        """
        table = self.table(client)
        old = table.huge_target(vregion)
        if old is None:
            return False
        target = self.alloc_huge_region()
        if target is None:
            return False
        table.unmap_huge(vregion)
        del self._rmap_huge[old]
        table.map_huge(vregion, target)
        self._rmap_huge[target] = (client, vregion)
        self.memory.free_range(old * PAGES_PER_HUGE, PAGES_PER_HUGE)
        self.ledger.charge(
            "huge_relocation", costs.PAGE_COPY_CYCLES * PAGES_PER_HUGE
        )
        self.ledger.charge("pages_copied", 0.0, count=PAGES_PER_HUGE)
        self._shootdown()
        return True

    def relocate_page(self, client: int, vpn: int, dst: int | None = None) -> bool:
        """Migrate one base page to *dst* (or a fresh frame).

        Used to evict pages that sit inside a region another mapping needs
        (Gemini's promoter clears foreign pages out of a target region).
        Charges the copy; the caller batches the TLB shoot-down.
        """
        table = self.table(client)
        vregion = vpn // PAGES_PER_HUGE
        mappings = table.region_mappings(vregion)
        old = mappings.get(vpn)
        if old is None:
            return False
        if dst is None:
            try:
                dst = self.memory.alloc(0)
            except AllocationError:
                return False
        else:
            if not self.memory.is_free(dst):
                return False
            self.memory.alloc_at(dst, 0)
        new_pfns = dict(mappings)
        new_pfns[vpn] = dst
        table.remap_region(vregion, new_pfns)
        self._drop_rmap(old, client, vpn)
        self._set_rmap(dst, client, vpn)
        self.release_frame(old)
        self.ledger.charge("page_relocation", costs.PAGE_COPY_CYCLES)
        self.ledger.charge("pages_copied", 0.0, count=1)
        return True

    def map_prealloc(self, client: int, vpn: int, frame: int) -> bool:
        """Pre-allocate and map a not-yet-touched page at a specific frame.

        EMA's huge preallocation (Section 4.2): when only a few base pages
        are missing from an otherwise promotable region, the allocator
        installs them eagerly so the region can be promoted in place.
        """
        table = self.table(client)
        if table.is_mapped(vpn) or not self.memory.is_free(frame):
            return False
        self.memory.alloc_at(frame, 0)
        table.map_base(vpn, frame)
        self._set_rmap(frame, client, vpn)
        self.ledger.charge("prealloc_fault", costs.BASE_FAULT_CYCLES, sync=False)
        return True

    def demote(self, client: int, vregion: int) -> None:
        """Splinter a huge mapping back into base mappings."""
        table = self.table(client)
        pregion = table.huge_target(vregion)
        if pregion is None:
            return
        table.demote(vregion)
        del self._rmap_huge[pregion]
        self._set_rmap_run(
            pregion * PAGES_PER_HUGE,
            client,
            vregion * PAGES_PER_HUGE,
            PAGES_PER_HUGE,
        )
        self._bloat.pop((client, vregion), None)
        self.ledger.charge("demotion", costs.INPLACE_PROMOTION_CYCLES)
        self._shootdown()

    # ------------------------------------------------------------------
    # Unmapping
    # ------------------------------------------------------------------

    def release_base(
        self,
        client: int,
        vregion: int,
        start: int | None = None,
        end: int | None = None,
    ) -> dict[int, int]:
        """Unmap the base mappings of *vregion* (or of the vpn window
        ``[start, end)`` inside it, see :meth:`PageTable.unmap_region_base`),
        drop their reverse-map entries and release their frames; return the
        removed mappings.

        Equals per-page unmap, rmap drop and :meth:`release_frame` over
        the removed pages: a KSM-shared frame only loses a reference, and
        buddy coalescing does not depend on the order frames come back.
        """
        mappings = self.table(client).unmap_region_base(vregion, start, end)
        if mappings:
            self._drop_rmap_region(client, vregion, mappings)
            self._free_frames_batch(mappings.values())
        return mappings

    def unmap_range(self, client: int, start: int, npages: int) -> None:
        """Unmap ``[start, start + npages)`` and free the backing frames.

        Huge mappings fully inside the range are freed as whole regions
        (offered to the policy first — Gemini's bucket intercepts
        well-aligned ones); partially-covered huge mappings are demoted
        first.
        """
        table = self.table(client)
        end = start + npages
        first = start // PAGES_PER_HUGE
        last = (end - 1) // PAGES_PER_HUGE
        for vregion in range(first, last + 1):
            rstart = vregion * PAGES_PER_HUGE
            rend = rstart + PAGES_PER_HUGE
            if table.is_huge(vregion):
                if start <= rstart and rend <= end:
                    self._free_huge_mapping(client, vregion)
                    continue
                self.demote(client, vregion)
            if start <= rstart and rend <= end:
                self.release_base(client, vregion)
            else:
                self.release_base(
                    client, vregion, max(start, rstart), min(end, rend)
                )
        self.policy.on_unmap(client, start, end)

    def has_client(self, client: int) -> bool:
        """Does *client* have a page table on this layer?"""
        return client in self._tables

    def release_client(self, client: int) -> int:
        """Tear down *client*'s entire table and free its backing frames.

        The detach half of live migration: unlike :meth:`unmap_range`, the
        policy cannot intercept freed regions (no bucket custody — the VM
        is leaving this host), every frame goes straight back to the buddy
        allocator, and the table itself is dropped so the client id can be
        reused.  Returns the number of pages freed.  Shared (KSM) frames
        only count when their last reference is released.  The table's
        translation index must be detached first (``Platform.detach_vm``
        does): the teardown sends it no events.
        """
        table = self._tables.pop(client, None)
        if table is None:
            return 0
        assert table.index is None, f"{table.name}: detach its index first"
        if self._compact_witness:
            self._compact_witness = {
                key: witness
                for key, witness in self._compact_witness.items()
                if key[0] != client
            }
        freed = 0
        for vregion, pregion in list(table.huge_mappings()):
            table.unmap_huge(vregion)
            del self._rmap_huge[pregion]
            self._bloat.pop((client, vregion), None)
            self.memory.free_range(pregion * PAGES_PER_HUGE, PAGES_PER_HUGE)
            freed += PAGES_PER_HUGE
        # The table is being discarded and nothing observes its events, so
        # unmaps would be pure bookkeeping on dead state; only the rmap
        # drops, the refcount releases, and the buddy frees are
        # observable.  None depends on the order pages are visited (buddy
        # coalescing is order-independent), so regions go one by one and
        # the frames in one batch.
        refs = self._frame_refs
        direct: list[int] = []
        for vregion in table.populated_regions():
            mappings = table.region_mappings(vregion)
            self._drop_rmap_region(client, vregion, mappings)
            for pfn in mappings.values():
                if pfn in refs:
                    self.release_frame(pfn)
                else:
                    freed += 1
                    direct.append(pfn)
        self.memory.free_frames(direct)
        # Let the policy forget any per-client placement state (offset
        # descriptors, contiguity lists); the huge range covers every vpn.
        self.policy.on_unmap(client, 0, 1 << 52)
        return freed

    def _free_huge_mapping(self, client: int, vregion: int) -> None:
        table = self.table(client)
        pregion = table.unmap_huge(vregion)
        del self._rmap_huge[pregion]
        self._bloat.pop((client, vregion), None)
        aligned = bool(self.alignment_probe and self.alignment_probe(pregion))
        if not self.policy.on_region_freed(client, pregion, aligned):
            self.memory.free_range(pregion * PAGES_PER_HUGE, PAGES_PER_HUGE)

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------

    def charge_scan(self, nregions: int) -> None:
        """Charge (discounted) background scanning work."""
        self.ledger.charge(
            "daemon_scan",
            costs.SCAN_REGION_CYCLES * nregions * costs.BACKGROUND_DISCOUNT,
            count=nregions,
            sync=False,
        )

    def _shootdown(self) -> None:
        factor = costs.VIRT_SHOOTDOWN_FACTOR if self.virtualized else 1.0
        self.ledger.charge("tlb_shootdown", costs.TLB_SHOOTDOWN_CYCLES * factor)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def bloat_pages(self) -> int:
        """Zero-filled pages created by promoting under-populated regions."""
        return sum(self._bloat.values())

    def huge_mapping_count(self) -> int:
        return sum(t.huge_count for t in self._tables.values())

    def mapped_pages(self) -> int:
        return sum(t.mapped_pages for t in self._tables.values())
