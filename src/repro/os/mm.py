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
mirroring the kernel's rmap.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro import obs
from repro.mem.buddy import AllocationError
from repro.mem.layout import HUGE_ORDER, PAGES_PER_HUGE
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


def _contiguous_runs(frames: list[int]) -> Iterator[tuple[int, int]]:
    """Group a frame list into (start, count) runs of consecutive values,
    preserving the list order."""
    if not frames:
        return
    run_start = prev = frames[0]
    for frame in frames[1:]:
        if frame == prev + 1:
            prev = frame
            continue
        yield run_start, prev - run_start + 1
        run_start = prev = frame
    yield run_start, prev - run_start + 1


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
        #: reverse map for base mappings: pfn -> (client, vpn)
        self._rmap_base: dict[int, tuple[int, int]] = {}
        #: per-region occupancy bitsets, maintained with the owner index:
        #: physical region -> 512-bit int, bit ``pfn - region * 512`` set
        #: iff *pfn* has a base reverse-map entry.  Promoter scans walk
        #: set bits instead of probing all 512 frames.
        self._rmap_bits: dict[int, int] = {}
        #: optional incremental owner summary: physical region ->
        #: {(client, vregion): frames owned}; None when disabled.  Lets
        #: Gemini's promoters find a region's dominant owner without 512
        #: rmap probes.
        self._owner_counts: dict[int, dict[tuple[int, int], int]] | None = None
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
        return self._rmap_base.get(pfn)

    def owner_of_region(self, pregion: int) -> tuple[int, int] | None:
        """(client, vregion) huge-mapping the physical region, if any."""
        return self._rmap_huge.get(pregion)

    def add_frame_ref(self, pfn: int) -> None:
        """Register an additional mapping of *pfn* (page sharing/KSM)."""
        self._frame_refs[pfn] = self._frame_refs.get(pfn, 0) + 1

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

    def enable_owner_index(self) -> None:
        """Turn on incremental per-region owner counts (idempotent);
        bootstraps from the current reverse map."""
        if self._owner_counts is not None:
            return
        counts: dict[int, dict[tuple[int, int], int]] = {}
        bits: dict[int, int] = {}
        for pfn, (client, vpn) in self._rmap_base.items():
            key = (client, vpn // PAGES_PER_HUGE)
            pregion = pfn // PAGES_PER_HUGE
            bucket = counts.setdefault(pregion, {})
            bucket[key] = bucket.get(key, 0) + 1
            bits[pregion] = bits.get(pregion, 0) | (
                1 << (pfn - pregion * PAGES_PER_HUGE)
            )
        self._owner_counts = counts
        self._rmap_bits = bits

    def rmap_bits(self, pregion: int) -> int | None:
        """512-bit occupancy word of *pregion* (bit set iff the frame has
        a base reverse-map entry); None when the owner index is off."""
        if self._owner_counts is None:
            return None
        return self._rmap_bits.get(pregion, 0)

    def region_owner_counts(self, pregion: int) -> dict[tuple[int, int], int] | None:
        """Read-only ``{(client, vregion): frames}`` owner summary of
        physical region *pregion*; None when the index is disabled."""
        if self._owner_counts is None:
            return None
        return self._owner_counts.get(pregion, _EMPTY_COUNTS)

    def base_owned_in_region(self, pregion: int) -> int:
        """Frames of *pregion* with a base reverse-map entry (requires the
        owner index)."""
        assert self._owner_counts is not None
        bucket = self._owner_counts.get(pregion)
        return sum(bucket.values()) if bucket else 0

    def _set_rmap(self, pfn: int, client: int, vpn: int) -> None:
        self._rmap_base[pfn] = (client, vpn)
        counts = self._owner_counts
        if counts is not None:
            key = (client, vpn // PAGES_PER_HUGE)
            pregion = pfn // PAGES_PER_HUGE
            bucket = counts.setdefault(pregion, {})
            bucket[key] = bucket.get(key, 0) + 1
            bits = self._rmap_bits
            bits[pregion] = bits.get(pregion, 0) | (
                1 << (pfn - pregion * PAGES_PER_HUGE)
            )

    def _set_rmap_run(self, pfn: int, client: int, vpn: int, count: int) -> None:
        """Batch of :meth:`_set_rmap` over the contiguous, same-virtual-
        region run ``pfn + i <- (client, vpn + i)``."""
        self._rmap_base.update(
            zip(
                range(pfn, pfn + count),
                ((client, v) for v in range(vpn, vpn + count)),
            )
        )
        counts = self._owner_counts
        if counts is None:
            return
        key = (client, vpn // PAGES_PER_HUGE)
        bits = self._rmap_bits
        pos = pfn
        end = pfn + count
        while pos < end:
            pregion = pos // PAGES_PER_HUGE
            chunk = min(end, (pregion + 1) * PAGES_PER_HUGE) - pos
            bucket = counts.setdefault(pregion, {})
            bucket[key] = bucket.get(key, 0) + chunk
            bits[pregion] = bits.get(pregion, 0) | (
                ((1 << chunk) - 1) << (pos - pregion * PAGES_PER_HUGE)
            )
            pos += chunk

    def _del_rmap(self, pfn: int) -> None:
        client, vpn = self._rmap_base.pop(pfn)
        counts = self._owner_counts
        if counts is not None:
            pregion = pfn // PAGES_PER_HUGE
            bucket = counts[pregion]
            key = (client, vpn // PAGES_PER_HUGE)
            remaining = bucket[key] - 1
            if remaining:
                bucket[key] = remaining
            else:
                del bucket[key]
                if not bucket:
                    del counts[pregion]
            bits = self._rmap_bits
            word = bits[pregion] & ~(1 << (pfn - pregion * PAGES_PER_HUGE))
            if word:
                bits[pregion] = word
            else:
                del bits[pregion]

    def _drop_rmap_region(
        self, client: int, vregion: int, mappings: dict[int, int]
    ) -> None:
        """Batch of :meth:`_drop_rmap` over one virtual region's base
        mappings, with the owner-summary updates aggregated per physical
        region."""
        rmap = self._rmap_base
        counts = self._owner_counts
        if counts is None:
            for vpn, pfn in mappings.items():
                if rmap.get(pfn) == (client, vpn):
                    del rmap[pfn]
            return
        key = (client, vregion)
        dropped: dict[int, list[int]] = {}
        for vpn, pfn in mappings.items():
            if rmap.get(pfn) != (client, vpn):
                continue
            del rmap[pfn]
            dropped.setdefault(pfn // PAGES_PER_HUGE, []).append(pfn)
        bits = self._rmap_bits
        for pregion, pfns in dropped.items():
            bucket = counts[pregion]
            remaining = bucket[key] - len(pfns)
            if remaining:
                bucket[key] = remaining
            else:
                del bucket[key]
                if not bucket:
                    del counts[pregion]
            mask = 0
            base = pregion * PAGES_PER_HUGE
            for pfn in pfns:
                mask |= 1 << (pfn - base)
            word = bits[pregion] & ~mask
            if word:
                bits[pregion] = word
            else:
                del bits[pregion]

    def _drop_rmap(self, pfn: int, client: int, vpn: int) -> None:
        """Remove the reverse-map entry if it names this mapping (shared
        frames keep their original owner's entry)."""
        if self._rmap_base.get(pfn) == (client, vpn):
            self._del_rmap(pfn)

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
        if (
            full_region
            and table.region_population(vregion) == 0
            and self.policy.wants_huge_fault(client, vregion)
        ):
            pregion = self.policy.alloc_huge_region(client, vregion)
            if pregion is not None:
                table.map_huge(vregion, pregion)
                self._rmap_huge[pregion] = (client, vregion)
                self.ledger.charge("huge_fault", costs.HUGE_FAULT_CYCLES)
                result = table.translate(vpn)
                assert result is not None
                return result
        frame = self.policy.choose_base_frame(client, vpn)
        if frame is None:
            frame = self.alloc_base_frame()
        table.map_base(vpn, frame)
        self._set_rmap(frame, client, vpn)
        self.ledger.charge("base_fault", costs.BASE_FAULT_CYCLES)
        return frame

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
            pfn = table.translate(pos)
            if pfn is not None:
                emit(pos, pfn, 1, "mapped")
                pos += 1
                continue
            vregion = pos // PAGES_PER_HUGE
            region_end = min(end, (vregion + 1) * PAGES_PER_HUGE)
            # The huge-fault gate can only open on the first fault of a
            # region: every later page of the segment sees a non-zero
            # population, exactly as the per-page path would.
            full = True if full_region_of is None else full_region_of(vregion)
            if (
                full
                and table.region_population(vregion) == 0
                and self.policy.wants_huge_fault(client, vregion)
            ):
                pregion = self.policy.alloc_huge_region(client, vregion)
                if pregion is not None:
                    table.map_huge(vregion, pregion)
                    self._rmap_huge[pregion] = (client, vregion)
                    huge_faults += 1
                    first = pregion * PAGES_PER_HUGE + (
                        pos - vregion * PAGES_PER_HUGE
                    )
                    emit(pos, first, region_end - pos, "huge")
                    pos = region_end
                    continue
            while pos < region_end:
                pfn = table.translate(pos)
                if pfn is not None:
                    emit(pos, pfn, 1, "mapped")
                    pos += 1
                    continue
                run_end = pos + 1
                while run_end < region_end and table.translate(run_end) is None:
                    run_end += 1
                while pos < run_end:
                    batch = self.policy.choose_base_frames(
                        client, pos, run_end - pos
                    )
                    if batch is None:
                        frame = self.policy.choose_base_frame(client, pos)
                        if frame is None:
                            frame = self.alloc_base_frame()
                        table.map_base(pos, frame)
                        self._set_rmap(frame, client, pos)
                        base_faults += 1
                        emit(pos, frame, 1, "base")
                        pos += 1
                        continue
                    frame, count = batch
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
                            for rstart, rcount in _contiguous_runs(frames):
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

    def alloc_base_frame(self, node: int | None = None) -> int:
        """Allocate one frame, invoking policy reclaim under pressure."""
        try:
            return self.memory.alloc(0, node=node)
        except AllocationError:
            released = self.policy.on_pressure()
            if released <= 0 and self.reclaimer is not None:
                released = self.reclaimer(PAGES_PER_HUGE)
            if released <= 0:
                raise OutOfMemory(f"{self.name}: out of memory") from None
            try:
                return self.memory.alloc(0, node=node)
            except AllocationError:
                raise OutOfMemory(f"{self.name}: out of memory") from None

    def alloc_huge_region(self, node: int | None = None) -> int | None:
        """Allocate one huge-aligned 2 MiB region; None when unavailable."""
        try:
            start = self.memory.alloc(HUGE_ORDER, node=node)
        except AllocationError:
            return None
        return start // PAGES_PER_HUGE

    # ------------------------------------------------------------------
    # Promotion / demotion primitives
    # ------------------------------------------------------------------

    def try_promote_in_place(self, client: int, vregion: int) -> bool:
        """Zero-copy promotion when the region is contiguous and aligned."""
        table = self.table(client)
        pregion = table.promotable(vregion)
        if pregion is None:
            return False
        for vpn, pfn in table.region_items(vregion):
            self._del_rmap(pfn)
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
        mappings = table.unmap_region_base(vregion)
        self._drop_rmap_region(client, vregion, mappings)
        self._free_frames_batch(mappings.values())
        table.map_huge(vregion, pregion)
        self._rmap_huge[pregion] = (client, vregion)
        populated = len(mappings)
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
                mappings = table.unmap_region_base(vregion)
                if mappings:
                    self._drop_rmap_region(client, vregion, mappings)
                    self._free_frames_batch(mappings.values())
                continue
            for vpn, pfn in table.region_mappings(vregion).items():
                if start <= vpn < end:
                    table.unmap_base(vpn)
                    self._drop_rmap(pfn, client, vpn)
                    self.release_frame(pfn)
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
        only count when their last reference is released.
        """
        table = self._tables.pop(client, None)
        if table is None:
            return 0
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
        if not table._watchers:
            # The table is being discarded and nothing observes its events,
            # so the per-page unmaps are pure bookkeeping on dead state;
            # only the rmap drops, the refcount releases, and the buddy
            # frees are observable.  Buddy coalescing is order-independent,
            # so the batch free lands on the same allocator state.
            refs = self._frame_refs
            direct: list[int] = []
            for vpn, pfn in table.base_mappings():
                self._drop_rmap(pfn, client, vpn)
                if pfn in refs:
                    self.release_frame(pfn)
                else:
                    freed += 1
                    direct.append(pfn)
            self.memory.free_frames(direct)
        else:
            for vpn, pfn in list(table.base_mappings()):
                table.unmap_base(vpn)
                self._drop_rmap(pfn, client, vpn)
                if pfn not in self._frame_refs:
                    freed += 1
                self.release_frame(pfn)
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
