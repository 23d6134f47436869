"""Offset-based physical placement: contiguity list, offset descriptors and
sub-VMA re-anchoring.

This module implements the allocation machinery of the paper's Section 4.2
and Section 5 in a form shared by two policies:

* **CA-paging** anchors each VMA to a free physical region at an *arbitrary*
  offset (it maximises contiguity, which would pay off with range-TLB
  hardware, but the offset is generally not a multiple of 512 pages so the
  resulting contiguity rarely yields in-place-promotable, huge-aligned
  regions);
* **Gemini's EMA** anchors with *huge-aligned* offsets
  (``GuestOffset = GVA1 - GPA1`` with both region starts 2 MiB aligned) and
  prefers regions supplied by a hook — the huge-booking component and the
  huge bucket — so new huge pages form exactly under the other layer's
  mis-aligned huge pages.

Descriptors are kept in a self-organizing (move-to-front) list as described
in Section 5.  When a computed target frame is unavailable, the remaining
part of the range is re-anchored on a fresh region — the paper's *sub-VMA*
mechanism — keeping descriptor ranges disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.mem.layout import PAGES_PER_HUGE, huge_align_down

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.os.mm import MemoryLayer

__all__ = ["OffsetDescriptor", "ContiguityList", "OffsetPlacer"]


@dataclass
class OffsetDescriptor:
    """Physical placement rule for virtual range ``[vstart, vend)``:
    ``pfn = vpn - offset``."""

    client: int
    vstart: int
    vend: int
    offset: int
    #: Target frames found occupied under this descriptor.  A few misses
    #: are tolerated (the stray pages are placed by the default allocator
    #: and later compacted back); persistent conflict re-anchors the
    #: remaining range (sub-VMA).
    misses: int = 0

    def covers(self, client: int, vpn: int) -> bool:
        return client == self.client and self.vstart <= vpn < self.vend


class ContiguityList:
    """Sorted list of free contiguous physical regions with next-fit search.

    Rebuilt from the buddy allocator's free lists on demand (anchoring is
    rare: once per VMA or sub-VMA).  The next-fit cursor persists across
    rebuilds, as in the paper's Section 5: searches resume "from the place
    where it left off the previous time" so small allocations keep to the
    low end of memory and large free regions stay unfragmented.
    """

    def __init__(self, layer: "MemoryLayer") -> None:
        self._layer = layer
        self._cursor = 0

    def find(self, span: int, huge_aligned: bool) -> int | None:
        """Start frame of a free region able to host *span* pages.

        Falls back to the largest free region when nothing fits the whole
        span (the caller then covers the tail through sub-VMA re-anchoring).
        Returns None only when no usable free region exists at all.
        """
        if huge_aligned:
            return self._find_aligned(span)
        return self._find_unaligned(span)

    def _find_aligned(self, span: int) -> int | None:
        # Each candidate is a free region cut to start at its first
        # huge-aligned frame; the allocator derives the regions that keep
        # at least one huge page from its high-order free lists.
        usable = self._layer.memory.aligned_free_regions()
        if not usable:
            return None
        ordered = self._from_cursor(usable)
        for start, size in ordered:
            if size >= span:
                self._cursor = start
                return start
        start, size = max(usable, key=lambda r: r[1])
        self._cursor = start
        return start

    def _find_unaligned(self, span: int) -> int | None:
        # Next-fit over every free region, resuming at the cursor; the
        # allocator iterates its region index directly, so no per-call
        # region list is materialised.
        memory = self._layer.memory
        for start, size in memory.iter_free_regions_split(self._cursor):
            if size >= span:
                self._cursor = start
                return start
        largest = memory.max_free_region()
        if largest is None:
            return None
        self._cursor = largest[0]
        return largest[0]

    def _from_cursor(self, regions: list[tuple[int, int]]) -> list[tuple[int, int]]:
        after = [r for r in regions if r[0] >= self._cursor]
        before = [r for r in regions if r[0] < self._cursor]
        return after + before


class OffsetPlacer:
    """Places base-fault frames according to per-range offset descriptors."""

    def __init__(
        self,
        layer: "MemoryLayer",
        align_huge: bool,
        range_of: Callable[[int, int], tuple[int, int] | None],
        preferred_anchor: Callable[[int, int], int | None] | None = None,
        claim_hook: Callable[[int], bool] | None = None,
    ) -> None:
        """*range_of(client, vpn)* returns the enclosing virtual range
        ``(vstart, vend)`` (the VMA in the guest, a fixed-size chunk of
        guest-physical space in the host) or None when the placer should not
        handle the fault.  *preferred_anchor(client, vpn)* may return a
        physical region index to anchor at (Gemini's booked/bucket regions).
        *claim_hook(frame)* may claim a frame from policy-reserved space
        (booked regions are already allocated in the buddy, so the default
        buddy claim cannot hand them out)."""
        self.layer = layer
        self.align_huge = align_huge
        self.range_of = range_of
        self.preferred_anchor = preferred_anchor
        self.claim_hook = claim_hook
        self.contiguity = ContiguityList(layer)
        self._descriptors: list[OffsetDescriptor] = []
        self.anchors = 0
        self.sub_vma_splits = 0
        #: Occupied-target faults tolerated per descriptor before the
        #: remaining range is re-anchored.  Transiently-held frames (short
        #: -lived kernel objects) release quickly, and the stray pages they
        #: cause are cheap to compact later; wholesale re-anchoring on the
        #: first conflict would shatter the layout instead.
        self.miss_tolerance = 16

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def place_run(
        self, client: int, vpn: int, max_pages: int
    ) -> tuple[int | None, int]:
        """Place the first pages of the unmapped run ``[vpn, vpn +
        max_pages)``: ``(frame, count)`` when the first *count* pages go
        to ``frame .. frame + count - 1`` (now claimed), or ``(None,
        count)`` when they take the default allocator.

        The run is cut where the enclosing virtual range or the
        descriptor ends, or at the first target frame that cannot be
        claimed.  A range under the huge-page size takes the default
        allocator whole.  An occupied first target counts as a descriptor
        miss and defers one page to the default allocator; past the
        tolerance the rest of the range is re-anchored (sub-VMA).
        """
        bounds = self.range_of(client, vpn)
        if bounds is None:
            return (None, 1)
        vstart, vend = bounds
        limit = min(max_pages, vend - vpn)
        if limit <= 0:
            return (None, 1)
        if vend - vstart < PAGES_PER_HUGE:
            # Under the huge-page size: every page of this range takes the
            # default allocator, with no descriptor side effects.
            return (None, limit)
        descriptor = self._lookup(client, vpn)
        if descriptor is not None:
            target = vpn - descriptor.offset
            claimed = self._claim_run(target, min(limit, descriptor.vend - vpn))
            if claimed:
                return (target, claimed)
            descriptor.misses += 1
            if descriptor.misses <= self.miss_tolerance:
                # Tolerate the conflict: let the default allocator place
                # this one page; compaction pulls it back later.
                return (None, 1)
            # Persistent conflict: re-anchor the remaining range (sub-VMA).
            self._truncate(descriptor, vpn)
            self.sub_vma_splits += 1
        descriptor = self._anchor(client, vpn, vend)
        if descriptor is None:
            return (None, 1)
        target = vpn - descriptor.offset
        claimed = self._claim_run(target, min(limit, descriptor.vend - vpn))
        if claimed:
            return (target, claimed)
        return (None, 1)

    # ------------------------------------------------------------------
    # Descriptor management (self-organizing list)
    # ------------------------------------------------------------------

    def _lookup(self, client: int, vpn: int) -> OffsetDescriptor | None:
        for index, descriptor in enumerate(self._descriptors):
            if descriptor.covers(client, vpn):
                if index:
                    # Move to front: recently used descriptors are found
                    # faster next time (self-organizing linear search).
                    self._descriptors.insert(0, self._descriptors.pop(index))
                return descriptor
        return None

    def _truncate(self, descriptor: OffsetDescriptor, vpn: int) -> None:
        """Shrink *descriptor* so it no longer covers *vpn* onwards."""
        cut = max(huge_align_down(vpn), descriptor.vstart)
        if cut <= descriptor.vstart:
            self._descriptors.remove(descriptor)
        else:
            descriptor.vend = cut

    def drop_client(self, client: int, vstart: int, vend: int) -> None:
        """Forget descriptors overlapping an unmapped range."""
        self._descriptors = [
            d
            for d in self._descriptors
            if not (d.client == client and d.vstart < vend and vstart < d.vend)
        ]

    # ------------------------------------------------------------------
    # Anchoring
    # ------------------------------------------------------------------

    def _anchor(self, client: int, vpn: int, vend: int) -> OffsetDescriptor | None:
        anchor_vstart = huge_align_down(vpn)
        span = vend - anchor_vstart
        physical_start = self._preferred_start(client, vpn)
        if physical_start is None:
            physical_start = self.contiguity.find(span, self.align_huge)
        if physical_start is None:
            return None
        if self.align_huge:
            # GuestOffset = GVA1 - GPA1 with both huge-region starts, so the
            # offset is a multiple of 512 and contiguously-placed base pages
            # are in-place promotable.
            offset = anchor_vstart - physical_start
        else:
            # CA-paging: contiguity from the fault address itself; offset is
            # generally unaligned.
            offset = vpn - physical_start
        descriptor = OffsetDescriptor(
            client=client, vstart=anchor_vstart, vend=vend, offset=offset
        )
        self._descriptors.insert(0, descriptor)
        self.anchors += 1
        return descriptor

    def _preferred_start(self, client: int, vpn: int) -> int | None:
        if self.preferred_anchor is None:
            return None
        pregion = self.preferred_anchor(client, vpn)
        if pregion is None:
            return None
        return pregion * PAGES_PER_HUGE

    # ------------------------------------------------------------------
    # Claiming
    # ------------------------------------------------------------------

    def _claim_run(self, start: int, npages: int) -> int:
        """Claim frames ``start, start + 1, ...``, at most *npages*, up to
        the first one outside memory or claimable by neither source;
        returns the claimed count.

        Each frame is offered to the claim hook first (booked/bucketed
        regions, already allocated in the buddy), then to the buddy, which
        hands out each free stretch in one ``alloc_range`` call.
        """
        memory = self.layer.memory
        total = memory.total_pages
        hook = self.claim_hook
        claimed = 0
        while claimed < npages:
            frame = start + claimed
            if frame < 0 or frame >= total:
                break
            if hook is not None and hook(frame):
                claimed += 1
                continue
            run = memory.free_run_length(frame, npages - claimed)
            if run == 0:
                break
            memory.alloc_range(frame, run)
            claimed += run
        return claimed
