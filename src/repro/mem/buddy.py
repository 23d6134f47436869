"""Binary buddy allocator.

A faithful model of the Linux buddy system the paper builds on (Section 5):
free memory is grouped into order-*x* free lists where a block in the
order-*x* list holds ``2**x`` contiguous, ``2**x``-aligned base pages, with
``MAX_ORDER == 11`` (4 MiB blocks).

Beyond the standard ``alloc``/``free`` interface this allocator supports the
*targeted* operations Gemini's huge-booking and enhanced memory allocator
(EMA) require:

* :meth:`BuddyAllocator.alloc_at` — claim one specific, aligned block,
  splitting larger free blocks as needed (used to allocate at a computed
  GPA/HPA so a mis-aligned huge page at the other layer becomes
  well-aligned).
* :meth:`BuddyAllocator.alloc_range` / :meth:`BuddyAllocator.free_range` —
  claim or release an arbitrary page range by decomposing it into maximal
  aligned blocks (used by the booking component to reserve huge-page-sized
  regions, by the balloon and by the fragmenter tool).  The range is
  checked once, before any block moves, so a refused range operation
  changes nothing.

The free set is kept as two sorted views and nothing else: each order's
free list is an ascending list of block starts (so the lowest block,
Linux's ``__rmqueue_smallest`` pick, is its head), and the interval index
holds the maximal free intervals.  Every other answer — the largest free
interval, the huge-aligned free regions — is derived from them on demand.

Addresses are base-page frame numbers (see :mod:`repro.mem.layout`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import chain
from operator import sub
from typing import Iterator

from repro.mem.layout import HUGE_ORDER, MAX_ORDER

__all__ = ["AllocationError", "BuddyAllocator"]


class AllocationError(Exception):
    """Raised when an allocation request cannot be satisfied."""


class _RegionIndex:
    """Incrementally-maintained set of maximal free intervals.

    Mirrors what :meth:`BuddyAllocator.free_regions` used to recompute from
    the free lists on every call (sort all free blocks, merge adjacent):
    two parallel sorted arrays of interval starts and ends.  The intervals
    depend only on the free set, so each allocator operation applies its
    net change once — an allocation carves out the claimed range, a free
    adds its block — however many buddy splits or merges it performs.
    Range operations (``alloc_range``, ``free_range`` and the runs of
    ``alloc_frames`` / ``free_frames``) likewise apply the whole range in
    one update, however many aligned blocks it decomposes into.
    Gemini's contiguity list walks free regions on every anchor, which made
    the recompute the single hottest path of a fragmented run.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []

    def add(self, start: int, end: int) -> None:
        """Insert free interval [start, end), merging with neighbours."""
        i = bisect_left(self._starts, start)
        merge_prev = i > 0 and self._ends[i - 1] == start
        merge_next = i < len(self._starts) and self._starts[i] == end
        if merge_prev and merge_next:
            self._ends[i - 1] = self._ends[i]
            del self._starts[i]
            del self._ends[i]
        elif merge_prev:
            self._ends[i - 1] = end
        elif merge_next:
            self._starts[i] = start
        else:
            self._starts.insert(i, start)
            self._ends.insert(i, end)

    def remove(self, start: int, end: int) -> None:
        """Carve allocated interval [start, end) out of its free interval."""
        i = bisect_right(self._starts, start) - 1
        s, e = self._starts[i], self._ends[i]
        if s == start and e == end:
            del self._starts[i]
            del self._ends[i]
        elif s == start:
            self._starts[i] = end
        elif e == end:
            self._ends[i] = start
        else:
            self._ends[i] = start
            self._starts.insert(i + 1, end)
            self._ends.insert(i + 1, e)

    def regions(self) -> list[tuple[int, int]]:
        """Sorted (start, npages) for every maximal free interval."""
        return [(s, e - s) for s, e in zip(self._starts, self._ends)]

    def tails_from(self, frames: list[int]) -> list[tuple[int, int]]:
        """(frame, pages to its interval's end) for the lowest of the
        sorted free *frames* in each interval that holds one."""
        starts = self._starts
        ends = self._ends
        out = []
        k = 0
        while k < len(frames):
            frame = frames[k]
            end = ends[bisect_right(starts, frame) - 1]
            out.append((frame, end - frame))
            k = bisect_left(frames, end, k)
        return out

    def iter_from(self, cursor: int):
        """Yield (start, npages) for intervals with start >= cursor."""
        starts = self._starts
        ends = self._ends
        for j in range(bisect_left(starts, cursor), len(starts)):
            yield starts[j], ends[j] - starts[j]

    def iter_below(self, cursor: int):
        """Yield (start, npages) for intervals with start < cursor."""
        starts = self._starts
        ends = self._ends
        for j in range(bisect_left(starts, cursor)):
            yield starts[j], ends[j] - starts[j]

    def run_length(self, frame: int, limit: int) -> int:
        """Length (capped at *limit*) of the free run starting at *frame*."""
        i = bisect_right(self._starts, frame) - 1
        if i < 0 or self._ends[i] <= frame:
            return 0
        return min(self._ends[i] - frame, limit)

    def pages_in_range(self, start: int, npages: int) -> int:
        """Number of free pages inside ``[start, start + npages)``."""
        end = start + npages
        total = 0
        i = bisect_right(self._starts, start) - 1
        if i >= 0 and self._ends[i] > start:
            total += min(self._ends[i], end) - start
        for j in range(i + 1, len(self._starts)):
            s = self._starts[j]
            if s >= end:
                break
            total += min(self._ends[j], end) - s
        return total

    def max_region(self) -> tuple[int, int] | None:
        """(start, npages) of the largest interval; ties favour the lowest
        start (matching ``max(regions, key=size)`` over the sorted list).
        A scan, as callers ask rarely."""
        if not self._starts:
            return None
        sizes = list(map(sub, self._ends, self._starts))
        size = max(sizes)
        return self._starts[sizes.index(size)], size


class BuddyAllocator:
    """Binary buddy allocator over ``[base, base + total_pages)``.

    ``base`` and ``total_pages`` need not be power-of-two aligned; the
    initial free space is decomposed into maximal aligned blocks exactly the
    way Linux seeds its zones.
    """

    def __init__(self, total_pages: int, base: int = 0) -> None:
        if total_pages <= 0:
            raise ValueError(f"non-positive memory size: {total_pages}")
        if base < 0:
            raise ValueError(f"negative base frame: {base}")
        self.base = base
        self.total_pages = total_pages
        self.free_pages = 0
        #: One ascending list of block starts per order.
        self._free: list[list[int]] = [[] for _ in range(MAX_ORDER + 1)]
        self._regions = _RegionIndex()
        self._seed_free_space(base, total_pages)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _seed_free_space(self, start: int, npages: int) -> None:
        for block, order in _decompose(start, npages):
            insort(self._free[order], block)
        self.free_pages += npages
        self._regions.add(start, start + npages)

    # ------------------------------------------------------------------
    # Standard allocation interface
    # ------------------------------------------------------------------

    def alloc(self, order: int = 0) -> int:
        """Allocate a ``2**order``-page aligned block; return its start frame.

        Splits the lowest-addressed larger block when the exact order is
        exhausted, mirroring Linux's ``__rmqueue_smallest``.  Raises
        :class:`AllocationError` when no block of sufficient order is free.
        """
        self._check_order(order)
        for source in range(order, MAX_ORDER + 1):
            if self._free[source]:
                start = self._free[source].pop(0)
                # Split down to *order*, freeing each upper half.
                while source > order:
                    source -= 1
                    insort(self._free[source], start + (1 << source))
                self.free_pages -= 1 << order
                self._regions.remove(start, start + (1 << order))
                return start
        raise AllocationError(f"no free block of order >= {order}")

    def alloc_frames(self, count: int) -> list[int]:
        """Batch equivalent of ``[self.alloc(0) for _ in range(count)]``.

        Sequential order-0 allocation drains one free block at a time:
        ``alloc(0)`` pops the lowest block of the smallest non-empty order
        and splits it, leaving its remainder as the only blocks below that
        order — so the next allocations return the block's frames in
        ascending order until it is consumed.  The batch claims whole
        blocks at once and re-inserts the remainder of a partially-used
        block as the same maximal decomposition the splits would leave,
        reproducing the identical free-list and region state.
        """
        frames: list[int] = []
        remaining = count
        while remaining > 0:
            for source in range(MAX_ORDER + 1):
                if self._free[source]:
                    break
            else:
                raise AllocationError("no free block of order >= 0")
            start = self._free[source].pop(0)
            size = 1 << source
            take = size if size <= remaining else remaining
            frames.extend(range(start, start + take))
            for block, border in _decompose(start + take, size - take):
                insort(self._free[border], block)
            self.free_pages -= take
            self._regions.remove(start, start + take)
            remaining -= take
        return frames

    def free_frames(self, frames: list[int]) -> None:
        """Batch equivalent of ``for f in frames: self.free(f, 0)``.

        Buddy coalescing is confluent — the final free-block set depends
        only on which frames are free, not on the order frames were
        returned — so the batch may sort the frames, merge them into
        contiguous runs and release each run as its maximal aligned
        blocks, cascading merges from there.  The whole batch is checked
        first: a frame outside memory, already free or listed twice
        raises :class:`ValueError` and nothing is freed.
        """
        self._free_runs(self._checked_runs(frames))

    def _checked_runs(self, frames: list[int]) -> list[tuple[int, int]]:
        """*frames* as ascending runs ``(start, npages)``, after checking
        that each lies in memory, is allocated and is listed once."""
        if not frames:
            return []
        ordered = sorted(frames)
        runs = []
        run_start = prev = ordered[0]
        for frame in ordered[1:]:
            if frame == prev + 1:
                prev = frame
                continue
            if frame == prev:
                raise ValueError(f"double free of block ({frame}, order 0)")
            runs.append((run_start, prev - run_start + 1))
            run_start = prev = frame
        runs.append((run_start, prev - run_start + 1))
        for start, npages in runs:
            self._check_allocated(start, npages)
        return runs

    def _free_runs(self, runs: list[tuple[int, int]]) -> None:
        """Release checked, disjoint runs: each maximal aligned block
        merges into the free lists, and the page count and interval index
        take each run in one update."""
        for start, npages in runs:
            for block, order in _decompose(start, npages):
                self._merge_in(block, order)
            self.free_pages += npages
            self._regions.add(start, start + npages)

    def free(self, start: int, order: int = 0) -> None:
        """Return block (start, order) to the allocator, merging buddies."""
        self._check_order(order)
        if start % (1 << order) != 0:
            raise ValueError(f"block start {start} not aligned to order {order}")
        self._check_allocated(start, 1 << order)
        self._merge_in(start, order)
        self.free_pages += 1 << order
        self._regions.add(start, start + (1 << order))

    # ------------------------------------------------------------------
    # Targeted allocation (booking / EMA support)
    # ------------------------------------------------------------------

    def alloc_at(self, start: int, order: int = 0) -> None:
        """Claim the specific block (start, order), splitting as needed.

        Raises :class:`AllocationError` if any page of the block is already
        allocated, and :class:`ValueError` on misaligned requests.
        """
        self._check_order(order)
        if start % (1 << order) != 0:
            raise ValueError(f"block start {start} not aligned to order {order}")
        self._claim(start, order)
        self.free_pages -= 1 << order
        self._regions.remove(start, start + (1 << order))

    def alloc_range(self, start: int, npages: int) -> None:
        """Claim the exact page range ``[start, start + npages)``.

        The whole range must currently be free; on failure nothing is
        allocated.  Each maximal aligned block of the range is split out
        of the free lists, and the page count and interval index take the
        whole range in one update.
        """
        if not self.range_is_free(start, npages):
            raise AllocationError(f"range ({start}, {npages} pages) not fully free")
        for block, order in _decompose(start, npages):
            self._claim(block, order)
        self.free_pages -= npages
        self._regions.remove(start, start + npages)

    def free_range(self, start: int, npages: int) -> None:
        """Release the exact page range ``[start, start + npages)``.

        The whole range must lie in memory and be allocated; on failure
        nothing is freed.  Each maximal aligned block of the range merges
        into the free lists, and the page count and interval index take
        the whole range in one update.
        """
        if npages < 0:
            raise ValueError(f"negative page count: {npages}")
        if npages == 0:
            return
        self._check_allocated(start, npages)
        self._free_runs([(start, npages)])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def is_free(self, frame: int) -> bool:
        """True if base frame *frame* currently belongs to a free block."""
        return self._regions.run_length(frame, 1) == 1

    def range_is_free(self, start: int, npages: int) -> bool:
        """True if every page in ``[start, start + npages)`` is free."""
        if npages <= 0 or not self._within(start, npages):
            return False
        return self._regions.run_length(start, npages) >= npages

    def free_blocks(self) -> Iterator[tuple[int, int]]:
        """Yield (start, order) for every free block, by order, then start."""
        for order in range(MAX_ORDER + 1):
            for start in self._free[order]:
                yield start, order

    def free_regions(self) -> list[tuple[int, int]]:
        """Merged, sorted list of maximal free regions as (start, npages).

        Adjacent free blocks that are not buddies (and therefore stay
        separate in the free lists) are merged here; this is the view the
        Gemini contiguity list is built from.  Maintained incrementally by
        the region index, so reading it is O(regions) with no sorting.
        """
        return self._regions.regions()

    def aligned_free_regions(self) -> list[tuple[int, int]]:
        """Sorted (first huge-aligned frame, pages to the region's end) for
        every free region that holds a free huge-aligned huge page.

        The free lists are canonical, so a region holds such a page exactly
        when it holds a free block of order >= HUGE_ORDER, and its lowest
        such block starts at the region's first huge-aligned frame.
        """
        blocks = sorted(chain.from_iterable(self._free[HUGE_ORDER:]))
        return self._regions.tails_from(blocks)

    def iter_free_regions_from(self, cursor: int):
        """Iterate (start, npages) free regions with start >= *cursor*."""
        return self._regions.iter_from(cursor)

    def iter_free_regions_below(self, cursor: int):
        """Iterate (start, npages) free regions with start < *cursor*."""
        return self._regions.iter_below(cursor)

    def free_run_length(self, frame: int, limit: int) -> int:
        """Number of free pages (capped at *limit*) starting at *frame*."""
        if limit <= 0 or not self._within(frame, 1):
            return 0
        return self._regions.run_length(frame, limit)

    def free_pages_in_range(self, start: int, npages: int) -> int:
        """Number of free pages inside ``[start, start + npages)``."""
        if npages <= 0:
            return 0
        return self._regions.pages_in_range(start, npages)

    def max_free_region(self) -> tuple[int, int] | None:
        """Largest maximal free region as (start, npages); ties resolve to
        the lowest start.  None when no memory is free."""
        return self._regions.max_region()

    def free_pages_at_or_above(self, order: int) -> int:
        """Free pages sitting in blocks of at least the given order."""
        self._check_order(order)
        return sum((1 << o) * len(self._free[o]) for o in range(order, MAX_ORDER + 1))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _within(self, start: int, npages: int) -> bool:
        return start >= self.base and start + npages <= self.base + self.total_pages

    def _check_allocated(self, start: int, npages: int) -> None:
        """Raise ValueError unless ``[start, start + npages)`` lies in
        memory with no free page: the precondition of every release."""
        if not self._within(start, npages):
            raise ValueError(f"range ({start}, {npages} pages) outside memory")
        if self._regions.pages_in_range(start, npages) > 0:
            raise ValueError(f"double free in range ({start}, {npages} pages)")

    def _claim(self, start: int, order: int) -> None:
        """Take block (start, order) off the free lists: split the free
        block containing it, freeing the halves that do not hold it.  The
        free-list half of a claim; the caller updates the page count and
        the interval index."""
        for corder in range(order, MAX_ORDER + 1):
            cstart = start - (start % (1 << corder))
            blocks = self._free[corder]
            i = _position(blocks, cstart)
            if i >= 0:
                break
        else:
            raise AllocationError(f"block ({start}, order {order}) not fully free")
        del blocks[i]
        while corder > order:
            corder -= 1
            high = cstart + (1 << corder)
            if start < high:
                insort(self._free[corder], high)
            else:
                insort(self._free[corder], cstart)
                cstart = high

    def _merge_in(self, start: int, order: int) -> None:
        """Put free block (start, order) on the free lists, merging it with
        free buddies.  The free-list half of a release; the caller updates
        the page count and the interval index.  Merging eagerly keeps the
        decomposition canonical: no free block below MAX_ORDER has its
        buddy free, so the free lists are a function of the free set."""
        while order < MAX_ORDER:
            buddy = start ^ (1 << order)
            blocks = self._free[order]
            i = _position(blocks, buddy)
            if i < 0:
                break
            del blocks[i]
            start = min(start, buddy)
            order += 1
        insort(self._free[order], start)

    @staticmethod
    def _check_order(order: int) -> None:
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order out of range [0, {MAX_ORDER}]: {order}")


def _position(blocks: list[int], start: int) -> int:
    """Index of *start* in the ascending free list *blocks*, or -1."""
    i = bisect_left(blocks, start)
    return i if i < len(blocks) and blocks[i] == start else -1


def _decompose(start: int, npages: int) -> Iterator[tuple[int, int]]:
    """Decompose an arbitrary page range into maximal aligned buddy blocks."""
    if npages < 0:
        raise ValueError(f"negative page count: {npages}")
    frame = start
    remaining = npages
    while remaining > 0:
        # Largest order allowed by both the alignment of `frame` and the
        # number of remaining pages.
        align_order = (frame & -frame).bit_length() - 1 if frame else MAX_ORDER
        size_order = remaining.bit_length() - 1
        order = min(align_order, size_order, MAX_ORDER)
        yield frame, order
        frame += 1 << order
        remaining -= 1 << order
