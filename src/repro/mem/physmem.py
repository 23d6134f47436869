"""Physical memory: one or more NUMA nodes of buddy-managed frames.

This is the substrate both layers of the simulation allocate from: the host
kernel allocates host physical frames (HPAs) here, and each guest kernel
allocates guest physical frames (GPAs) from its own
:class:`PhysicalMemory` representing the VM's guest-physical address space.

The paper's evaluation server has two NUMA nodes; the collocation
experiments (Figures 17 and 18) exercise the multi-node path.  Allocation
drains the nodes in index order, and no free region or buddy merge
crosses a node boundary.
"""

from __future__ import annotations

from repro.mem.buddy import AllocationError, BuddyAllocator
from repro.mem.layout import HUGE_ORDER

__all__ = ["PhysicalMemory"]


class PhysicalMemory:
    """Frames ``[0, total_pages)`` split evenly across ``nodes`` NUMA nodes."""

    def __init__(self, total_pages: int, nodes: int = 1) -> None:
        if nodes <= 0:
            raise ValueError(f"non-positive node count: {nodes}")
        if total_pages < nodes:
            raise ValueError(f"{total_pages} pages cannot span {nodes} nodes")
        self.total_pages = total_pages
        per_node = total_pages // nodes
        self.nodes: list[BuddyAllocator] = []
        base = 0
        for node in range(nodes):
            npages = per_node if node < nodes - 1 else total_pages - base
            self.nodes.append(BuddyAllocator(npages, base=base))
            base += npages

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def alloc(self, order: int = 0) -> int:
        """Allocate a block from the first node that has one."""
        for allocator in self.nodes:
            try:
                return allocator.alloc(order)
            except AllocationError:
                continue
        raise AllocationError(f"no free block of order >= {order} on any node")

    def alloc_at(self, start: int, order: int = 0) -> None:
        """Claim the specific block (start, order)."""
        self.node_of(start).alloc_at(start, order)

    def alloc_range(self, start: int, npages: int) -> None:
        """Claim the exact page range (must lie within a single node)."""
        self.node_of(start).alloc_range(start, npages)

    def alloc_frames(self, count: int) -> list[int]:
        """Batch equivalent of ``[self.alloc(0) for _ in range(count)]``.

        Sequential order-0 allocation drains each node in index order
        before falling back to the next, so the batch takes up to
        ``free_pages`` frames from each node's batch kernel in turn.
        """
        frames: list[int] = []
        remaining = count
        for allocator in self.nodes:
            if remaining <= 0:
                break
            take = min(remaining, allocator.free_pages)
            if take:
                frames.extend(allocator.alloc_frames(take))
                remaining -= take
        if remaining > 0:
            raise AllocationError("no free block of order >= 0 on any node")
        return frames

    def free_frames(self, frames: list[int]) -> None:
        """Batch equivalent of ``for f in frames: self.free(f, 0)``;
        frames may belong to any mix of nodes.  Every node's share is
        checked before any is freed, so a refused batch frees nothing."""
        if not frames:
            return
        batches: list[tuple[BuddyAllocator, list[int]]] = []
        node_end = None
        for frame in sorted(frames):
            if node_end is None or frame >= node_end:
                node = self.node_of(frame)
                node_end = node.base + node.total_pages
                batches.append((node, []))
            batches[-1][1].append(frame)
        checked = [(node, node._checked_runs(batch)) for node, batch in batches]
        for node, runs in checked:
            node._free_runs(runs)

    def free(self, start: int, order: int = 0) -> None:
        self.node_of(start).free(start, order)

    def free_range(self, start: int, npages: int) -> None:
        self.node_of(start).free_range(start, npages)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def node_of(self, frame: int) -> BuddyAllocator:
        """The node allocator owning base frame *frame*."""
        for allocator in self.nodes:
            if allocator.base <= frame < allocator.base + allocator.total_pages:
                return allocator
        raise ValueError(f"frame {frame} outside physical memory")

    @property
    def free_pages(self) -> int:
        return sum(allocator.free_pages for allocator in self.nodes)

    def is_free(self, frame: int) -> bool:
        return self.node_of(frame).is_free(frame)

    def range_is_free(self, start: int, npages: int) -> bool:
        try:
            return self.node_of(start).range_is_free(start, npages)
        except ValueError:
            return False

    def free_regions(self) -> list[tuple[int, int]]:
        """Merged free regions across all nodes, sorted by start frame.

        Regions never merge across node boundaries, matching the per-node
        buddy view (node address ranges are disjoint and ascending, so
        concatenation preserves the sort order).
        """
        regions: list[tuple[int, int]] = []
        for allocator in self.nodes:
            regions.extend(allocator.free_regions())
        return regions

    def aligned_free_regions(self) -> list[tuple[int, int]]:
        """(first huge-aligned frame, pages to the region's end) for every
        free region holding a free huge-aligned huge page, sorted by frame;
        regions never span a node boundary."""
        regions: list[tuple[int, int]] = []
        for allocator in self.nodes:
            regions.extend(allocator.aligned_free_regions())
        return regions

    def iter_free_regions_split(self, cursor: int):
        """Iterate free regions with start >= *cursor* first (ascending),
        then those below (ascending) — the next-fit rotation order.  Node
        address ranges ascend, so per-node chaining keeps each half sorted."""
        for allocator in self.nodes:
            yield from allocator.iter_free_regions_from(cursor)
        for allocator in self.nodes:
            yield from allocator.iter_free_regions_below(cursor)

    def free_pages_in_range(self, start: int, npages: int) -> int:
        """Free pages inside ``[start, start + npages)``, across nodes."""
        end = start + npages
        total = 0
        for allocator in self.nodes:
            lo = max(start, allocator.base)
            hi = min(end, allocator.base + allocator.total_pages)
            if lo < hi:
                total += allocator.free_pages_in_range(lo, hi - lo)
        return total

    def free_run_length(self, frame: int, limit: int) -> int:
        """Free pages (capped at *limit*) starting at *frame* within its
        node; runs never extend across node boundaries."""
        try:
            return self.node_of(frame).free_run_length(frame, limit)
        except ValueError:
            return 0

    def max_free_region(self) -> tuple[int, int] | None:
        """Largest free region over all nodes; ties resolve to the lowest
        start frame."""
        best: tuple[int, int] | None = None
        for allocator in self.nodes:
            candidate = allocator.max_free_region()
            if candidate is None:
                continue
            if best is None or candidate[1] > best[1]:
                best = candidate
        return best

    def free_pages_at_or_above(self, order: int = HUGE_ORDER) -> int:
        return sum(a.free_pages_at_or_above(order) for a in self.nodes)
