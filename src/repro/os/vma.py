"""Virtual memory areas and per-process virtual address spaces.

A :class:`VMA` is a contiguous range of guest-virtual pages created by a
workload allocation (an ``mmap`` in the real system).  The
:class:`AddressSpace` hands out virtual ranges with a bump allocator.  Large
mappings are huge-aligned by default, as glibc/THP arrange in practice;
Gemini's EMA additionally aligns the *physical* side to these boundaries.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator

from repro.mem.layout import PAGES_PER_HUGE, huge_align_up, huge_region_index

__all__ = ["VMA", "AddressSpace"]

_start = attrgetter("start")


@dataclass
class VMA:
    """One mapped virtual range: pages ``[start, start + npages)``."""

    start: int
    npages: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.start < 0 or self.npages <= 0:
            raise ValueError(f"invalid VMA: start={self.start} npages={self.npages}")

    @property
    def end(self) -> int:
        """One past the last page of the VMA."""
        return self.start + self.npages

    def __contains__(self, vpn: int) -> bool:
        return self.start <= vpn < self.end

    def regions(self) -> Iterator[int]:
        """2 MiB region indices overlapping this VMA."""
        first = huge_region_index(self.start)
        last = huge_region_index(self.end - 1)
        yield from range(first, last + 1)

    def region_span(self, vregion: int) -> tuple[int, int]:
        """The (first_vpn, npages) part of *vregion* covered by this VMA."""
        region_start = vregion * PAGES_PER_HUGE
        lo = max(self.start, region_start)
        hi = min(self.end, region_start + PAGES_PER_HUGE)
        if lo >= hi:
            raise ValueError(f"region {vregion} does not overlap VMA {self}")
        return lo, hi - lo

    def covers_full_region(self, vregion: int) -> bool:
        """True if the whole 2 MiB region lies inside this VMA."""
        region_start = vregion * PAGES_PER_HUGE
        return self.start <= region_start and region_start + PAGES_PER_HUGE <= self.end


class AddressSpace:
    """Bump-allocated virtual address space of one guest process."""

    def __init__(self, base: int = PAGES_PER_HUGE) -> None:
        self._next = base
        self._vmas: dict[str, VMA] = {}
        #: the VMAs by ascending start: they are disjoint, so :meth:`find`
        #: bisects
        self._by_start: list[VMA] = []

    def mmap(self, npages: int, name: str, huge_aligned: bool = True) -> VMA:
        """Create a new VMA of *npages* pages named *name*.

        Names must be unique within the address space (workloads use them to
        refer back to their allocations).  A one-region guard gap separates
        consecutive VMAs so their huge regions never overlap.
        """
        if name in self._vmas:
            raise ValueError(f"VMA name already in use: {name}")
        start = huge_align_up(self._next) if huge_aligned else self._next
        vma = VMA(start=start, npages=npages, name=name)
        self._vmas[name] = vma
        insort(self._by_start, vma, key=_start)
        self._next = huge_align_up(vma.end) + PAGES_PER_HUGE
        return vma

    def munmap(self, name: str) -> VMA:
        """Remove and return the VMA named *name*."""
        if name not in self._vmas:
            raise KeyError(f"no such VMA: {name}")
        vma = self._vmas.pop(name)
        del self._by_start[bisect_left(self._by_start, vma.start, key=_start)]
        return vma

    def vma(self, name: str) -> VMA:
        return self._vmas[name]

    def find(self, vpn: int) -> VMA | None:
        """The VMA containing *vpn*, if any."""
        at = bisect_right(self._by_start, vpn, key=_start) - 1
        if at >= 0:
            vma = self._by_start[at]
            if vpn < vma.end:
                return vma
        return None

    def vmas(self) -> Iterator[VMA]:
        yield from self._vmas.values()

    @property
    def mapped_pages(self) -> int:
        return sum(v.npages for v in self._vmas.values())

    def __len__(self) -> int:
        return len(self._vmas)

    def __contains__(self, name: str) -> bool:
        return name in self._vmas
