"""Two-granularity page tables.

One :class:`PageTable` instance models either a guest process page table
(GVA -> GPA) or a VM / EPT page table in the host (GPA -> HPA).  Mappings
exist at two granularities, matching x86-64 with 2 MiB huge pages:

* *base* mappings: one virtual page number (VPN) -> one physical frame
  number (PFN);
* *huge* mappings: one 2 MiB-aligned virtual region -> one 2 MiB-aligned
  physical region, stored by region index (VPN // 512 -> PFN // 512).

The table enforces the invariant that a virtual region is covered either by
base mappings or by one huge mapping, never both, and exposes the promotion
and demotion primitives page-coalescing policies are built on:

* :meth:`PageTable.promotable` tells whether the 512 base mappings of a
  region are *in-place promotable* — fully populated, physically contiguous
  and huge-aligned — which is the zero-copy promotion Gemini engineers for;
* :meth:`PageTable.promote_in_place` collapses such a region into one huge
  PTE;
* :meth:`PageTable.demote` splinters a huge mapping back into 512 base
  mappings (used on partial unmap and under memory pressure).

Every table also keeps the state the incremental translation index needs:

* **per-region summaries** — each region's multiset of placement deltas
  (``pfn - vpn``), maintained alongside the mappings.  A region is
  in-place promotable exactly when it holds 512 mappings of one
  huge-aligned delta, which makes :meth:`PageTable.promotable` O(1) and
  lets policy scans reject regions without walking their entries.
* **one index slot** — :attr:`PageTable.index` holds the
  :class:`~repro.paging.index.VMTranslationIndex` watching the table, if
  any, and every mapping change is delivered to it.  Promotion, demotion
  and remapping arrive as single composite events (not as 512 base
  events), so the index stays O(1) per operation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.mem.layout import PAGES_PER_HUGE, huge_region_index

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.paging.index import VMTranslationIndex

__all__ = ["MappingError", "PageTable"]

#: Shared empty bucket backing ``region_items`` of unpopulated regions.
_EMPTY_REGION: dict[int, int] = {}


class MappingError(Exception):
    """Raised on conflicting or missing mappings."""


class PageTable:
    """Sparse two-level-granularity translation table."""

    def __init__(self, name: str = "pt") -> None:
        self.name = name
        #: base-page mappings: vpn -> pfn
        self._base: dict[int, int] = {}
        #: huge-page mappings: virtual region index -> physical region index
        self._huge: dict[int, int] = {}
        #: base mappings bucketed by virtual region, for O(1) region queries:
        #: region index -> {vpn -> pfn}
        self._region_base: dict[int, dict[int, int]] = {}
        #: per-region placement-delta multiset: region -> {pfn - vpn: count}
        self._region_delta: dict[int, dict[int, int]] = {}
        #: the translation index observing this table's mutations; set by
        #: the index itself, cleared when its VM detaches
        self.index: VMTranslationIndex | None = None

    # ------------------------------------------------------------------
    # Mapping / unmapping
    # ------------------------------------------------------------------

    def map_base(self, vpn: int, pfn: int) -> None:
        """Install a 4 KiB mapping vpn -> pfn."""
        region = huge_region_index(vpn)
        if region in self._huge:
            raise MappingError(
                f"{self.name}: vpn {vpn} already covered by huge mapping"
            )
        if vpn in self._base:
            raise MappingError(f"{self.name}: vpn {vpn} already mapped")
        self._base[vpn] = pfn
        self._region_base.setdefault(region, {})[vpn] = pfn
        deltas = self._region_delta.setdefault(region, {})
        d = pfn - vpn
        deltas[d] = deltas.get(d, 0) + 1
        if self.index is not None:
            self.index.base_mapped(self, vpn, pfn)

    def map_base_run(self, vpn: int, pfn: int, count: int) -> None:
        """Install the contiguous run ``vpn + i -> pfn + i`` (one region).

        Batch equivalent of *count* :meth:`map_base` calls for a run that
        stays inside a single virtual region: same mappings, same delta
        summary, one composite index event instead of *count*.
        """
        region = huge_region_index(vpn)
        if huge_region_index(vpn + count - 1) != region:
            raise MappingError(
                f"{self.name}: run [{vpn}, {vpn + count}) crosses a region"
            )
        if region in self._huge:
            raise MappingError(
                f"{self.name}: vpn {vpn} already covered by huge mapping"
            )
        bucket = self._region_base.setdefault(region, {})
        if bucket:
            for v in range(vpn, vpn + count):
                if v in bucket:
                    raise MappingError(f"{self.name}: vpn {v} already mapped")
        base = self._base
        for i in range(count):
            base[vpn + i] = pfn + i
            bucket[vpn + i] = pfn + i
        deltas = self._region_delta.setdefault(region, {})
        d = pfn - vpn
        deltas[d] = deltas.get(d, 0) + count
        if self.index is not None:
            self.index.base_mapped_run(self, vpn, pfn, count)

    def unmap_region_base(
        self, vregion: int, start: int | None = None, end: int | None = None
    ) -> dict[int, int]:
        """Remove the base mappings of *vregion*; return them.

        Without a window, removes every mapping of the region and returns
        them in mapping order.  With a vpn window ``[start, end)`` inside
        the region, removes only the mappings there and returns them in
        ascending vpn order; a window leaving the region raises
        :class:`MappingError`.  Either way this is the batch equivalent of
        :meth:`unmap_base` over the removed pages, delivered to the index
        as one composite event (none when nothing was mapped).
        """
        if start is not None:
            return self._unmap_window(vregion, start, end)
        bucket = self._region_base.pop(vregion, None)
        if bucket is None:
            return {}
        base = self._base
        for vpn in bucket:
            del base[vpn]
        del self._region_delta[vregion]
        if self.index is not None:
            self.index.region_base_cleared(self, vregion, bucket)
        return bucket

    def _unmap_window(self, vregion: int, start: int, end: int) -> dict[int, int]:
        first = vregion * PAGES_PER_HUGE
        if not first <= start <= end <= first + PAGES_PER_HUGE:
            raise MappingError(
                f"{self.name}: window [{start}, {end}) leaves region {vregion}"
            )
        bucket = self._region_base.get(vregion)
        if not bucket:
            return {}
        if len(bucket) < end - start:
            vpns = sorted(v for v in bucket if start <= v < end)
        else:
            vpns = range(start, end)
        base = self._base
        deltas = self._region_delta[vregion]
        removed: dict[int, int] = {}
        for vpn in vpns:
            pfn = bucket.pop(vpn, None)
            if pfn is None:
                continue
            del base[vpn]
            removed[vpn] = pfn
            d = pfn - vpn
            count = deltas[d] - 1
            if count:
                deltas[d] = count
            else:
                del deltas[d]
        if not bucket:
            del self._region_base[vregion]
            del self._region_delta[vregion]
        if removed and self.index is not None:
            self.index.region_base_cleared(self, vregion, removed)
        return removed

    def map_huge(self, vregion: int, pregion: int) -> None:
        """Install a 2 MiB mapping of virtual region -> physical region."""
        if vregion in self._huge:
            raise MappingError(f"{self.name}: region {vregion} already huge-mapped")
        if self._region_base.get(vregion):
            raise MappingError(
                f"{self.name}: region {vregion} has base mappings; "
                "unmap or promote them first"
            )
        self._huge[vregion] = pregion
        if self.index is not None:
            self.index.huge_mapped(self, vregion, pregion)

    def unmap_base(self, vpn: int) -> int:
        """Remove a 4 KiB mapping; return the PFN it pointed at."""
        if vpn not in self._base:
            raise MappingError(f"{self.name}: vpn {vpn} not base-mapped")
        pfn = self._base.pop(vpn)
        region = huge_region_index(vpn)
        bucket = self._region_base[region]
        del bucket[vpn]
        if not bucket:
            del self._region_base[region]
        deltas = self._region_delta[region]
        d = pfn - vpn
        count = deltas[d] - 1
        if count:
            deltas[d] = count
        else:
            del deltas[d]
            if not deltas:
                del self._region_delta[region]
        if self.index is not None:
            self.index.base_unmapped(self, vpn, pfn)
        return pfn

    def unmap_huge(self, vregion: int) -> int:
        """Remove a 2 MiB mapping; return the physical region index."""
        if vregion not in self._huge:
            raise MappingError(f"{self.name}: region {vregion} not huge-mapped")
        pregion = self._huge.pop(vregion)
        if self.index is not None:
            self.index.huge_unmapped(self, vregion, pregion)
        return pregion

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------

    def translate(self, vpn: int) -> int | None:
        """Translate a base VPN to its PFN, through either mapping size."""
        region = huge_region_index(vpn)
        pregion = self._huge.get(region)
        if pregion is not None:
            offset = vpn - region * PAGES_PER_HUGE
            return pregion * PAGES_PER_HUGE + offset
        return self._base.get(vpn)

    def mapped_run(self, vpn: int, limit: int) -> tuple[int, int] | None:
        """The mapped run at *vpn* as ``(pfn, count)``: ``vpn + i`` maps to
        ``pfn + i`` for every ``i < count``.  The run stops at *limit* (an
        exclusive vpn), at the end of *vpn*'s region, or where the frames
        stop being contiguous.  None when *vpn* is unmapped.

        O(1) for a huge region; base pages walk the region's bucket.
        """
        region = huge_region_index(vpn)
        stop = min(limit, (region + 1) * PAGES_PER_HUGE)
        pregion = self._huge.get(region)
        if pregion is not None:
            return pregion * PAGES_PER_HUGE + vpn - region * PAGES_PER_HUGE, stop - vpn
        bucket = self._region_base.get(region)
        pfn = None if bucket is None else bucket.get(vpn)
        if pfn is None:
            return None
        delta = pfn - vpn
        end = vpn + 1
        while end < stop and bucket.get(end) == end + delta:
            end += 1
        return pfn, end - vpn

    def unmapped_run_end(self, vpn: int, limit: int) -> int:
        """The first base-mapped vpn in ``[vpn, limit)``, or *limit*: where
        the unmapped run at *vpn* ends.

        *vpn*'s region must not be huge-mapped and *limit* must not pass
        its end.  Scans the region's bucket or the window, whichever is
        smaller, so a region with no base mappings is one run in O(1).
        """
        bucket = self._region_base.get(huge_region_index(vpn))
        if not bucket:
            return limit
        if len(bucket) < limit - vpn:
            return min((v for v in bucket if vpn <= v < limit), default=limit)
        for v in range(vpn, limit):
            if v in bucket:
                return v
        return limit

    def is_mapped(self, vpn: int) -> bool:
        return self.translate(vpn) is not None

    def is_huge(self, vregion: int) -> bool:
        """True if virtual region *vregion* is covered by a huge mapping."""
        return vregion in self._huge

    def huge_target(self, vregion: int) -> int | None:
        """Physical region index backing huge-mapped *vregion*, if any."""
        return self._huge.get(vregion)

    # ------------------------------------------------------------------
    # Region inspection
    # ------------------------------------------------------------------

    def region_population(self, vregion: int) -> int:
        """Number of base pages mapped within virtual region *vregion*."""
        return len(self._region_base.get(vregion, ()))

    def region_mappings(self, vregion: int) -> dict[int, int]:
        """Copy of the base vpn -> pfn mappings within *vregion*."""
        return dict(self._region_base.get(vregion, {}))

    def region_items(self, vregion: int):
        """Read-only (vpn, pfn) view of *vregion*'s base mappings.

        Unlike :meth:`region_mappings` this does not copy; callers must
        not mutate the table while iterating the view.
        """
        return self._region_base.get(vregion, _EMPTY_REGION).items()

    def promotable(self, vregion: int) -> int | None:
        """If *vregion* is in-place promotable, the target physical region.

        In-place promotion requires all 512 base pages mapped, physically
        contiguous, in virtual order, with the first frame 2 MiB-aligned.
        Returns ``None`` otherwise.
        """
        # 512 mappings of one delta == fully populated, contiguous and in
        # virtual order; the delta is huge-aligned exactly when the first
        # frame is (the region's first vpn is region-aligned).
        deltas = self._region_delta.get(vregion)
        if deltas is None or len(deltas) != 1:
            return None
        ((delta, count),) = deltas.items()
        if count != PAGES_PER_HUGE or delta % PAGES_PER_HUGE != 0:
            return None
        return (vregion * PAGES_PER_HUGE + delta) // PAGES_PER_HUGE

    def region_deltas(self, vregion: int) -> dict[int, int]:
        """The region's ``{pfn - vpn: count}`` summary (empty when it has
        no base mappings).  Callers must treat the dict as read-only."""
        return self._region_delta.get(vregion, _EMPTY_REGION)

    def promote_in_place(self, vregion: int) -> int:
        """Collapse the base mappings of *vregion* into one huge mapping.

        Returns the physical region index.  Raises :class:`MappingError`
        when the region is not in-place promotable.
        """
        pregion = self.promotable(vregion)
        if pregion is None:
            raise MappingError(
                f"{self.name}: region {vregion} not in-place promotable"
            )
        for vpn in list(self._region_base[vregion]):
            del self._base[vpn]
        del self._region_base[vregion]
        del self._region_delta[vregion]
        self._huge[vregion] = pregion
        if self.index is not None:
            self.index.promoted(self, vregion, pregion)
        return pregion

    def remap_region(self, vregion: int, new_pfns: dict[int, int]) -> dict[int, int]:
        """Replace the base mappings of *vregion* (migration support).

        *new_pfns* maps each currently-mapped vpn of the region to its new
        frame.  Returns the old vpn -> pfn mappings so the caller can free
        the vacated frames.  Every mapped vpn must be present in *new_pfns*.
        """
        bucket = self._region_base.get(vregion)
        if not bucket:
            raise MappingError(f"{self.name}: region {vregion} has no base mappings")
        if set(new_pfns) != set(bucket):
            raise MappingError(
                f"{self.name}: remap of region {vregion} must cover exactly "
                "the mapped vpns"
            )
        old = dict(bucket)
        for vpn, pfn in new_pfns.items():
            self._base[vpn] = pfn
            bucket[vpn] = pfn
        deltas: dict[int, int] = {}
        for vpn, pfn in bucket.items():
            d = pfn - vpn
            deltas[d] = deltas.get(d, 0) + 1
        self._region_delta[vregion] = deltas
        if self.index is not None:
            self.index.region_remapped(self, vregion, old, new_pfns)
        return old

    def demote(self, vregion: int) -> None:
        """Splinter huge-mapped *vregion* into 512 base mappings."""
        if vregion not in self._huge:
            raise MappingError(f"{self.name}: region {vregion} not huge-mapped")
        pregion = self._huge.pop(vregion)
        first_vpn = vregion * PAGES_PER_HUGE
        first_pfn = pregion * PAGES_PER_HUGE
        bucket = self._region_base.setdefault(vregion, {})
        for offset in range(PAGES_PER_HUGE):
            self._base[first_vpn + offset] = first_pfn + offset
            bucket[first_vpn + offset] = first_pfn + offset
        self._region_delta[vregion] = {first_pfn - first_vpn: PAGES_PER_HUGE}
        if self.index is not None:
            self.index.demoted(self, vregion, pregion)

    # ------------------------------------------------------------------
    # Iteration / statistics
    # ------------------------------------------------------------------

    def huge_mappings(self) -> Iterator[tuple[int, int]]:
        """Yield (virtual region, physical region) for every huge mapping."""
        yield from self._huge.items()

    def base_mappings(self) -> Iterator[tuple[int, int]]:
        """Yield (vpn, pfn) for every base mapping, in mapping order (a
        remap keeps each page's place).  KSM's scan budget walks this
        order, so it is observable in results."""
        yield from self._base.items()

    def populated_regions(self) -> Iterator[int]:
        """Virtual regions with at least one base mapping (non-huge)."""
        yield from self._region_base.keys()

    @property
    def huge_count(self) -> int:
        return len(self._huge)

    @property
    def base_count(self) -> int:
        return len(self._base)

    @property
    def mapped_pages(self) -> int:
        """Total base pages covered, counting each huge mapping as 512."""
        return self.base_count + self.huge_count * PAGES_PER_HUGE
