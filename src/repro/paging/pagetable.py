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

State is kept per 2 MiB virtual region, never per page.  Huge mappings
are one dict from virtual to physical region.  Each virtual region with
at least one base mapping has one record (:class:`_Region`):

* **512 slots** — the delta ``pfn - vpn`` of the page at each offset, or
  None where nothing is mapped.  A run mapped in one call stores one
  shared int, so mapping a run is a slice write;
* **a 512-bit mapped mask** and **the population**, so unmapped runs,
  windows and emptiness are mask arithmetic;
* **the delta multiset** ``{pfn - vpn: pages}``.  A region is in-place
  promotable exactly when it holds 512 mappings of one huge-aligned
  delta, which makes :meth:`PageTable.promotable` O(1) and lets policy
  scans reject regions without walking their slots.  Promotion deletes
  the record and demotion creates a full one;
* **512 sequence numbers** — the number of the call that mapped each
  page (a run shares one).  The table numbers its mapping calls, so
  ``(sequence, vpn)`` orders every base mapping exactly as a dict in
  insertion order would.  A record whose pages were mapped in ascending
  vpn order (the common case) is read in slot order; any other caches
  its mapping order until its next map or unmap.

Results depend on these orders, so each is kept exactly:
:meth:`PageTable.base_mappings` yields in mapping order (KSM's scan
budget covers its first mappings), :meth:`PageTable.region_items` in
mapping order within the region (host backfill and the majority-region
tie-break), and :meth:`PageTable.populated_regions` and
:meth:`PageTable.huge_mappings` in the order each region entered its
dict (policy scans and KSM's huge-page breaking).

:attr:`PageTable.index` holds the
:class:`~repro.paging.index.VMTranslationIndex` watching the table, if
any, and every mapping change is delivered to it.  Promotion, demotion
and remapping arrive as single composite events (not as 512 base
events), so the index stays O(1) per operation.
"""

from __future__ import annotations

from collections import Counter
from heapq import merge
from itertools import compress, repeat
from operator import add, is_not, ne
from typing import TYPE_CHECKING, Iterator

from repro.mem.layout import PAGES_PER_HUGE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.paging.index import VMTranslationIndex

__all__ = ["MappingError", "PageTable"]

#: Mapped mask of a fully populated region.
_FULL = (1 << PAGES_PER_HUGE) - 1
#: Endless None stream: ``map(is_not, slots, _NONES)`` flags mapped slots.
_NONES = repeat(None)
#: Shared empty summary of unpopulated regions.
_EMPTY_DELTAS: dict[int, int] = {}


class MappingError(Exception):
    """Raised on conflicting or missing mappings."""


class _Region:
    """The base mappings of one virtual region."""

    __slots__ = ("slots", "seqs", "mask", "population", "deltas", "ordered", "order")

    def __init__(self) -> None:
        #: per offset: ``pfn - vpn`` of the mapped page, or None
        self.slots: list[int | None] = [None] * PAGES_PER_HUGE
        #: per offset: the mapping call's sequence number (stale where
        #: unmapped)
        self.seqs: list[int | None] = [None] * PAGES_PER_HUGE
        #: bit ``i`` set iff offset ``i`` is mapped
        self.mask = 0
        self.population = 0
        #: ``{pfn - vpn: pages}``; a delta enters when its first page is
        #: mapped and leaves with its last
        self.deltas: dict[int, int] = {}
        #: True while mapping order is ascending vpn order
        self.ordered = True
        #: mapped offsets in mapping order, cached while not ``ordered``
        self.order: list[int] | None = None


class PageTable:
    """Sparse two-level-granularity translation table."""

    def __init__(self, name: str = "pt") -> None:
        self.name = name
        #: huge-page mappings: virtual region index -> physical region index
        self._huge: dict[int, int] = {}
        #: base mappings: virtual region index -> its record, for regions
        #: with at least one base mapping, in the order they gained it
        self._regions: dict[int, _Region] = {}
        #: sequence number of the next mapping call
        self._seq = 0
        self._base_count = 0
        #: the translation index observing this table's mutations; set by
        #: the index itself, cleared when its VM detaches
        self.index: VMTranslationIndex | None = None

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------

    def _write(self, rec: _Region, offset: int, delta: int, npages: int) -> None:
        """Map the unmapped slots ``[offset, offset + npages)`` of *rec*
        at *delta* as one mapping call."""
        seq = self._seq
        self._seq = seq + 1
        end = offset + npages
        rec.slots[offset:end] = [delta] * npages
        rec.seqs[offset:end] = [seq] * npages
        if rec.mask >> offset:
            # A page above the run is mapped: slot order no longer is
            # mapping order.
            rec.ordered = False
        rec.mask |= ((1 << npages) - 1) << offset
        rec.population += npages
        rec.order = None
        deltas = rec.deltas
        deltas[delta] = deltas.get(delta, 0) + npages
        self._base_count += npages

    def _columns(self, vregion: int, rec: _Region):
        """*rec*'s mappings in mapping order, as ``(vpns, deltas, seqs)``:
        a sequence of vpns and two iterables aligned with it."""
        first = vregion * PAGES_PER_HUGE
        slots, seqs = rec.slots, rec.seqs
        if rec.ordered and rec.mask == _FULL:
            return range(first, first + PAGES_PER_HUGE), slots, seqs
        order = rec.order
        if order is None:
            order = list(compress(range(PAGES_PER_HUGE), map(is_not, slots, _NONES)))
            if not rec.ordered:
                # A stable sort: a run's pages share a number and stay in
                # vpn order.
                order.sort(key=seqs.__getitem__)
                rec.order = order
        return (
            list(map(first.__add__, order)),
            map(slots.__getitem__, order),
            map(seqs.__getitem__, order),
        )

    def _items(self, vregion: int, rec: _Region):
        """*rec*'s ``(vpn, pfn)`` pairs in mapping order (an iterator)."""
        vpns, deltas, _ = self._columns(vregion, rec)
        return zip(vpns, map(add, vpns, deltas))

    # ------------------------------------------------------------------
    # Mapping / unmapping
    # ------------------------------------------------------------------

    def map_base(self, vpn: int, pfn: int) -> None:
        """Install a 4 KiB mapping vpn -> pfn."""
        self._map(vpn, pfn, 1)

    def map_base_run(self, vpn: int, pfn: int, count: int) -> None:
        """Install the contiguous run ``vpn + i -> pfn + i`` (one region).

        Batch equivalent of *count* :meth:`map_base` calls for a run that
        stays inside a single virtual region: same mappings, same delta
        summary, one composite index event instead of *count*.
        """
        self._map(vpn, pfn, count)

    def _map(self, vpn: int, pfn: int, count: int) -> None:
        region = vpn // PAGES_PER_HUGE
        if (vpn + count - 1) // PAGES_PER_HUGE != region:
            raise MappingError(
                f"{self.name}: run [{vpn}, {vpn + count}) crosses a region"
            )
        if region in self._huge:
            raise MappingError(
                f"{self.name}: vpn {vpn} already covered by huge mapping"
            )
        offset = vpn - region * PAGES_PER_HUGE
        rec = self._regions.get(region)
        if rec is None:
            rec = self._regions[region] = _Region()
        else:
            clash = rec.mask >> offset & ((1 << count) - 1)
            if clash:
                first = vpn + (clash & -clash).bit_length() - 1
                raise MappingError(f"{self.name}: vpn {first} already mapped")
        self._write(rec, offset, pfn - vpn, count)
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
        rec = self._regions.pop(vregion, None)
        if rec is None:
            return {}
        removed = dict(self._items(vregion, rec))
        self._base_count -= rec.population
        if self.index is not None:
            self.index.region_base_cleared(self, vregion, removed)
        return removed

    def _unmap_window(self, vregion: int, start: int, end: int) -> dict[int, int]:
        first = vregion * PAGES_PER_HUGE
        if not first <= start <= end <= first + PAGES_PER_HUGE:
            raise MappingError(
                f"{self.name}: window [{start}, {end}) leaves region {vregion}"
            )
        rec = self._regions.get(vregion)
        lo, hi = start - first, end - first
        window = 0 if rec is None else rec.mask >> lo & ((1 << (hi - lo)) - 1)
        if not window:
            return {}
        slots = rec.slots
        dropped = slots[lo:hi]
        mapped = list(map(is_not, dropped, _NONES))
        vpns = list(compress(range(start, end), mapped))
        gone = list(compress(dropped, mapped))
        slots[lo:hi] = [None] * (hi - lo)
        rec.mask ^= window << lo
        rec.population -= len(vpns)
        rec.order = None
        self._base_count -= len(vpns)
        if rec.population:
            deltas = rec.deltas
            for delta, pages in Counter(gone).items():
                left = deltas[delta] - pages
                if left:
                    deltas[delta] = left
                else:
                    del deltas[delta]
        else:
            del self._regions[vregion]
        removed = dict(zip(vpns, map(add, vpns, gone)))
        if self.index is not None:
            self.index.region_base_cleared(self, vregion, removed)
        return removed

    def map_huge(self, vregion: int, pregion: int) -> None:
        """Install a 2 MiB mapping of virtual region -> physical region."""
        if vregion in self._huge:
            raise MappingError(f"{self.name}: region {vregion} already huge-mapped")
        if vregion in self._regions:
            raise MappingError(
                f"{self.name}: region {vregion} has base mappings; "
                "unmap or promote them first"
            )
        self._huge[vregion] = pregion
        if self.index is not None:
            self.index.huge_mapped(self, vregion, pregion)

    def unmap_base(self, vpn: int) -> int:
        """Remove a 4 KiB mapping; return the PFN it pointed at."""
        region = vpn // PAGES_PER_HUGE
        removed = self._unmap_window(region, vpn, vpn + 1)
        if not removed:
            raise MappingError(f"{self.name}: vpn {vpn} not base-mapped")
        return removed[vpn]

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
        region = vpn // PAGES_PER_HUGE
        pregion = self._huge.get(region)
        if pregion is not None:
            return pregion * PAGES_PER_HUGE + vpn - region * PAGES_PER_HUGE
        rec = self._regions.get(region)
        if rec is None:
            return None
        delta = rec.slots[vpn - region * PAGES_PER_HUGE]
        return None if delta is None else vpn + delta

    def mapped_run(self, vpn: int, limit: int) -> tuple[int, int] | None:
        """The mapped run at *vpn* as ``(pfn, count)``: ``vpn + i`` maps to
        ``pfn + i`` for every ``i < count``.  The run stops at *limit* (an
        exclusive vpn), at the end of *vpn*'s region, or where the frames
        stop being contiguous.  None when *vpn* is unmapped.

        O(1) for a huge region; base pages compare the region's slots.
        """
        region = vpn // PAGES_PER_HUGE
        first = region * PAGES_PER_HUGE
        stop = min(limit, first + PAGES_PER_HUGE)
        pregion = self._huge.get(region)
        if pregion is not None:
            return pregion * PAGES_PER_HUGE + vpn - first, stop - vpn
        rec = self._regions.get(region)
        if rec is None:
            return None
        offset = vpn - first
        slots = rec.slots
        delta = slots[offset]
        if delta is None:
            return None
        # Contiguous frames share the delta: the run ends at the first
        # slot past *offset* holding another one (or nothing).
        rest = slots[offset + 1:stop - first]
        length = next(
            compress(range(1, len(rest) + 1), map(ne, rest, repeat(delta))),
            len(rest) + 1,
        )
        return vpn + delta, length

    def unmapped_run_end(self, vpn: int, limit: int) -> int:
        """The first base-mapped vpn in ``[vpn, limit)``, or *limit*: where
        the unmapped run at *vpn* ends.

        *vpn*'s region must not be huge-mapped and *limit* must not pass
        its end.  O(1): the lowest mapped bit at or above *vpn*.
        """
        region = vpn // PAGES_PER_HUGE
        rec = self._regions.get(region)
        if rec is None:
            return limit
        above = rec.mask >> (vpn - region * PAGES_PER_HUGE)
        if not above:
            return limit
        return min(limit, vpn + (above & -above).bit_length() - 1)

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
        rec = self._regions.get(vregion)
        return 0 if rec is None else rec.population

    def region_mappings(self, vregion: int) -> dict[int, int]:
        """The base vpn -> pfn mappings within *vregion*, in mapping order
        (a fresh dict)."""
        rec = self._regions.get(vregion)
        return {} if rec is None else dict(self._items(vregion, rec))

    def region_items(self, vregion: int) -> list[tuple[int, int]]:
        """*vregion*'s base mappings as ``(vpn, pfn)`` pairs in mapping
        order (a fresh list: callers may mutate the table while walking
        it)."""
        rec = self._regions.get(vregion)
        return [] if rec is None else list(self._items(vregion, rec))

    def promotable(self, vregion: int) -> int | None:
        """If *vregion* is in-place promotable, the target physical region.

        In-place promotion requires all 512 base pages mapped, physically
        contiguous, in virtual order, with the first frame 2 MiB-aligned.
        Returns ``None`` otherwise.
        """
        # 512 mappings of one delta == fully populated, contiguous and in
        # virtual order; the delta is huge-aligned exactly when the first
        # frame is (the region's first vpn is region-aligned).
        rec = self._regions.get(vregion)
        if rec is None or len(rec.deltas) != 1:
            return None
        ((delta, pages),) = rec.deltas.items()
        if pages != PAGES_PER_HUGE or delta % PAGES_PER_HUGE != 0:
            return None
        return (vregion * PAGES_PER_HUGE + delta) // PAGES_PER_HUGE

    def region_deltas(self, vregion: int) -> dict[int, int]:
        """The region's ``{pfn - vpn: count}`` summary (empty when it has
        no base mappings).  Callers must treat the dict as read-only."""
        rec = self._regions.get(vregion)
        return _EMPTY_DELTAS if rec is None else rec.deltas

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
        del self._regions[vregion]
        self._base_count -= PAGES_PER_HUGE
        self._huge[vregion] = pregion
        if self.index is not None:
            self.index.promoted(self, vregion, pregion)
        return pregion

    def remap_region(self, vregion: int, new_pfns: dict[int, int]) -> dict[int, int]:
        """Replace the base mappings of *vregion* (migration support).

        *new_pfns* maps each currently-mapped vpn of the region to its new
        frame.  Returns the old vpn -> pfn mappings so the caller can free
        the vacated frames.  Every mapped vpn must be present in *new_pfns*.
        Each page keeps its place in mapping order.
        """
        rec = self._regions.get(vregion)
        if rec is None:
            raise MappingError(f"{self.name}: region {vregion} has no base mappings")
        old = dict(self._items(vregion, rec))
        if new_pfns.keys() != old.keys():
            raise MappingError(
                f"{self.name}: remap of region {vregion} must cover exactly "
                "the mapped vpns"
            )
        first = vregion * PAGES_PER_HUGE
        slots = rec.slots
        # Rebuilt in mapping order; pages of one delta share its int.
        deltas: dict[int, int] = {}
        shared: dict[int, int] = {}
        for vpn in old:
            delta = new_pfns[vpn] - vpn
            delta = shared.setdefault(delta, delta)
            deltas[delta] = deltas.get(delta, 0) + 1
            slots[vpn - first] = delta
        rec.deltas = deltas
        if self.index is not None:
            self.index.region_remapped(self, vregion, old, new_pfns)
        return old

    def demote(self, vregion: int) -> None:
        """Splinter huge-mapped *vregion* into 512 base mappings."""
        if vregion not in self._huge:
            raise MappingError(f"{self.name}: region {vregion} not huge-mapped")
        pregion = self._huge.pop(vregion)
        rec = self._regions[vregion] = _Region()
        self._write(rec, 0, (pregion - vregion) * PAGES_PER_HUGE, PAGES_PER_HUGE)
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
        order, so it is observable in results.

        Merges the regions' mapping orders lazily by sequence number, so
        taking the first *k* mappings costs O(regions + k log regions).
        """
        streams = []
        for vregion, rec in self._regions.items():
            vpns, deltas, seqs = self._columns(vregion, rec)
            streams.append(zip(seqs, vpns, map(add, vpns, deltas)))
        for _, vpn, pfn in merge(*streams):
            yield vpn, pfn

    def populated_regions(self) -> Iterator[int]:
        """Virtual regions with at least one base mapping (non-huge), in
        the order they gained their first one."""
        yield from self._regions.keys()

    @property
    def huge_count(self) -> int:
        return len(self._huge)

    @property
    def base_count(self) -> int:
        return self._base_count

    @property
    def mapped_pages(self) -> int:
        """Total base pages covered, counting each huge mapping as 512."""
        return self.base_count + self.huge_count * PAGES_PER_HUGE
