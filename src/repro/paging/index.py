"""Incremental cross-layer translation-state index.

One :class:`VMTranslationIndex` watches a VM's guest process page table
(GVA -> GPA) and its EPT (GPA -> HPA).  It takes each table's single
:attr:`~repro.paging.pagetable.PageTable.index` slot, so the tables
deliver every mutation to it as one event (composite for promotion,
demotion, remaps and whole-region runs), and maintains, incrementally:

* the **alignment counters** of
  :class:`~repro.metrics.alignment.AlignmentReport` (guest/host huge
  mappings and how many of each are well-aligned), so per-epoch reports
  and the MHPS scan read counters instead of enumerating both tables;
* the **live guest-physical region set** (regions referenced by current
  guest mappings), replacing the O(base mappings) walk the MHPS scan
  performed every epoch;
* a **region-classification cache** for the engine's
  ``build_segments``: per guest-virtual region, the
  :class:`~repro.metrics.alignment.RegionClass` list last computed, valid
  until a table event invalidates it.  Invalidation is tracked through a
  reverse dependency map from EPT regions to the guest regions whose
  classification reads them.

Invalidation rule (see docs/PERFORMANCE.md for the derivation):
classification depends on the guest region's own mappings and on
``ept.is_huge`` of every guest-physical region it maps into, plus — via
the engine's host backfill — on those regions' EPT translations.  Any
guest-table event on the region invalidates it; EPT huge map/unmap/
promote/demote and EPT base unmaps invalidate all dependents.  EPT base
*maps* only add translations and change no classification input, so they
do not invalidate.
"""

from __future__ import annotations

from repro.mem.layout import PAGES_PER_HUGE
from repro.metrics.alignment import AlignmentReport, RegionClass
from repro.paging.pagetable import PageTable

__all__ = ["VMTranslationIndex"]


class VMTranslationIndex:
    """Event-maintained translation summaries for one VM's table pair."""

    def __init__(self, guest_table: PageTable, ept: PageTable) -> None:
        for table in (guest_table, ept):
            if table.index is not None:
                raise ValueError(f"{table.name} already has a translation index")
        self.guest = guest_table
        self.ept = ept
        # Alignment counters (AlignmentReport fields).
        self.guest_huge = 0
        self.host_huge = 0
        self.aligned_guest = 0
        self.aligned_host = 0
        #: guest-physical region -> number of guest huge mappings onto it
        self._targets: dict[int, int] = {}
        #: guest-physical region -> number of guest base mappings into it
        self._live_base: dict[int, int] = {}
        # Region-classification cache (engine.build_segments).
        self._classes: dict[int, list[RegionClass]] = {}
        self._class_fwd: dict[int, tuple[int, ...]] = {}
        self._class_deps: dict[int, set[int]] = {}
        self._bootstrap()
        guest_table.index = self
        ept.index = self

    def _bootstrap(self) -> None:
        """Initialise counters from the tables' current state, so the
        index may be attached to already-populated tables."""
        ept = self.ept
        for _, gpregion in self.guest.huge_mappings():
            self.guest_huge += 1
            self._targets[gpregion] = self._targets.get(gpregion, 0) + 1
            if ept.is_huge(gpregion):
                self.aligned_guest += 1
        for gpregion, _ in ept.huge_mappings():
            self.host_huge += 1
            if gpregion in self._targets:
                self.aligned_host += 1
        guest = self.guest
        for vregion in guest.populated_regions():
            for _, gpn in guest.region_items(vregion):
                gpregion = gpn // PAGES_PER_HUGE
                self._live_base[gpregion] = self._live_base.get(gpregion, 0) + 1

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------

    def report(self) -> AlignmentReport:
        """Fresh :class:`AlignmentReport` from the live counters."""
        return AlignmentReport(
            guest_huge=self.guest_huge,
            host_huge=self.host_huge,
            aligned_guest=self.aligned_guest,
            aligned_host=self.aligned_host,
        )

    def live_set(self) -> set[int]:
        """Guest-physical regions referenced by current guest mappings
        (a fresh set: callers keep it across later mutations)."""
        return set(self._targets) | set(self._live_base)

    def cached_classes(self, vregion: int) -> list[RegionClass] | None:
        """The region's cached classification, or None on a miss."""
        return self._classes.get(vregion)

    def store_classes(self, vregion: int, classes: list[RegionClass]) -> None:
        """Cache *vregion*'s classification (computed after host backfill,
        so validity also certifies the backfill is a no-op)."""
        guest = self.guest
        if guest.is_huge(vregion):
            deps: tuple[int, ...] = (guest.huge_target(vregion),)
        else:
            deps = tuple({gpn // PAGES_PER_HUGE for _, gpn in guest.region_items(vregion)})
        self._classes[vregion] = classes
        self._class_fwd[vregion] = deps
        for gpregion in deps:
            self._class_deps.setdefault(gpregion, set()).add(vregion)

    # ------------------------------------------------------------------
    # Invalidation helpers
    # ------------------------------------------------------------------

    def _drop_classes(self, vregion: int) -> None:
        if self._classes.pop(vregion, None) is None:
            return
        for gpregion in self._class_fwd.pop(vregion):
            deps = self._class_deps.get(gpregion)
            if deps is not None:
                deps.discard(vregion)
                if not deps:
                    del self._class_deps[gpregion]

    def _drop_classes_for_gpregion(self, gpregion: int) -> None:
        for vregion in self._class_deps.pop(gpregion, ()):
            self._classes.pop(vregion, None)
            fwd = self._class_fwd.pop(vregion, None)
            if fwd is None:
                continue
            for other in fwd:
                if other == gpregion:
                    continue
                deps = self._class_deps.get(other)
                if deps is not None:
                    deps.discard(vregion)
                    if not deps:
                        del self._class_deps[other]

    # ------------------------------------------------------------------
    # Counter maintenance (shared by table events)
    # ------------------------------------------------------------------

    def _guest_target_added(self, gpregion: int) -> None:
        self.guest_huge += 1
        count = self._targets.get(gpregion, 0)
        self._targets[gpregion] = count + 1
        if self.ept.is_huge(gpregion):
            self.aligned_guest += 1
            if count == 0:
                self.aligned_host += 1

    def _guest_target_removed(self, gpregion: int) -> None:
        self.guest_huge -= 1
        count = self._targets[gpregion] - 1
        if count:
            self._targets[gpregion] = count
        else:
            del self._targets[gpregion]
        if self.ept.is_huge(gpregion):
            self.aligned_guest -= 1
            if count == 0:
                self.aligned_host -= 1

    def _host_huge_added(self, gpregion: int) -> None:
        self.host_huge += 1
        targets = self._targets.get(gpregion, 0)
        if targets:
            self.aligned_host += 1
            self.aligned_guest += targets

    def _host_huge_removed(self, gpregion: int) -> None:
        self.host_huge -= 1
        targets = self._targets.get(gpregion, 0)
        if targets:
            self.aligned_host -= 1
            self.aligned_guest -= targets

    def _live_add(self, gpregion: int, count: int = 1) -> None:
        self._live_base[gpregion] = self._live_base.get(gpregion, 0) + count

    def _live_drop(self, gpregion: int, count: int = 1) -> None:
        remaining = self._live_base[gpregion] - count
        if remaining:
            self._live_base[gpregion] = remaining
        else:
            del self._live_base[gpregion]

    # ------------------------------------------------------------------
    # Table events (delivered by PageTable through its index slot)
    # ------------------------------------------------------------------

    def huge_mapped(self, table: PageTable, vregion: int, pregion: int) -> None:
        if table is self.guest:
            self._guest_target_added(pregion)
            self._drop_classes(vregion)
        else:
            self._host_huge_added(vregion)
            self._drop_classes_for_gpregion(vregion)

    def huge_unmapped(self, table: PageTable, vregion: int, pregion: int) -> None:
        if table is self.guest:
            self._guest_target_removed(pregion)
            self._drop_classes(vregion)
        else:
            self._host_huge_removed(vregion)
            self._drop_classes_for_gpregion(vregion)

    def promoted(self, table: PageTable, vregion: int, pregion: int) -> None:
        if table is self.guest:
            self._live_drop(pregion, PAGES_PER_HUGE)
            self._guest_target_added(pregion)
            self._drop_classes(vregion)
        else:
            self._host_huge_added(vregion)
            self._drop_classes_for_gpregion(vregion)

    def demoted(self, table: PageTable, vregion: int, pregion: int) -> None:
        if table is self.guest:
            self._guest_target_removed(pregion)
            self._live_add(pregion, PAGES_PER_HUGE)
            self._drop_classes(vregion)
        else:
            self._host_huge_removed(vregion)
            self._drop_classes_for_gpregion(vregion)

    def region_remapped(
        self,
        table: PageTable,
        vregion: int,
        old: dict[int, int],
        new: dict[int, int],
    ) -> None:
        if table is self.guest:
            for vpn, pfn in old.items():
                self._live_drop(pfn // PAGES_PER_HUGE)
                self._live_add(new[vpn] // PAGES_PER_HUGE)
            self._drop_classes(vregion)
        # No classification input reads host frame numbers, so an EPT
        # remap invalidates nothing.

    def base_mapped_run(
        self, table: PageTable, vpn: int, pfn: int, count: int
    ) -> None:
        # A run of one page or more, inside one virtual region: the
        # classification cache invalidates once and the live counters take
        # per-physical-region increments.
        if table is not self.guest:
            return  # EPT base maps add translations only: nothing invalidates.
        pos = pfn
        end = pfn + count
        while pos < end:
            gpregion = pos // PAGES_PER_HUGE
            chunk = min(end, (gpregion + 1) * PAGES_PER_HUGE) - pos
            self._live_add(gpregion, chunk)
            pos += chunk
        self._drop_classes(vpn // PAGES_PER_HUGE)

    def region_base_cleared(
        self, table: PageTable, vregion: int, mappings: dict[int, int]
    ) -> None:
        # A region's removed pages (all of them, a window or one page):
        # per-page counter updates aggregated and one invalidation per
        # region.
        if table is self.guest:
            drops: dict[int, int] = {}
            for pfn in mappings.values():
                gpregion = pfn // PAGES_PER_HUGE
                drops[gpregion] = drops.get(gpregion, 0) + 1
            for gpregion, count in drops.items():
                self._live_drop(gpregion, count)
            self._drop_classes(vregion)
        else:
            for gpregion in {gpn // PAGES_PER_HUGE for gpn in mappings}:
                self._drop_classes_for_gpregion(gpregion)
