"""Misaligned huge page promoter (MHPP, the ``kgeminid`` daemon).

Handles *type-2* mis-aligned huge pages — regions that already have base
pages mapped into them, so booking alone cannot align them (Section 3):

* **guest side**: a host huge page covers guest-physical region R, but the
  guest has scattered base allocations in R.  The promoter picks the guest
  virtual region owning most of R's frames, evicts foreign pages, compacts
  the owner into R at huge-aligned offsets, then promotes in place —
  optionally pre-allocating the few missing tail pages when fragmentation
  is low (EMA huge preallocation, Section 4.2).
* **host side**: a guest huge page covers guest-physical region R, but the
  EPT backs R with scattered base pages.  Any fresh huge host page aligns
  it, so the promoter uses ordinary migration-based EPT promotion, steered
  to these regions first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import obs
from repro.mem.layout import PAGES_PER_HUGE
from repro.os.mm import PROCESS, MemoryLayer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.vm import VM

__all__ = ["GuestPromoter", "HostPromoter"]


def _iter_set_bits(base: int, bits: int):
    """Frames ``base + i`` for each set bit *i*, lowest first — the same
    ascending order as ``range(base, base + PAGES_PER_HUGE)`` filtered to
    occupied frames."""
    while bits:
        low = bits & -bits
        yield base + low.bit_length() - 1
        bits ^= low


class GuestPromoter:
    """Turns type-2 mis-aligned *host* huge pages into well-aligned ones."""

    def __init__(
        self,
        vm: "VM",
        budget: int = 8,
        prealloc_threshold: int = 256,
        prealloc_fmfi: float = 0.5,
    ) -> None:
        self.vm = vm
        self.budget = budget
        self.prealloc_threshold = prealloc_threshold
        self.prealloc_fmfi = prealloc_fmfi
        self._queue: list[int] = []
        self._queued: set[int] = set()
        self._attempts: dict[int, int] = {}
        self.max_attempts = 3
        self.promoted_total = 0
        self.preallocated_pages = 0

    def enqueue(self, gpregions: list[int]) -> None:
        for gpregion in gpregions:
            if gpregion not in self._queued:
                self._queue.append(gpregion)
                self._queued.add(gpregion)

    @property
    def backlog(self) -> int:
        return len(self._queue)

    def run(self, ept_is_huge, fmfi: float) -> int:
        """One pass: align up to ``budget`` queued regions.

        *ept_is_huge(gpregion)* reports whether the host huge page still
        exists (it may have been demoted since the scan).
        """
        layer = self.vm.guest
        promoted = 0
        prealloc_before = self.preallocated_pages
        retry: list[int] = []
        while self._queue and promoted < self.budget:
            gpregion = self._queue.pop(0)
            self._queued.discard(gpregion)
            if not ept_is_huge(gpregion):
                continue
            if self._align_region(layer, gpregion, fmfi):
                promoted += 1
                self._attempts.pop(gpregion, None)
            else:
                attempts = self._attempts.get(gpregion, 0) + 1
                self._attempts[gpregion] = attempts
                if attempts < self.max_attempts:
                    retry.append(gpregion)
                else:
                    # Give up on regions that cannot be aligned (e.g. pinned
                    # kernel pages inside); the next scan may re-submit them
                    # once conditions change.
                    self._attempts.pop(gpregion, None)
        for gpregion in retry:
            self.enqueue([gpregion])
        self.promoted_total += promoted
        if promoted or retry:
            obs.emit(
                "promote.guest",
                promoted=promoted,
                retried=len(retry),
                backlog=self.backlog,
                prealloc=self.preallocated_pages - prealloc_before,
            )
        return promoted

    def _align_region(self, layer: MemoryLayer, gpregion: int, fmfi: float) -> bool:
        owner = self._dominant_owner(layer, gpregion)
        if owner is None:
            # No base pages left in the region: it is type-1 now and the
            # next MHPS scan will book it instead.
            return False
        vregion = owner
        table = layer.table(PROCESS)
        if table.is_huge(vregion):
            return False
        if not layer.is_region_eligible(PROCESS, vregion):
            return False
        self._evict_blockers(layer, gpregion, vregion)
        if not layer.compact_region(PROCESS, vregion, gpregion):
            return False
        population = table.region_population(vregion)
        if population < PAGES_PER_HUGE:
            if population < self.prealloc_threshold or fmfi > self.prealloc_fmfi:
                return False
            if not self._preallocate(layer, vregion, gpregion):
                return False
        return layer.try_promote_in_place(PROCESS, vregion)

    def _dominant_owner(self, layer: MemoryLayer, gpregion: int) -> int | None:
        """The guest virtual region owning the most frames of *gpregion*."""
        # The guest owner index gives each virtual region's frame count.
        # A tied maximum falls back to scanning the occupied frames: the
        # tie-break is first-seen frame order, which the counts cannot
        # reproduce; a unique maximum is order-independent.
        buckets = layer.region_owner_counts(gpregion)
        if not buckets:
            return None
        summed: dict[int, int] = {}
        for (_, vregion), count in buckets.items():
            summed[vregion] = summed.get(vregion, 0) + count
        best_count = max(summed.values())
        tied = [v for v, c in summed.items() if c == best_count]
        if len(tied) == 1:
            return tied[0]
        counts: dict[int, int] = {}
        start = gpregion * PAGES_PER_HUGE
        for frame in _iter_set_bits(start, layer.rmap_bits(gpregion)):
            owner = layer.owner_of_frame(frame)
            if owner is not None:
                vregion = owner[1] // PAGES_PER_HUGE
                counts[vregion] = counts.get(vregion, 0) + 1
        return max(counts, key=counts.get)

    def _evict_blockers(self, layer: MemoryLayer, gpregion: int, vregion: int) -> int:
        """Relocate pages blocking the compaction target out of *gpregion*.

        Blockers are pages of *other* virtual regions, and pages of the
        owner region itself that sit at the wrong huge-aligned offset (e.g.
        an off-by-one layout where every destination frame is occupied by
        its neighbour) — both are moved to scratch frames first, then the
        compaction pass pulls the owner's pages into place.
        """
        start = gpregion * PAGES_PER_HUGE
        vbase = vregion * PAGES_PER_HUGE
        evicted = 0
        # Snapshot bitset iteration: the loop body only ever clears the
        # *current* frame's occupancy bit (relocations move pages out of
        # the region, scratch frames live outside it), so walking the
        # snapshot visits every occupied frame in ascending order.
        for frame in _iter_set_bits(start, layer.rmap_bits(gpregion)):
            owner = layer.owner_of_frame(frame)
            if owner is None:
                continue
            _, vpn = owner
            in_place = vpn // PAGES_PER_HUGE == vregion and frame == start + (vpn - vbase)
            if not in_place:
                scratch = self._scratch_frame(layer, gpregion)
                if scratch is None:
                    break
                # The helper returns the frame allocated; hand it to
                # relocate_page, which expects to claim it itself.
                layer.memory.free(scratch, 0)
                if layer.relocate_page(PROCESS, vpn, dst=scratch):
                    evicted += 1
        return evicted

    @staticmethod
    def _scratch_frame(layer: MemoryLayer, avoid_pregion: int) -> int | None:
        """Allocate a frame outside *avoid_pregion* for evicted pages."""
        from repro.mem.buddy import AllocationError

        held: list[int] = []
        scratch = None
        try:
            while True:
                frame = layer.memory.alloc(0)
                if frame // PAGES_PER_HUGE != avoid_pregion:
                    scratch = frame
                    break
                held.append(frame)
        except AllocationError:
            scratch = None
        finally:
            for frame in held:
                layer.memory.free(frame, 0)
        return scratch

    def _preallocate(self, layer: MemoryLayer, vregion: int, gpregion: int) -> bool:
        """Install the missing tail pages at their aligned frames."""
        table = layer.table(PROCESS)
        mapped = {vpn for vpn, _ in table.region_items(vregion)}
        vbase = vregion * PAGES_PER_HUGE
        pbase = gpregion * PAGES_PER_HUGE
        missing = [vbase + i for i in range(PAGES_PER_HUGE) if vbase + i not in mapped]
        for vpn in missing:
            if not layer.map_prealloc(PROCESS, vpn, pbase + (vpn - vbase)):
                return False
            self.preallocated_pages += 1
        return True


class HostPromoter:
    """Turns type-2 mis-aligned *guest* huge pages into well-aligned ones
    by promoting the corresponding EPT regions first."""

    def __init__(self, host: MemoryLayer, budget: int = 8) -> None:
        self.host = host
        self.budget = budget
        self._queue: list[tuple[int, int]] = []
        self._queued: set[tuple[int, int]] = set()
        self._attempts: dict[tuple[int, int], int] = {}
        self.max_attempts = 3
        self.promoted_total = 0

    def enqueue(self, vm_id: int, gpregions: list[int]) -> None:
        for gpregion in gpregions:
            key = (vm_id, gpregion)
            if key not in self._queued:
                self._queue.append(key)
                self._queued.add(key)

    @property
    def backlog(self) -> int:
        return len(self._queue)

    def drop_client(self, vm_id: int) -> None:
        """Forget queued work for a departed VM.

        Without this, a stale queue entry would recreate the VM's EPT (the
        layer's ``table()`` builds tables on first use) after detach.
        """
        self._queue = [key for key in self._queue if key[0] != vm_id]
        self._queued = {key for key in self._queued if key[0] != vm_id}
        self._attempts = {
            key: count for key, count in self._attempts.items() if key[0] != vm_id
        }

    def run(self) -> int:
        promoted = 0
        retry: list[tuple[int, int]] = []
        while self._queue and promoted < self.budget:
            vm_id, gpregion = self._queue.pop(0)
            self._queued.discard((vm_id, gpregion))
            table = self.host.table(vm_id)
            if table.is_huge(gpregion):
                continue
            if table.region_population(gpregion) == 0:
                continue  # type-1: host booking handles it
            key = (vm_id, gpregion)
            if self.host.try_promote_in_place(vm_id, gpregion):
                promoted += 1
                self._attempts.pop(key, None)
            elif self.host.promote_with_migration(vm_id, gpregion):
                promoted += 1
                self._attempts.pop(key, None)
            else:
                attempts = self._attempts.get(key, 0) + 1
                self._attempts[key] = attempts
                if attempts < self.max_attempts:
                    retry.append(key)
                else:
                    self._attempts.pop(key, None)
        for vm_id, gpregion in retry:
            self.enqueue(vm_id, [gpregion])
        self.promoted_total += promoted
        if promoted or retry:
            obs.emit(
                "promote.host",
                promoted=promoted,
                retried=len(retry),
                backlog=self.backlog,
            )
        return promoted
