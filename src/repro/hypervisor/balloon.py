"""Memory ballooning and its interplay with huge pages (Section 8).

The paper's future-work section notes that mechanisms used under host
memory pressure — ballooning, deduplication, swapping — may demote the
huge pages Gemini creates, and states the current design's mitigation:
*"we only allow misaligned huge pages and infrequently used huge pages to
be demoted when system is under memory pressure."*

This module implements a virtio-balloon-style driver so that interplay can
be studied:

* :meth:`BalloonDriver.inflate` pins free guest-physical pages (so the
  guest stops using them) and releases their host backing.  Releasing a
  page that lies under a huge EPT entry forces a *demotion* of that host
  huge page first — the hazard the paper describes.
* Victim selection is pluggable: the ``naive`` policy takes the lowest
  free guest-physical pages regardless of backing (splintering well-
  aligned huge pages), while the ``alignment-aware`` policy implements the
  paper's rule — prefer pages whose host backing is base pages or
  mis-aligned huge pages, and only demote well-aligned huge pages as a
  last resort.

The balloon works in runs of consecutive guest frames: one ``alloc_range``
claims each alignment-aware victim run (one ``alloc_frames`` all naive
victims), and one :meth:`~repro.os.mm.MemoryLayer.release_base` per
guest-physical region of a run unmaps its EPT mappings and frees their
host frames, so every range operation applies its net change once.  The
result equals releasing the victims page by page in the same order: the
demotions keep their order, and buddy coalescing does not depend on the
order a run's frames come back.
"""

from __future__ import annotations

from repro import obs
from repro.mem.layout import PAGES_PER_HUGE, contiguous_runs
from repro.os.mm import PROCESS
from repro.hypervisor.platform import Platform
from repro.hypervisor.vm import VM

__all__ = ["BalloonDriver"]


class BalloonDriver:
    """Per-VM balloon: returns guest-free memory to the host."""

    def __init__(
        self, platform: Platform, vm: VM, alignment_aware: bool = True
    ) -> None:
        self.platform = platform
        self.vm = vm
        #: Gemini's pressure rule: spare well-aligned huge pages.
        self.alignment_aware = alignment_aware
        self._ballooned: list[int] = []
        self.demoted_huge_pages = 0
        self.demoted_aligned_huge_pages = 0

    # ------------------------------------------------------------------
    # Inflation
    # ------------------------------------------------------------------

    def inflate(self, npages: int) -> int:
        """Balloon up to *npages* guest pages; return host pages reclaimed.

        Pages are taken from the guest's free memory (a real balloon asks
        the guest allocator), so the workload's mappings are untouched;
        only the *host backing* of the ballooned pages is released.
        """
        # Host demotions leave the guest table alone, so its huge targets
        # (the well-aligned test) hold for the whole inflate.
        guest_huge_targets = {
            gp for _, gp in self.vm.guest.table(PROCESS).huge_mappings()
        }
        host = self.platform.host
        ept = self.platform.ept(self.vm.id)
        inflated = reclaimed = 0
        for start, count in self._select_victims(npages, guest_huge_targets):
            self._ballooned.extend(range(start, start + count))
            inflated += count
            end = start + count
            while start < end:
                gpregion = start // PAGES_PER_HUGE
                stop = min(end, (gpregion + 1) * PAGES_PER_HUGE)
                if ept.is_huge(gpregion):
                    host.demote(self.vm.id, gpregion)
                    self.demoted_huge_pages += 1
                    obs.count("balloon.demoted_huge_pages")
                    if gpregion in guest_huge_targets:
                        self.demoted_aligned_huge_pages += 1
                        obs.count("balloon.demoted_aligned_huge_pages")
                # Refcount-aware release: a KSM-shared frame only loses
                # this VM's reference.
                reclaimed += len(host.release_base(self.vm.id, gpregion, start, stop))
                start = stop
        if inflated:
            obs.count("balloon.inflated_pages", inflated)
        if reclaimed:
            obs.count("balloon.reclaimed_pages", reclaimed)
        return reclaimed

    def deflate(self) -> int:
        """Return every ballooned page to the guest; the host re-backs
        them lazily on the next touch (EPT fault)."""
        released = len(self._ballooned)
        if released:
            self.vm.gpa_space.free_frames(self._ballooned)
            self._ballooned.clear()
            obs.count("balloon.deflated_pages", released)
        return released

    @property
    def inflated_pages(self) -> int:
        return len(self._ballooned)

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------

    def _select_victims(
        self, npages: int, guest_huge_targets: set[int]
    ) -> list[tuple[int, int]]:
        """Claim up to *npages* free guest pages; return them as runs of
        consecutive frames in victim order."""
        gpa_space = self.vm.gpa_space
        if not self.alignment_aware:
            # The lowest free pages, in the order order-0 allocation
            # hands them out.
            return list(
                contiguous_runs(
                    gpa_space.alloc_frames(min(npages, gpa_space.free_pages))
                )
            )
        # Backing classes, in the order victims are taken: 0 = base-backed
        # (reclaims a frame, breaks nothing), 1 = unbacked (reclaims
        # nothing), 2 = mis-aligned host huge, 3 = well-aligned host huge
        # (touch last).  Each class lists its runs in ascending order.
        ept = self.platform.ept(self.vm.id)
        classes: tuple[list[tuple[int, int]], ...] = ([], [], [], [])
        for start, count in gpa_space.free_regions():
            end = start + count
            pos = start
            while pos < end:
                gpregion = pos // PAGES_PER_HUGE
                stop = min(end, (gpregion + 1) * PAGES_PER_HUGE)
                if ept.is_huge(gpregion):
                    tier = 3 if gpregion in guest_huge_targets else 2
                    classes[tier].append((pos, stop - pos))
                    pos = stop
                    continue
                while pos < stop:
                    run = ept.mapped_run(pos, stop)
                    if run is None:
                        run_end = ept.unmapped_run_end(pos, stop)
                        classes[1].append((pos, run_end - pos))
                        pos = run_end
                        continue
                    # Backed pages form one victim run even where their
                    # host frames are not contiguous.
                    run_end = pos + run[1]
                    while run_end < stop and (run := ept.mapped_run(run_end, stop)):
                        run_end += run[1]
                    classes[0].append((pos, run_end - pos))
                    pos = run_end
        victims: list[tuple[int, int]] = []
        remaining = npages
        for runs in classes:
            for start, count in runs:
                if remaining <= 0:
                    break
                count = min(count, remaining)
                gpa_space.alloc_range(start, count)
                victims.append((start, count))
                remaining -= count
        return victims
