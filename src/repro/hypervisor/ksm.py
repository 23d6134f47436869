"""Kernel same-page merging (KSM) and its interplay with huge pages.

The second memory-pressure mechanism the paper's future-work section
(Section 8) flags: host-level deduplication merges identical pages across
VMs, but a huge EPT mapping cannot share a single 4 KiB subpage — the huge
page must be *demoted* first, destroying the alignment Gemini worked for.

The simulator models content at the granularity that matters for this
interplay: each VM reports a fraction of its touched pages as *mergeable*
(zero pages and common file contents — the same population HawkEye's
dedup targets inside the guest).  The daemon scans EPT mappings, merges
mergeable pages into per-content shared frames, and demotes huge EPT
entries when ``break_huge`` is set — Gemini's rule keeps well-aligned huge
pages off limits unless the host is under real pressure.
"""

from __future__ import annotations

import random
from itertools import islice

from repro import obs
from repro.mem.layout import PAGES_PER_HUGE
from repro.os.mm import PROCESS
from repro.hypervisor.platform import Platform

__all__ = ["KsmDaemon"]


class KsmDaemon:
    """Host-level same-page merging across all VMs."""

    def __init__(
        self,
        platform: Platform,
        mergeable_fraction: float = 0.1,
        break_huge: bool = False,
        spare_aligned: bool = True,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= mergeable_fraction <= 1.0:
            raise ValueError(
                f"mergeable fraction out of [0, 1]: {mergeable_fraction}"
            )
        self.platform = platform
        self.mergeable_fraction = mergeable_fraction
        #: May the daemon demote huge EPT entries to reach subpages?
        self.break_huge = break_huge
        #: Gemini's rule (Section 8): even when breaking huge pages, spare
        #: the well-aligned ones.
        self.spare_aligned = spare_aligned
        self._rng = random.Random(seed)
        #: Folded into the per-page content hash so daemons with different
        #: seeds model different guest content populations (seed 0 keeps
        #: the historical hash: x ^ 0 == x).
        self._content_salt = seed * 0x9E3779B1
        #: shared frames by content id; the first merged page donates its
        #: frame, later duplicates free theirs.
        self._shared: dict[int, int] = {}
        self.merged_pages = 0
        self.demoted_huge_pages = 0

    # ------------------------------------------------------------------

    def _content_of(self, vm_id: int, gpn: int) -> int | None:
        """Stable pseudo-content id; None when the page is unique.

        A deterministic hash assigns ``mergeable_fraction`` of pages to a
        small pool of shared contents (zero pages etc.).
        """
        draw = random.Random(
            ((vm_id * 1_000_003 + gpn) * 31 + 7) ^ self._content_salt
        ).random()
        if draw >= self.mergeable_fraction:
            return None
        return int(draw * 1000)  # a small pool of common contents

    def scan(self, budget: int = 512) -> int:
        """One merge pass over at most *budget* base EPT mappings per VM;
        returns pages merged."""
        merged = 0
        host = self.platform.host
        for vm in self.platform.iter_vms():
            ept = self.platform.ept(vm.id)
            if self.break_huge:
                self._break_candidate_huge_pages(vm.id)
            for gpn, hpn in list(islice(ept.base_mappings(), budget)):
                content = self._content_of(vm.id, gpn)
                if content is None:
                    continue
                shared = self._shared.get(content)
                if shared is not None and not self._frame_live(host, shared):
                    # Every VM referencing the shared frame departed and
                    # the frame went back to the allocator; merging into
                    # it would alias whoever owns it next.  Reseed.
                    shared = None
                if shared is None:
                    self._shared[content] = hpn
                    continue
                if shared == hpn:
                    continue
                # Merge: remap to the shared frame, free the duplicate.
                ept.unmap_base(gpn)
                host._drop_rmap(hpn, vm.id, gpn)
                host.release_frame(hpn)
                ept.map_base(gpn, shared)
                host.add_frame_ref(shared)
                merged += 1
        self.merged_pages += merged
        if merged:
            obs.count("ksm.merged_pages", merged)
        return merged

    @staticmethod
    def _frame_live(host, pfn: int) -> bool:
        """Is the shared frame still mapped by anyone?"""
        return host.owner_of_frame(pfn) is not None or pfn in host._frame_refs

    def _break_candidate_huge_pages(self, vm_id: int) -> None:
        """Demote huge EPT entries that likely contain mergeable pages."""
        host = self.platform.host
        ept = self.platform.ept(vm_id)
        guest_table = self.platform.vms[vm_id].guest.table(PROCESS)
        guest_huge_targets = {gp for _, gp in guest_table.huge_mappings()}
        for gpregion, _ in list(ept.huge_mappings()):
            if self.spare_aligned and gpregion in guest_huge_targets:
                continue
            base = gpregion * PAGES_PER_HUGE
            has_mergeable = any(
                self._content_of(vm_id, base + offset) is not None
                for offset in range(0, PAGES_PER_HUGE, 32)
            )
            if has_mergeable:
                host.demote(vm_id, gpregion)
                self.demoted_huge_pages += 1
                obs.count("ksm.demoted_huge_pages")

    @property
    def pages_saved(self) -> int:
        """Host frames freed by merging."""
        return self.merged_pages
