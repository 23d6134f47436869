"""Unit tests for the balloon driver (Section 8 future-work extension)."""

import pytest

from repro.hypervisor.balloon import BalloonDriver
from repro.hypervisor.platform import Platform
from repro.mem.buddy import AllocationError
from repro.mem.layout import PAGES_PER_HUGE
from repro.os.mm import PROCESS
from repro.policies.base import HugePagePolicy


class HostHuge(HugePagePolicy):
    name = "host-huge"

    def wants_huge_fault(self, client, vregion):
        return True


def make_setup(host_policy=None):
    platform = Platform(64 * PAGES_PER_HUGE, host_policy or HugePagePolicy())
    vm = platform.create_vm(16 * PAGES_PER_HUGE, HugePagePolicy())
    return platform, vm


def test_inflate_reclaims_host_frames():
    platform, vm = make_setup()
    vma = vm.mmap(100, "heap")
    platform.touch_vma(vm, vma)
    vm.munmap("heap")  # guest frees; host backing persists
    host_free_before = platform.memory.free_pages
    balloon = BalloonDriver(platform, vm, alignment_aware=False)
    reclaimed = balloon.inflate(100)
    assert reclaimed == 100
    assert platform.memory.free_pages == host_free_before + 100
    assert balloon.inflated_pages == 100


def test_inflate_untouched_pages_reclaims_nothing():
    platform, vm = make_setup()
    balloon = BalloonDriver(platform, vm, alignment_aware=False)
    reclaimed = balloon.inflate(10)
    assert reclaimed == 0  # the pages were never host-backed
    assert balloon.inflated_pages == 10


def test_ballooned_pages_unavailable_to_guest():
    platform, vm = make_setup()
    balloon = BalloonDriver(platform, vm, alignment_aware=False)
    free_before = vm.gpa_space.free_pages
    balloon.inflate(50)
    assert vm.gpa_space.free_pages == free_before - 50
    balloon.deflate()
    assert vm.gpa_space.free_pages == free_before
    assert balloon.inflated_pages == 0


def test_naive_balloon_demotes_huge_host_pages():
    platform, vm = make_setup(host_policy=HostHuge())
    vma = vm.mmap(PAGES_PER_HUGE, "arr")
    platform.touch_vma(vm, vma)
    vm.munmap("arr")
    ept = platform.ept(vm.id)
    assert ept.huge_count >= 1
    balloon = BalloonDriver(platform, vm, alignment_aware=False)
    balloon.inflate(2 * PAGES_PER_HUGE)
    assert balloon.demoted_huge_pages >= 1


def _aligned_pair_setup():
    """A well-aligned pair over gpa region 0 whose guest memory is free
    (as the bucket's custody would leave it), plus base-backed free guest
    memory elsewhere."""
    platform, vm = make_setup(host_policy=HostHuge())
    platform.host.fault(vm.id, 0, full_region=True)
    assert platform.ept(vm.id).is_huge(0)
    vm.gpa_space.alloc_range(2 * PAGES_PER_HUGE, PAGES_PER_HUGE)
    vm.guest.table(PROCESS).map_huge(2, 0)  # guest huge over gpa region 0
    for gpn in range(4 * PAGES_PER_HUGE, 5 * PAGES_PER_HUGE):
        platform.host.fault(vm.id, gpn, full_region=False)
    return platform, vm


def test_alignment_aware_balloon_spares_aligned_pages():
    """Gemini's pressure rule: with enough mis-aligned/base-backed free
    memory, well-aligned huge pages are not demoted."""
    platform, vm = _aligned_pair_setup()
    aware = BalloonDriver(platform, vm, alignment_aware=True)
    reclaimed = aware.inflate(PAGES_PER_HUGE // 2)
    assert aware.demoted_aligned_huge_pages == 0
    assert reclaimed > 0  # it still reclaimed (base-backed) memory

    # The naive policy, ballooning the lowest free pages, hits region 0
    # (fresh setup so the aware run's allocations don't mask the effect).
    platform, vm = _aligned_pair_setup()
    naive = BalloonDriver(platform, vm, alignment_aware=False)
    naive.inflate(2 * PAGES_PER_HUGE)  # enough to reach region 0's block
    assert naive.demoted_huge_pages >= 1


def test_deflated_pages_refault_on_touch():
    platform, vm = make_setup()
    vma = vm.mmap(20, "heap")
    platform.touch_vma(vm, vma)
    gpn = vm.translate(vma.start)
    vm.munmap("heap")
    balloon = BalloonDriver(platform, vm, alignment_aware=False)
    balloon.inflate(20)
    balloon.deflate()
    ept = platform.ept(vm.id)
    assert ept.translate(gpn) is None
    # The guest can reuse the memory; the host re-backs on fault.
    vma2 = vm.mmap(20, "heap2")
    platform.touch_vma(vm, vma2)
    assert vm.translate(vma2.start) is not None


def test_inflate_and_deflate_emit_obs_counters():
    from repro import obs

    platform, vm = make_setup(host_policy=HostHuge())
    vma = vm.mmap(PAGES_PER_HUGE, "arr")
    platform.touch_vma(vm, vma)
    vm.munmap("arr")
    balloon = BalloonDriver(platform, vm, alignment_aware=False)
    obs.enable()
    try:
        reclaimed = balloon.inflate(PAGES_PER_HUGE)
        counters = obs.get().counters
        assert counters["balloon.inflated_pages"] == PAGES_PER_HUGE
        assert counters["balloon.reclaimed_pages"] == reclaimed > 0
        assert counters["balloon.demoted_huge_pages"] >= 1
        released = balloon.deflate()
        assert obs.get().counters["balloon.deflated_pages"] == released > 0
    finally:
        obs.disable()
        obs.clear_context()


# ----------------------------------------------------------------------
# Twin runs against the page-by-page reference
# ----------------------------------------------------------------------


def reference_inflate(balloon, npages):
    """The balloon taken one page at a time: sort every free guest page
    by backing class (or take the lowest free pages), claim each with
    ``alloc_at``/``alloc``, then release each page's host backing alone."""
    platform, vm = balloon.platform, balloon.vm
    host, ept = platform.host, platform.ept(vm.id)
    guest_table = vm.guest.table(PROCESS)
    if balloon.alignment_aware:
        targets = {gp for _, gp in guest_table.huge_mappings()}

        def backing_class(gpn):
            gpregion = gpn // PAGES_PER_HUGE
            if not ept.is_huge(gpregion):
                return 0 if ept.translate(gpn) is not None else 1
            return 3 if gpregion in targets else 2

        pages = [
            gpn
            for start, count in vm.gpa_space.free_regions()
            for gpn in range(start, start + count)
        ]
        pages.sort(key=lambda gpn: (backing_class(gpn), gpn))
        victims = pages[:npages]
        for gpn in victims:
            vm.gpa_space.alloc_at(gpn, 0)
    else:
        victims = []
        for _ in range(npages):
            try:
                victims.append(vm.gpa_space.alloc(0))
            except AllocationError:
                break
    reclaimed = 0
    for gpn in victims:
        balloon._ballooned.append(gpn)
        gpregion = gpn // PAGES_PER_HUGE
        if ept.is_huge(gpregion):
            aligned = any(gp == gpregion for _, gp in guest_table.huge_mappings())
            host.demote(vm.id, gpregion)
            balloon.demoted_huge_pages += 1
            if aligned:
                balloon.demoted_aligned_huge_pages += 1
        if ept.translate(gpn) is None:
            continue
        hpn = ept.unmap_base(gpn)
        host._drop_rmap(hpn, vm.id, gpn)
        host.release_frame(hpn)
        reclaimed += 1
    return reclaimed


def reference_deflate(balloon):
    released = len(balloon._ballooned)
    for gpn in balloon._ballooned:
        balloon.vm.gpa_space.free(gpn, 0)
    balloon._ballooned.clear()
    return released


def four_class_setup():
    """Free guest memory holding every backing class, in address order
    that differs from class order:

    * gpa region 0: host huge and a guest huge target (well-aligned);
    * gpa region 1: host huge, no guest huge mapping (mis-aligned);
    * gpa regions 2-3: 322 free base-backed pages in runs on
      non-contiguous host frames, 677 free unbacked ones between them,
      and guest-allocated pages splitting the free intervals;
    * one base-backed free page KSM-merged onto another page's frame.

    Gpa regions 4-15 are allocated to the guest.
    """
    platform, vm = make_setup(host_policy=HostHuge())
    host, ept = platform.host, platform.ept(vm.id)
    host.fault(vm.id, 0, full_region=True)
    host.fault(vm.id, PAGES_PER_HUGE, full_region=True)
    vm.gpa_space.alloc_range(4 * PAGES_PER_HUGE, 12 * PAGES_PER_HUGE)
    vm.guest.table(PROCESS).map_huge(8, 0)
    base = 2 * PAGES_PER_HUGE
    for gpn in [*range(base + 300, base + 340), *range(base + 10, base + 90, 3),
                *range(base + 500, base + 700), *range(base + 120, base + 200)]:
        host.fault(vm.id, gpn, full_region=False)
    vm.gpa_space.alloc_range(base + 150, 20)
    vm.gpa_space.alloc_range(base + 600, 5)
    # Merge free page base+301 onto base+300's frame, as KSM would.
    shared = ept.translate(base + 300)
    duplicate = ept.unmap_base(base + 301)
    host._drop_rmap(duplicate, vm.id, base + 301)
    host.release_frame(duplicate)
    ept.map_base(base + 301, shared)
    host.add_frame_ref(shared)
    return platform, vm


def balloon_state(platform, vm, balloon, host_frames):
    host, ept = platform.host, platform.ept(vm.id)
    host_regions = sorted({f // PAGES_PER_HUGE for f in host_frames})
    return {
        "ballooned": list(balloon._ballooned),
        "base": list(ept.base_mappings()),
        "huge": list(ept.huge_mappings()),
        "populated": list(ept.populated_regions()),
        "host_free": platform.memory.free_regions(),
        "host_blocks": [n.free_block_counts() for n in platform.memory.nodes],
        "guest_free": vm.gpa_space.free_regions(),
        "guest_blocks": [n.free_block_counts() for n in vm.gpa_space.nodes],
        "owners": [host.owner_of_frame(f) for f in host_frames],
        "owner_counts": [dict(host.region_owner_counts(p)) for p in host_regions],
        "rmap_bits": [host.rmap_bits(p) for p in host_regions],
        "refs": dict(host._frame_refs),
        "demoted": (balloon.demoted_huge_pages, balloon.demoted_aligned_huge_pages),
        "report": platform.index_of(vm).report(),
    }


@pytest.mark.parametrize("alignment_aware", [True, False])
def test_inflate_and_deflate_match_page_by_page_reference(alignment_aware):
    """Inflating in runs leaves exactly the state the page-by-page balloon
    leaves, victim order, demotions, KSM references and both allocators
    included: an inflate cutting inside the base-backed class, one cutting
    inside a huge region, one asking for more than all free memory, and
    the deflate after them."""
    twins = []
    for _ in range(2):
        platform, vm = four_class_setup()
        balloon = BalloonDriver(platform, vm, alignment_aware=alignment_aware)
        twins.append((platform, vm, balloon))
    (platform, vm, balloon), (ref_platform, ref_vm, ref_balloon) = twins
    host_frames = sorted(
        {hpn for _, hpn in ref_platform.ept(ref_vm.id).base_mappings()}
        | {
            hp * PAGES_PER_HUGE + i
            for _, hp in ref_platform.ept(ref_vm.id).huge_mappings()
            for i in range(PAGES_PER_HUGE)
        }
    )
    # Aware victims: 100 of the 322 base-backed pages; the other 222, the
    # 677 unbacked ones and 101 pages of the mis-aligned huge region; the
    # rest of it and the well-aligned region.
    demotions = [(0, 0), (1, 0), (2, 1)]
    for npages, demoted in zip((100, 1000, 16 * PAGES_PER_HUGE), demotions):
        assert balloon.inflate(npages) == reference_inflate(ref_balloon, npages)
        assert balloon_state(platform, vm, balloon, host_frames) == balloon_state(
            ref_platform, ref_vm, ref_balloon, host_frames
        )
        if alignment_aware:
            assert (
                balloon.demoted_huge_pages, balloon.demoted_aligned_huge_pages
            ) == demoted
    assert vm.gpa_space.free_pages == 0
    assert balloon.inflated_pages == 4 * PAGES_PER_HUGE - 25
    assert balloon.deflate() == reference_deflate(ref_balloon)
    assert balloon_state(platform, vm, balloon, host_frames) == balloon_state(
        ref_platform, ref_vm, ref_balloon, host_frames
    )
