"""Unit tests for the misaligned huge page promoters (MHPP)."""

import pytest

from repro.core.promoter import GuestPromoter, HostPromoter
from repro.hypervisor.platform import Platform
from repro.mem.layout import PAGES_PER_HUGE
from repro.os.mm import PROCESS
from repro.policies.base import HugePagePolicy


def make_vm(guest_regions=16):
    platform = Platform(64 * PAGES_PER_HUGE, HugePagePolicy())
    vm = platform.create_vm(guest_regions * PAGES_PER_HUGE, HugePagePolicy())
    return platform, vm


def fill_region_scattered(platform, vm, vma, target_gpregion):
    """Fault a full VMA region whose GPAs land inside target_gpregion but
    shifted, so in-place promotion is impossible without compaction."""
    # Occupy the first frame of the target region so faults start offset.
    vm.gpa_space.alloc_at(target_gpregion * PAGES_PER_HUGE, 0)
    for vpn in range(vma.start, vma.start + PAGES_PER_HUGE):
        platform.touch(vm, vpn)
    vm.gpa_space.free(target_gpregion * PAGES_PER_HUGE, 0)


def test_guest_promoter_aligns_type2_region():
    platform, vm = make_vm()
    vma = vm.mmap(PAGES_PER_HUGE, "arr")
    target = 0  # guest faults land in gpa region 0 (shifted by one frame)
    fill_region_scattered(platform, vm, vma, target)
    # Host maps the gpa region huge (a mis-aligned host huge page): first
    # demolish its EPT base mappings to emulate host-side promotion.
    ept = platform.ept(vm.id)
    for gpn in list(dict(ept.base_mappings())):
        if gpn // PAGES_PER_HUGE in (0, 1):
            hpn = ept.unmap_base(gpn)
            platform.memory.free(hpn, 0)
    hp = platform.host.alloc_huge_region()
    ept.map_huge(target, hp)

    promoter = GuestPromoter(vm, budget=4)
    promoter.enqueue([target])
    promoted = promoter.run(ept.is_huge, fmfi=0.0)
    assert promoted == 1
    table = vm.table()
    vregion = vma.start // PAGES_PER_HUGE
    assert table.is_huge(vregion)
    assert table.huge_target(vregion) == target
    assert promoter.promoted_total == 1


def test_guest_promoter_skips_demoted_host_page():
    platform, vm = make_vm()
    promoter = GuestPromoter(vm)
    promoter.enqueue([3])
    assert promoter.run(lambda r: False, fmfi=0.0) == 0
    assert promoter.backlog == 0  # dropped, not retried


def test_guest_promoter_requeues_infeasible_region():
    platform, vm = make_vm()
    vma = vm.mmap(PAGES_PER_HUGE, "arr")
    platform.touch(vm, vma.start)  # one page in gpa region 0
    # Huge host page over region 0, but fragmentation gate blocks prealloc.
    ept = platform.ept(vm.id)
    gpn = vm.translate(vma.start)
    hpn = ept.unmap_base(gpn)
    platform.memory.free(hpn, 0)
    hp = platform.host.alloc_huge_region()
    ept.map_huge(0, hp)
    promoter = GuestPromoter(vm, budget=4, prealloc_threshold=256)
    promoter.enqueue([0])
    assert promoter.run(ept.is_huge, fmfi=0.0) == 0
    assert promoter.backlog == 1  # kept for retry


def test_guest_promoter_preallocates_small_tail():
    platform, vm = make_vm()
    vma = vm.mmap(PAGES_PER_HUGE, "arr")
    # Touch most of the region; frames 0.. allocated sequentially from gpa 0.
    touched = PAGES_PER_HUGE - 20
    for vpn in range(vma.start, vma.start + touched):
        platform.touch(vm, vpn)
    ept = platform.ept(vm.id)
    for gpn in list(dict(ept.base_mappings())):
        hpn = ept.unmap_base(gpn)
        platform.memory.free(hpn, 0)
    hp = platform.host.alloc_huge_region()
    ept.map_huge(0, hp)
    promoter = GuestPromoter(vm, budget=4, prealloc_threshold=256)
    promoter.enqueue([0])
    assert promoter.run(ept.is_huge, fmfi=0.2) == 1
    assert promoter.preallocated_pages == 20
    assert vm.table().is_huge(vma.start // PAGES_PER_HUGE)


def test_guest_promoter_evicts_foreign_pages():
    platform, vm = make_vm()
    a = vm.mmap(PAGES_PER_HUGE, "a")
    b = vm.mmap(PAGES_PER_HUGE, "b")
    # Interleave faults so gpa region 0 holds pages of both VMAs.
    for offset in range(PAGES_PER_HUGE // 2):
        platform.touch(vm, a.start + offset)
        platform.touch(vm, b.start + offset)
    for offset in range(PAGES_PER_HUGE // 2, PAGES_PER_HUGE):
        platform.touch(vm, a.start + offset)
        platform.touch(vm, b.start + offset)
    ept = platform.ept(vm.id)
    for gpn in list(dict(ept.base_mappings())):
        hpn = ept.unmap_base(gpn)
        platform.memory.free(hpn, 0)
    hp = platform.host.alloc_huge_region()
    ept.map_huge(0, hp)
    promoter = GuestPromoter(vm, budget=4)
    promoter.enqueue([0])
    assert promoter.run(ept.is_huge, fmfi=0.0) == 1
    # The dominant owner of gpa region 0 now huge-maps it.
    owner = vm.guest.owner_of_region(0)
    assert owner is not None


@pytest.mark.parametrize("lower", ["a", "b"])
def test_dominant_owner_tie_goes_to_the_lowest_occupied_frame(lower):
    _platform, vm = make_vm()
    vmas = {name: vm.mmap(PAGES_PER_HUGE, name) for name in ("b", "a")}
    gpregion = 2
    # Ten frames each, the higher ones mapped first: the answer follows
    # frame order, not mapping order, and (across both cases) not
    # virtual order either.
    for name in sorted(vmas, key=lambda n: n == lower):
        first = gpregion * PAGES_PER_HUGE + (50 if name == lower else 100)
        for i in range(10):
            assert vm.guest.map_prealloc(PROCESS, vmas[name].start + i, first + i)
    owner = GuestPromoter(vm)._dominant_owner(vm.guest, gpregion)
    assert owner == vmas[lower].start // PAGES_PER_HUGE


def test_host_promoter_promotes_type2_ept_region():
    platform, vm = make_vm()
    vma = vm.mmap(PAGES_PER_HUGE, "arr")
    for vpn in range(vma.start, vma.start + PAGES_PER_HUGE):
        platform.touch(vm, vpn)
    # Mark the guest side huge over its gpa region (mis-aligned guest HP).
    table = vm.table()
    vregion = vma.start // PAGES_PER_HUGE
    gpregion = table.region_mappings(vregion)[vma.start] // PAGES_PER_HUGE
    promoter = HostPromoter(platform.host, budget=4)
    promoter.enqueue(vm.id, [gpregion])
    assert promoter.run() == 1
    assert platform.ept(vm.id).is_huge(gpregion)


def test_host_promoter_skips_empty_and_already_huge():
    platform, vm = make_vm()
    promoter = HostPromoter(platform.host, budget=4)
    promoter.enqueue(vm.id, [5])  # no EPT entries: type-1, skipped
    assert promoter.run() == 0
    assert promoter.backlog == 0


def test_host_promoter_budget_respected():
    platform, vm = make_vm()
    vmas = []
    for index in range(3):
        vma = vm.mmap(PAGES_PER_HUGE, f"arr{index}")
        for vpn in range(vma.start, vma.start + PAGES_PER_HUGE):
            platform.touch(vm, vpn)
        vmas.append(vma)
    gpregions = []
    for vma in vmas:
        vregion = vma.start // PAGES_PER_HUGE
        gpregions.append(
            vm.table().region_mappings(vregion)[vma.start] // PAGES_PER_HUGE
        )
    promoter = HostPromoter(platform.host, budget=2)
    promoter.enqueue(vm.id, gpregions)
    assert promoter.run() == 2
    assert promoter.backlog == 1
